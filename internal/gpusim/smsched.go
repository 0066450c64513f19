package gpusim

import (
	"fmt"
	"math"
	"sort"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/sim"
)

// smScheduler models the device's SM array. Thread blocks of admitted
// kernels are dispatched round-robin across SMs subject to the kernel's
// occupancy limit and the SM's warp/register/shared-memory/block budgets.
// Blocks resident on an SM drain under processor sharing: the SM's issue
// throughput is divided among resident warps, with a per-warp cap that
// models imperfect latency hiding at low occupancy (a lone warp cannot
// saturate an SM).
//
// Compute time is a weighted resource. Every launch carries a weight
// (default 1); when all co-resident kernels share one weight the SM
// drains exactly like classic processor sharing (throughput split over
// warps — bit-identical to the pre-QoS scheduler). When weights differ,
// each SM's issue capacity is divided across kernels in proportion to
// weight by water-filling: a kernel can never absorb more than its own
// warps allow (thr·min(1, warps/LatencyHidingWarps)), and capacity a
// capped kernel leaves behind flows to the others. Block placement
// likewise favors the most underserved kernel per unit weight, so
// steady-state SM residency converges toward the weight ratio.
//
// Wave-boundary preemption: when a higher-weight kernel waits for a
// window slot, lower-weight kernels (by the configured preemption ratio)
// stop receiving new blocks; once such a kernel's resident blocks drain
// (a wave boundary) it vacates its window slot back to the pending queue
// — keeping all completed-block credit — and the preemptor is admitted.
// Resident blocks are never killed, so functional results are
// bit-identical with or without preemption.
//
// Concurrent execution follows Fermi's rules: at most
// Arch.MaxConcurrentKernels kernels are admitted at once, and only kernels
// of the *current* device context can be resident together — the device
// arbiter (Context.Acquire) guarantees cross-context exclusion, so the
// scheduler only ever sees one context's kernels.
type smScheduler struct {
	env  *sim.Env
	dev  *Device
	arch fermi.Arch

	sms     []*smState
	window  int            // kernels currently admitted
	pending []*launchState // waiting for a window slot; admitted by weight, FIFO within a weight
	active  []*launchState // admitted kernels, arrival order
	nextSM  int            // round-robin cursor
	// lastUpdate is the instant every SM was last drained to; advanceAll
	// moves all SMs together, so they share it.
	lastUpdate sim.Time
	// timer fires at the earliest group completion over all SMs; it is
	// the scheduler's one calendar entry (see armTimers).
	timer *sim.Timer
	// freeGen advances whenever SM resources are returned (a group
	// collected, or every group aborted). A kernel whose placement failed
	// at the current generation cannot place until it advances: only
	// placements happened since, and they only consume resources. It
	// starts at 1, so a launchState's zero noFitGen never matches.
	freeGen uint64
	// preemptRatio gates wave-boundary preemption: a pending kernel
	// preempts an active one iff pendingWeight > ratio·activeWeight.
	// <= 0 disables preemption.
	preemptRatio float64
	// groupFree recycles smGroups so a steady stream of small kernels
	// (the daemon's warm ring cycle) does not allocate one per launch.
	groupFree []*smGroup
	// perSMFree recycles the per-kernel resident-block count slices.
	perSMFree [][]int32
	// launchFree recycles launchStates once their completion has fired.
	launchFree []*launchState

	// Scratch buffers reused across reschedules (never escape).
	orderScratch []*launchState
	wfK          []*launchState // distinct kernels on the SM being rated
	wfWarps      []int
	wfBlocks     []int
	wfCap        []float64
	wfRate       []float64
	wfDone       []bool
}

// launchState tracks one in-flight kernel.
type launchState struct {
	ctx         *Context
	k           *cuda.Kernel
	occ         fermi.Occupancy
	weight      int // share of SM issue throughput relative to co-residents
	blockWork   float64
	regsPerBlk  int
	shmemPerBlk int

	blocksLeft int // not yet dispatched
	blocksDone int
	total      int
	// perSM[i] counts this kernel's blocks resident on SM i, so the
	// per-kernel occupancy check in fits is O(1) instead of a rescan of
	// the SM's group list per placement.
	perSM []int32
	// inhibited marks a kernel being preempted: its resident blocks
	// drain but no new blocks are placed until the preemptor is served.
	inhibited bool
	// deficit banks placement credit for weighted deficit round-robin:
	// each dispatch pass deposits weight and each placed block spends the
	// pass's minimum active weight, so placement interleaves in weight
	// proportion (uniform weights degenerate to the legacy one block per
	// kernel per pass). Reset when the kernel cannot place, so credit
	// never banks across scarcity.
	deficit int
	// noFitGen is the scheduler's freeGen when a placement of this
	// kernel last found no SM with room (0: never). While freeGen is
	// unchanged a retry would fail the same way, so placeOne skips it.
	noFitGen uint64

	start       sim.Time
	memFloorEnd sim.Time
	done        *sim.Event
}

// resident returns how many of the kernel's blocks currently occupy SMs.
func (ls *launchState) resident() int { return ls.total - ls.blocksDone - ls.blocksLeft }

// smState is one streaming multiprocessor.
type smState struct {
	idx        int
	usedWarps  int
	usedRegs   int
	usedShmem  int
	usedBlocks int
	groups     []*smGroup
	// rates caches the per-block drain rate of each group, indexed like
	// groups, while ratesOK holds. A rate depends only on the SM's group
	// list (blocks, warps and weights) and usedWarps, which change only
	// when a block is placed here or a group is collected or aborted;
	// those are the only places that clear ratesOK.
	rates   []float64
	ratesOK bool
	// finished flags an SM holding a drained group (remWork <= 0.5), set
	// by advanceAll or by placing a block that carries no more work than
	// that. collectFinished visits only flagged SMs.
	finished bool
	// freshFrom marks where this dispatch pass's new groups begin in
	// groups, so same-instant placements of one kernel merge without a
	// scratch map.
	freshFrom int
}

// smGroup is a set of identical blocks of one kernel that started together
// on one SM; they drain at the same rate and complete together.
type smGroup struct {
	ls      *launchState
	blocks  int
	warps   int // total warps held by the group
	regs    int
	shmem   int
	remWork float64 // remaining lane-cycles per block
}

func newSMScheduler(env *sim.Env, dev *Device) *smScheduler {
	s := &smScheduler{env: env, dev: dev, arch: dev.arch, preemptRatio: dev.preemptRatio, freeGen: 1}
	s.sms = make([]*smState, dev.arch.SMs)
	for i := range s.sms {
		s.sms[i] = &smState{idx: i}
	}
	s.timer = env.NewTimer(s.reschedule)
	return s
}

// launch registers a kernel for execution and returns its completion
// event. The caller has already paid the launch overhead and normalized
// the weight to >= 1.
func (s *smScheduler) launch(ctx *Context, k *cuda.Kernel, weight int) *sim.Event {
	occ, err := s.arch.Occupancy(k.Resources())
	if err != nil {
		// Validate is called before launch; reaching here is a bug.
		panic(fmt.Sprintf("gpusim: launch of invalid kernel %q: %v", k.Name, err))
	}
	warpsPerBlock := occ.WarpsPerBlock
	regsPerWarp := 0
	if k.RegsPerThread > 0 {
		regsPerWarp = ((k.RegsPerThread*s.arch.WarpSize + s.arch.RegAllocUnit - 1) /
			s.arch.RegAllocUnit) * s.arch.RegAllocUnit
	}
	shm := k.SharedMemPerBlock
	if shm > 0 && s.arch.SharedAllocUnit > 1 {
		shm = (shm + s.arch.SharedAllocUnit - 1) / s.arch.SharedAllocUnit * s.arch.SharedAllocUnit
	}
	ls := s.takeLaunch()
	*ls = launchState{
		ctx:         ctx,
		k:           k,
		occ:         occ,
		weight:      weight,
		blockWork:   float64(k.Block.Count()) * k.CyclesPerThread,
		regsPerBlk:  regsPerWarp * warpsPerBlock,
		shmemPerBlk: shm,
		blocksLeft:  k.Blocks(),
		total:       k.Blocks(),
		perSM:       s.takePerSM(),
		start:       s.env.Now(),
		done:        s.env.NewEvent(),
	}
	if mem := k.TotalMemBytes(); mem > 0 && s.arch.MemBandwidth > 0 {
		ls.memFloorEnd = ls.start.Add(sim.Duration(mem / s.arch.MemBandwidth * 1e9))
	}
	if s.window < s.arch.MaxConcurrentKernels {
		s.admit(ls)
	} else {
		s.pending = append(s.pending, ls)
	}
	// A zero-work kernel completes, and its launchState is recycled,
	// inside this reschedule.
	done := ls.done
	s.reschedule()
	return done
}

func (s *smScheduler) admit(ls *launchState) {
	s.window++
	s.active = append(s.active, ls)
}

// admitNext fills one free window slot with the highest-weight pending
// kernel (FIFO among equals, so uniform-weight runs admit in arrival
// order exactly like the pre-QoS scheduler).
func (s *smScheduler) admitNext() {
	if len(s.pending) == 0 || s.window >= s.arch.MaxConcurrentKernels {
		return
	}
	best := 0
	for i, ls := range s.pending {
		if ls.weight > s.pending[best].weight {
			best = i
		}
	}
	next := s.pending[best]
	s.pending = append(s.pending[:best], s.pending[best+1:]...)
	// A kernel re-admitted after demotion must not carry banked placement
	// credit from its previous residency.
	next.deficit = 0
	s.admit(next)
}

func (s *smScheduler) takeLaunch() *launchState {
	if n := len(s.launchFree); n > 0 {
		ls := s.launchFree[n-1]
		s.launchFree[n-1] = nil
		s.launchFree = s.launchFree[:n-1]
		return ls
	}
	return &launchState{}
}

func (s *smScheduler) takePerSM() []int32 {
	if n := len(s.perSMFree); n > 0 {
		p := s.perSMFree[n-1]
		s.perSMFree[n-1] = nil
		s.perSMFree = s.perSMFree[:n-1]
		return p
	}
	return make([]int32, len(s.sms))
}

func (s *smScheduler) releasePerSM(ls *launchState) {
	p := ls.perSM
	ls.perSM = nil
	if p == nil || len(s.perSMFree) >= 32 {
		return
	}
	for i := range p {
		p[i] = 0
	}
	s.perSMFree = append(s.perSMFree, p)
}

// advanceAll drains every SM's groups up to the current instant.
func (s *smScheduler) advanceAll() {
	now := s.env.Now()
	dt := now.Sub(s.lastUpdate).Seconds()
	s.lastUpdate = now
	if dt <= 0 {
		return
	}
	for _, sm := range s.sms {
		if len(sm.groups) == 0 {
			continue
		}
		rates := s.smRates(sm)
		for i, g := range sm.groups {
			g.remWork -= rates[i] * dt
			if g.remWork < 0 {
				g.remWork = 0
			}
			if g.remWork <= 0.5 {
				sm.finished = true
			}
		}
	}
}

// smRates returns sm's per-block group drain rates, recomputing them only
// when a placement, collection or abort has invalidated the cache.
func (s *smScheduler) smRates(sm *smState) []float64 {
	if !sm.ratesOK {
		sm.rates = s.groupRates(sm, sm.rates[:0])
		sm.ratesOK = true
	}
	return sm.rates
}

// denom is the warp-sharing denominator: resident warps, floored at the
// latency-hiding threshold (an under-occupied SM cannot use all issue
// slots).
func (s *smScheduler) denom(sm *smState) float64 {
	d := float64(sm.usedWarps)
	if lh := float64(s.arch.LatencyHidingWarps); d < lh {
		d = lh
	}
	if d == 0 {
		d = 1
	}
	return d
}

// perBlockRate returns the lane-cycles/second each block of group g drains
// at, given the SM sharing denominator.
func (s *smScheduler) perBlockRate(g *smGroup, denom float64) float64 {
	throughput := float64(s.arch.CoresPerSM) * s.arch.ClockHz // lane-cycles/s
	warpsPerBlock := float64(g.warps) / float64(g.blocks)
	return throughput * warpsPerBlock / denom
}

// groupRates appends the per-block drain rate of every group on sm, in
// group order, to rates and returns it. When all resident kernels share
// one weight this is classic processor sharing over warps, evaluated
// with exactly the pre-QoS float operations so uniform-weight runs are
// bit-identical. With mixed weights the SM's issue capacity is
// water-filled across kernels in proportion to weight, each kernel
// capped at what its resident warps can absorb through the
// latency-hiding floor.
func (s *smScheduler) groupRates(sm *smState, rates []float64) []float64 {
	uniform := true
	for _, g := range sm.groups[1:] {
		if g.ls.weight != sm.groups[0].ls.weight {
			uniform = false
			break
		}
	}
	if uniform {
		denom := s.denom(sm)
		for _, g := range sm.groups {
			rates = append(rates, s.perBlockRate(g, denom))
		}
		return rates
	}

	// Gather distinct kernels with their total warps/blocks on this SM.
	ks, warps, blocks := s.wfK[:0], s.wfWarps[:0], s.wfBlocks[:0]
	for _, g := range sm.groups {
		found := false
		for i, ls := range ks {
			if ls == g.ls {
				warps[i] += g.warps
				blocks[i] += g.blocks
				found = true
				break
			}
		}
		if !found {
			ks = append(ks, g.ls)
			warps = append(warps, g.warps)
			blocks = append(blocks, g.blocks)
		}
	}

	thr := float64(s.arch.CoresPerSM) * s.arch.ClockHz
	lh := float64(s.arch.LatencyHidingWarps)
	// Total SM capacity equals the aggregate of classic processor
	// sharing: thr·min(1, usedWarps/LH).
	capacity := thr
	if uw := float64(sm.usedWarps); uw < lh {
		capacity = thr * uw / lh
	}
	caps, kRate, done := s.wfCap[:0], s.wfRate[:0], s.wfDone[:0]
	for i := range ks {
		c := thr
		if w := float64(warps[i]); w < lh {
			c = thr * w / lh
		}
		caps = append(caps, c)
		kRate = append(kRate, 0)
		done = append(done, false)
	}
	// Water-fill: give each kernel capacity ∝ weight; kernels that would
	// exceed their absorption cap are clamped and the remainder is
	// redistributed. Σcaps >= capacity always, so this terminates with
	// the capacity fully (or maximally) assigned, deterministically.
	remC := capacity
	for {
		sumW := 0
		for i := range ks {
			if !done[i] {
				sumW += ks[i].weight
			}
		}
		if sumW == 0 {
			break
		}
		changed := false
		for i := range ks {
			if done[i] {
				continue
			}
			if remC*float64(ks[i].weight) >= caps[i]*float64(sumW) {
				kRate[i] = caps[i]
				remC -= caps[i]
				done[i] = true
				changed = true
			}
		}
		if !changed {
			for i := range ks {
				if !done[i] {
					kRate[i] = remC * float64(ks[i].weight) / float64(sumW)
				}
			}
			break
		}
	}
	for _, g := range sm.groups {
		for i, ls := range ks {
			if ls == g.ls {
				rates = append(rates, kRate[i]/float64(blocks[i]))
				break
			}
		}
	}
	s.wfK, s.wfWarps, s.wfBlocks = ks, warps, blocks
	s.wfCap, s.wfRate, s.wfDone = caps, kRate, done
	return rates
}

// reschedule is called after any state change (a launch, or the
// completion timer firing): it drains every SM up to now, collects
// finished groups, dispatches new blocks, and re-arms the completion
// timer.
func (s *smScheduler) reschedule() {
	s.advanceAll()
	s.collectFinished()
	s.dispatch()
	s.armTimers()
}

// collectFinished removes drained groups, credits their kernels, fires
// completion events and opens window slots. Only SMs flagged finished
// can hold a drained group; they are visited in index order.
func (s *smScheduler) collectFinished() {
	for _, sm := range s.sms {
		if !sm.finished {
			continue
		}
		sm.finished = false
		kept := sm.groups[:0]
		for _, g := range sm.groups {
			// Half a lane-cycle of residual work (sub-nanosecond) counts
			// as done; it absorbs float rounding in the rate integration.
			if g.remWork > 0.5 && g.ls.blockWork > 0 {
				kept = append(kept, g)
				continue
			}
			sm.usedWarps -= g.warps
			sm.usedRegs -= g.regs
			sm.usedShmem -= g.shmem
			sm.usedBlocks -= g.blocks
			ls := g.ls
			ls.blocksDone += g.blocks
			ls.perSM[sm.idx] -= int32(g.blocks)
			*g = smGroup{}
			if len(s.groupFree) < 32 {
				s.groupFree = append(s.groupFree, g)
			}
			if ls.blocksDone == ls.total {
				s.finish(ls)
			}
		}
		if len(kept) != len(sm.groups) {
			sm.ratesOK = false
			s.freeGen++
		}
		sm.groups = kept
	}
}

// finish completes a kernel: runs its functional body (in functional
// mode), honors the memory-bandwidth floor, fires done, frees the window
// slot and admits the next pending kernel.
func (s *smScheduler) finish(ls *launchState) {
	for i, a := range s.active {
		if a == ls {
			s.finishAt(ls, i)
			return
		}
	}
	panic(fmt.Sprintf("gpusim: finish of kernel %q not in active set", ls.k.Name))
}

// finishAt is finish when the caller already knows the kernel's index in
// s.active.
func (s *smScheduler) finishAt(ls *launchState, i int) {
	s.window--
	s.active = append(s.active[:i], s.active[i+1:]...)
	s.releasePerSM(ls)
	s.admitNext()
	s.dev.KernelsRun++
	if s.env.Now() < ls.memFloorEnd {
		s.env.At(ls.memFloorEnd, func() { s.fireLaunch(ls) })
	} else {
		s.fireLaunch(ls)
	}
}

// fireLaunch runs the kernel's functional body (in functional mode) and
// fires its completion event; it is finish's tail, split out so the
// common no-memory-floor case pays no closure.
func (s *smScheduler) fireLaunch(ls *launchState) {
	if s.dev.functional && ls.k.Func != nil {
		// Device.Bytes only reads the allocation table, so concurrent
		// block bodies may resolve pointers safely while they write
		// their disjoint output ranges.
		if err := s.dev.exec.Run(ls.k, s.dev); err != nil {
			panic(err)
		}
	}
	if s.dev.tracing() {
		s.dev.emit("sm", fmt.Sprintf("ctx%d kernel %s", ls.ctx.id, ls.k.Name), ls.start, s.env.Now())
	}
	ls.done.Fire(nil)
	// No group, window slot or pending entry refers to ls any more.
	*ls = launchState{}
	if len(s.launchFree) < 32 {
		s.launchFree = append(s.launchFree, ls)
	}
}

// abortAll kills every in-flight kernel (hang/fatal fault injection):
// resident blocks are discarded, SM budgets returned, the window and
// pending queue emptied, and each kernel's done event fires with err as
// its payload — no functional body runs and no KernelsRun credit is
// given, so waiters observe the fault instead of a silent success.
func (s *smScheduler) abortAll(err error) {
	s.advanceAll()
	for _, sm := range s.sms {
		for _, g := range sm.groups {
			sm.usedWarps -= g.warps
			sm.usedRegs -= g.regs
			sm.usedShmem -= g.shmem
			sm.usedBlocks -= g.blocks
			*g = smGroup{}
			if len(s.groupFree) < 32 {
				s.groupFree = append(s.groupFree, g)
			}
		}
		sm.groups = sm.groups[:0]
		sm.freshFrom = 0
		sm.ratesOK = false
		sm.finished = false
	}
	s.freeGen++
	s.timer.Stop()
	aborted := append(append([]*launchState(nil), s.active...), s.pending...)
	s.active = s.active[:0]
	s.pending = s.pending[:0]
	s.window = 0
	for _, ls := range aborted {
		s.releasePerSM(ls)
		ls.done.Fire(err)
	}
}

// preempt implements wave-boundary preemption. While a pending kernel
// outweighs an active one by more than the preemption ratio, the active
// kernel stops receiving new blocks (inhibited); once its resident
// blocks have drained it returns to the pending queue — retaining every
// completed block — and its window slot goes to the preemptor. Progress
// is guaranteed: only strictly higher-weight pending kernels inhibit, so
// the demoted kernel resumes as soon as the preemptor's weight class
// drains from the window.
func (s *smScheduler) preempt() {
	for _, ls := range s.active {
		ls.inhibited = false
	}
	if s.preemptRatio <= 0 {
		return
	}
	for {
		// maxW must be recomputed after every demotion: demoting admits a
		// pending kernel (usually the preemptor itself), and judging the
		// remaining actives against the pre-admission queue would demote
		// kernels whose preemptor is already in the window — two equal-weight
		// kernels would then swap between active and pending forever at one
		// virtual instant.
		maxW := 0
		for _, ls := range s.pending {
			if ls.weight > maxW {
				maxW = ls.weight
			}
		}
		demoted := false
		for i := 0; i < len(s.active); i++ {
			ls := s.active[i]
			// A kernel yields its slot only to a strictly heavier pending
			// kernel past the ratio threshold; the strict half of the test
			// means every demotion raises the window's total weight, so this
			// loop terminates for any ratio.
			if maxW <= ls.weight || float64(maxW) <= s.preemptRatio*float64(ls.weight) {
				// Also undoes inhibition from an earlier round whose
				// preemptor has been admitted by now.
				ls.inhibited = false
				continue
			}
			if ls.resident() > 0 || ls.blocksLeft == 0 {
				// Mid-wave (or fully dispatched): let resident blocks
				// drain, place nothing new.
				ls.inhibited = true
				continue
			}
			s.active = append(s.active[:i], s.active[i+1:]...)
			s.window--
			ls.inhibited = false
			s.pending = append(s.pending, ls)
			s.dev.preemptions.Add(1)
			s.admitNext()
			demoted = true
			break
		}
		if !demoted {
			return
		}
	}
}

// dispatchOrder returns the order in which active kernels claim SM block
// slots this pass. With uniform weights it is s.active itself (arrival
// order — bit-identical to the pre-QoS scheduler). With mixed weights,
// kernels are ordered by weight-normalized residency (fewest resident
// blocks per unit weight first, stable by arrival among ties), so scarce
// slots go to the most underserved kernel and steady-state residency
// converges toward the weight ratio.
func (s *smScheduler) dispatchOrder() []*launchState {
	uniform := true
	for _, ls := range s.active {
		if ls.weight != s.active[0].weight {
			uniform = false
			break
		}
	}
	if uniform {
		return s.active
	}
	order := append(s.orderScratch[:0], s.active...)
	s.orderScratch = order
	sort.SliceStable(order, func(a, b int) bool {
		// resident_a/weight_a < resident_b/weight_b, cross-multiplied to
		// stay in exact integer arithmetic.
		return int64(order[a].resident())*int64(order[b].weight) <
			int64(order[b].resident())*int64(order[a].weight)
	})
	return order
}

// completeZeroWork finishes active kernels whose blocks carry no work:
// they complete without occupying hardware. finishAt removes index i in
// place and any kernel it admits from the pending queue is appended to
// s.active, so one forward pass visits everything — no restart-rescan.
func (s *smScheduler) completeZeroWork() {
	for i := 0; i < len(s.active); {
		ls := s.active[i]
		if ls.blocksLeft > 0 && ls.blockWork <= 0 {
			ls.blocksDone += ls.blocksLeft
			ls.blocksLeft = 0
			s.finishAt(ls, i)
			continue
		}
		i++
	}
}

// dispatch places undispatched blocks onto SMs: kernels in weighted
// order, SMs round-robin, one block per kernel per pass, merging
// same-instant placements of one kernel on one SM into a single group.
func (s *smScheduler) dispatch() {
	for _, sm := range s.sms {
		sm.freshFrom = len(sm.groups)
	}
	s.completeZeroWork()
	s.preempt()
	// preempt's demotions admit pending kernels; a zero-work kernel
	// admitted that way can never be placed (the placement loop skips
	// blockWork <= 0), so it must be completed here or its waiter
	// deadlocks with an empty calendar.
	s.completeZeroWork()
	for {
		// Deficit round-robin: each pass deposits weight into every
		// placeable kernel's credit and a placed block costs the pass's
		// minimum weight, so placement interleaves in weight proportion
		// (4:1 weights place 4 blocks per pass against 1). With uniform
		// weights every quota is exactly one block, which reproduces the
		// legacy one-block-per-kernel interleave bit for bit.
		minW := 0
		for _, ls := range s.active {
			if ls.blocksLeft == 0 || ls.blockWork <= 0 || ls.inhibited {
				continue
			}
			if minW == 0 || ls.weight < minW {
				minW = ls.weight
			}
		}
		if minW == 0 {
			return
		}
		placed := false
		for _, ls := range s.dispatchOrder() {
			if ls.blocksLeft == 0 || ls.blockWork <= 0 || ls.inhibited {
				continue
			}
			ls.deficit += ls.weight
			for ls.deficit >= minW && ls.blocksLeft > 0 {
				if !s.placeOne(ls) {
					// No SM fits: drop banked credit so it cannot burst
					// later and starve lighter kernels when slots free up.
					ls.deficit = 0
					break
				}
				ls.deficit -= minW
				placed = true
			}
		}
		if !placed {
			return
		}
	}
}

// placeOne places one block of ls on the first SM (round-robin from
// nextSM) with room, and reports whether it found one. A failed scan
// advances nextSM by exactly len(s.sms), a full turn, so skipping a
// retry that must fail (noFitGen) leaves the cursor where the scan would.
func (s *smScheduler) placeOne(ls *launchState) bool {
	if ls.noFitGen == s.freeGen {
		return false
	}
	for try := 0; try < len(s.sms); try++ {
		sm := s.sms[s.nextSM]
		if s.nextSM++; s.nextSM == len(s.sms) {
			s.nextSM = 0
		}
		if !s.fits(sm, ls) {
			continue
		}
		var g *smGroup
		for _, fg := range sm.groups[sm.freshFrom:] {
			if fg.ls == ls {
				g = fg
				break
			}
		}
		if g == nil {
			if n := len(s.groupFree); n > 0 {
				g = s.groupFree[n-1]
				s.groupFree[n-1] = nil
				s.groupFree = s.groupFree[:n-1]
			} else {
				g = &smGroup{}
			}
			g.ls = ls
			g.remWork = ls.blockWork
			sm.groups = append(sm.groups, g)
			if g.remWork <= 0.5 {
				sm.finished = true
			}
		}
		sm.ratesOK = false
		g.blocks++
		g.warps += ls.occ.WarpsPerBlock
		g.regs += ls.regsPerBlk
		g.shmem += ls.shmemPerBlk
		sm.usedWarps += ls.occ.WarpsPerBlock
		sm.usedRegs += ls.regsPerBlk
		sm.usedShmem += ls.shmemPerBlk
		sm.usedBlocks++
		ls.perSM[sm.idx]++
		ls.blocksLeft--
		return true
	}
	ls.noFitGen = s.freeGen
	return false
}

// fits reports whether one more block of ls fits on sm.
func (s *smScheduler) fits(sm *smState, ls *launchState) bool {
	if sm.usedBlocks+1 > s.arch.MaxBlocksPerSM {
		return false
	}
	if sm.usedWarps+ls.occ.WarpsPerBlock > s.arch.MaxWarpsPerSM {
		return false
	}
	if sm.usedRegs+ls.regsPerBlk > s.arch.RegsPerSM {
		return false
	}
	if sm.usedShmem+ls.shmemPerBlk > s.arch.SharedMemPerSM {
		return false
	}
	// Per-kernel occupancy limit on this SM, tracked incrementally.
	return int(ls.perSM[sm.idx])+1 <= ls.occ.BlocksPerSM
}

// armTimers moves the scheduler's completion timer to the earliest group
// completion over all SMs, or stops it when nothing is left to complete.
// next is recomputed for every busy group, changed or not: the advanced
// remWork over the same rate can round to a completion instant 1 ns off
// the armed one, and the paper's numbers depend on the recomputed instant.
//
// One timer orders exactly like one timer per SM re-armed in SM order.
// Those per-SM arms all happened in the same pass, so their sequence
// numbers formed one contiguous block, and every other calendar entry
// ordered before or after the whole block. The first of them to fire ran
// reschedule, which re-armed or stopped all the others before any of them
// could fire. So only the earliest per-SM instant ever mattered, and the
// minimum over SMs of floor(next·1e9) is floor(min next·1e9).
func (s *smScheduler) armTimers() {
	next := math.Inf(1)
	for _, sm := range s.sms {
		if len(sm.groups) == 0 {
			continue
		}
		rates := s.smRates(sm)
		for i, g := range sm.groups {
			rate := rates[i]
			if rate <= 0 {
				continue
			}
			if t := g.remWork / rate; t < next {
				next = t
			}
		}
	}
	if math.IsInf(next, 1) {
		s.timer.Stop()
		return
	}
	s.timer.Reset(s.env.Now().Add(sim.Duration(next*1e9) + 1))
}

// Utilization returns the fraction of SM block slots currently occupied,
// for tests and reporting.
func (s *smScheduler) Utilization() float64 {
	used, total := 0, 0
	for _, sm := range s.sms {
		used += sm.usedBlocks
		total += s.arch.MaxBlocksPerSM
	}
	if total == 0 {
		return 0
	}
	return float64(used) / float64(total)
}
