package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/direct"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/gvm"
	"gpuvirt/internal/ipc"
	"gpuvirt/internal/shm"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/transport"
	"gpuvirt/internal/vgpu"
	"gpuvirt/internal/workloads"
)

// stageTolerancePct is how far the sum of the ladder's stage self-times
// may sit from the untraced cycle median before the trace reports that
// the stages do not add up.
const stageTolerancePct = 10

// perLayerNames is every per-layer metric a traced run prints, with its
// unit. A metric whose layer a workload does not exercise reads 0.
var perLayerNames = [][2]string{
	{"transport.ring_doorbells_per_cycle", "count"},
	{"transport.ring_records_per_sweep", "count"},
	{"transport.frame_codec_ns", "ns"},
	{"transport.frame_errors", "count"},
	{"transport.self_us", "us"},
	{"ipc.round_trips_per_cycle", "count"},
	{"ipc.ring_trips_per_cycle", "count"},
	{"ipc.retries", "count"},
	{"ipc.self_us", "us"},
	{"fed.hop_us", "us"},
	{"fed.proxy_bat_p50_ns", "ns"},
	{"fed.failovers", "count"},
	{"fed.placed_skew", "count"},
	{"node.req_us", "us"},
	{"shm.stage_in_us", "us"},
	{"shm.collect_out_us", "us"},
	{"cuda.exec_us_per_launch", "us"},
	{"cuda.launches_per_cycle", "count"},
	{"direct.self_us", "us"},
	{"gvm.self_us", "us"},
	{"gvm.requests_per_cycle", "count"},
	{"gvm.flushes_per_cycle", "count"},
	{"gvm.verb_errors", "count"},
	{"sim.cycle_us", "us"},
	{"gpusim.virtual_us_per_cycle", "us"},
	{"gpusim.kernels_per_cycle", "count"},
	{"gpusim.preemptions", "count"},
	{"spmd.virt_run_ms", "ms"},
	{"spmd.direct_run_ms", "ms"},
	{"spmd.kernels_run", "count"},
	{"spmd.context_switches", "count"},
	{"spmd.flushes", "count"},
	{"spmd.stp_polls", "count"},
	{"runtime.gvmd_allocs_per_cycle", "count"},
	{"runtime.gvmd_gc_per_kcycle", "count"},
	{"runtime.gen_sched_latency_p99_us", "us"},
	{"bench.gen_lag_p99_us", "us"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.stage_sum_error_pct", "%"},
	{"bench.stage_sum_ok", "count"},
	{"fail_ratio", "ratio"},
	{"cycle_p99_us", "us"},
	{"open_p50_us", "us"},
	{"max_rate_hz", "1/s"},
	{"closed_p99_us", "us"},
}

// perLayerSet starts a traced run's metrics with every per-layer name at
// 0.
func perLayerSet() metricSet {
	ms := metricSet{}
	for _, n := range perLayerNames {
		ms.set(n[0], n[1], 0)
	}
	return ms
}

// span is one traced call from the benchmark into a layer's public
// function.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the trace, -1 for a root
	Req    int64  `json:"req"`    // the request (cycle) the span served
}

// tracer keeps spans in memory. Each goroutine records into its own
// tracer; merge concatenates them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0, spans: make([]span, 0, 1<<14)} }

func (t *tracer) begin(name string, parent int, req int64) int {
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	s := &t.spans[i]
	s.End = int64(time.Since(t.t0))
	return time.Duration(s.End - s.Start)
}

// traceLog collects every goroutine's spans.
type traceLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	reqs  atomic.Int64
}

func (l *traceLog) merge(t *tracer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	off := len(l.spans)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			s.Parent += off
		}
		l.spans = append(l.spans, s)
	}
}

// write stores the trace in dir as gzip-compressed JSON, one span per
// line.
func (l *traceLog) write(dir, name string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl.gz")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	zw := gzip.NewWriter(f)
	enc := json.NewEncoder(zw)
	for _, s := range l.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// cycler runs one cycle of one session on some rung of the ladder and
// returns the output to check (nil when the rung computes none).
type cycler func() ([]byte, error)

// ladderRung is one entry point of the ladder. open prepares one cycler
// per session and returns a function that releases them.
type ladderRung struct {
	name string
	open func() ([]cycler, func() error, error)
	// sim rungs run inside a discrete-event environment and drive their
	// own loop; see simRung.
	simLoop func(batch time.Duration, rec func(session int, d time.Duration, out []byte, err error)) error
}

// ladderRun is the traced ladder of one daemon workload.
type ladderRun struct {
	spec  *daemonSpec
	chk   *checker
	w     workloads.Workload
	log   *traceLog
	times map[string][]float64 // traced cycle wall times, us
	plain []float64            // untraced cycle wall times of the top rung, us
}

// record runs one batch of a rung: every session's cycler runs closed
// loop on its own goroutine until the batch time is up. With traced set
// every cycle is a span under a batch span; otherwise only its duration
// is kept.
func (lr *ladderRun) record(r ladderRung, batch time.Duration, traced bool, into *[]float64) error {
	var mu sync.Mutex
	add := func(session int, d time.Duration, out []byte, err error) {
		if out != nil || err != nil {
			lr.chk.cycle(session, out, math.NaN(), err)
		}
		mu.Lock()
		*into = append(*into, float64(d.Nanoseconds())/1e3)
		mu.Unlock()
	}
	if r.simLoop != nil {
		return r.simLoop(batch, add)
	}
	cs, closeFn, err := r.open()
	if err != nil {
		return fmt.Errorf("%s: %w", r.name, err)
	}
	var wg sync.WaitGroup
	stop := time.Now().Add(batch)
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c cycler) {
			defer wg.Done()
			tr := newTracer(lr.log.t0)
			parent := -1
			if traced {
				parent = tr.begin(r.name+".batch", -1, 0)
			}
			for time.Now().Before(stop) {
				var d time.Duration
				var out []byte
				var err error
				if traced {
					sp := tr.begin(r.name, parent, lr.log.reqs.Add(1))
					out, err = c()
					d = tr.end(sp)
				} else {
					t0 := time.Now()
					out, err = c()
					d = time.Since(t0)
				}
				add(i, d, out, err)
			}
			if traced {
				tr.end(parent)
				lr.log.merge(tr)
			}
		}(i, c)
	}
	wg.Wait()
	return closeFn()
}

// cudaRung launches the workload's kernels on the functional executor
// with gvmd's default worker count.
func (lr *ladderRun) cudaRung() ladderRung {
	return ladderRung{name: "cuda.Executor.Run", open: func() ([]cycler, func() error, error) {
		var cs []cycler
		for i := range lr.chk.refs {
			ref := lr.chk.refs[i]
			im, err := buildImage(lr.w.Spec(ref.rank))
			if err != nil {
				return nil, nil, err
			}
			ex := cuda.NewExecutor(0)
			cs = append(cs, func() ([]byte, error) { return im.run(ex, ref.in) })
		}
		return cs, func() error { return nil }, nil
	}}
}

// simRung runs every session as a process of one discrete-event
// environment on one functional (or timing-only) device, the way a gvmd
// shard runs its sessions on one owner. attach prepares a session inside
// the environment and returns its per-cycle function.
func (lr *ladderRun) simRung(name string, functional bool,
	attach func(p *sim.Proc, dev *gpusim.Device, mgr *gvm.Manager, i int) (func() ([]byte, error), error),
	withManager bool, onDone func(dev *gpusim.Device, cycles int)) ladderRung {
	r := ladderRung{name: name}
	r.simLoop = func(batch time.Duration, rec func(int, time.Duration, []byte, error)) error {
		env := sim.NewEnv()
		dev, err := gpusim.New(env, gpusim.Config{Arch: fermi.TeslaC2070(), Functional: functional})
		if err != nil {
			return err
		}
		var mgr *gvm.Manager
		if withManager {
			mgr = gvm.New(env, gvm.Config{Device: dev, Parties: 1})
			mgr.Start()
		}
		errs := make([]error, len(lr.chk.refs))
		cycles := 0
		var stop time.Time
		var startOnce sync.Once
		for i := range lr.chk.refs {
			i := i
			env.Go(fmt.Sprintf("ladder-%d", i), func(p *sim.Proc) {
				if mgr != nil {
					p.Wait(mgr.Ready())
				}
				c, err := attach(p, dev, mgr, i)
				if err != nil {
					errs[i] = err
					return
				}
				startOnce.Do(func() { stop = time.Now().Add(batch) })
				tr := newTracer(lr.log.t0)
				parent := tr.begin(name+".batch", -1, 0)
				for time.Now().Before(stop) {
					sp := tr.begin(name, parent, lr.log.reqs.Add(1))
					out, err := c()
					d := tr.end(sp)
					rec(i, d, out, err)
					cycles++
					if err != nil {
						errs[i] = err
						break
					}
				}
				tr.end(parent)
				lr.log.merge(tr)
			})
		}
		if err := env.Run(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		for _, err := range errs {
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		if onDone != nil {
			onDone(dev, cycles)
		}
		return nil
	}
	return r
}

// directRung is the conventional direct-sharing path: each session owns
// a device context and runs its cycle without the GVM.
func (lr *ladderRun) directRung() ladderRung {
	return lr.simRung("direct.Process.RunCycle", true,
		func(p *sim.Proc, dev *gpusim.Device, _ *gvm.Manager, i int) (func() ([]byte, error), error) {
			ref := lr.chk.refs[i]
			pr, err := direct.Attach(p, dev, lr.w.Spec(ref.rank), lr.w.SwitchCost)
			if err != nil {
				return nil, err
			}
			copy(pr.HostIn().Data(), ref.in)
			return func() ([]byte, error) {
				if err := pr.RunCycle(p); err != nil {
					return nil, err
				}
				return pr.HostOut().Data(), nil
			}, nil
		}, false, nil)
}

// vgpuRung is the in-process virtualized cycle: vgpu client, gvm manager,
// gpusim device. Timing-only first (sim.cycle_us), then functional.
func (lr *ladderRun) vgpuRung(functional bool, kernels *float64) ladderRung {
	name := "vgpu.VGPU.RunCycle"
	if !functional {
		name += "/timing"
	}
	var done func(*gpusim.Device, int)
	if functional {
		done = func(dev *gpusim.Device, cycles int) {
			if cycles > 0 {
				*kernels = float64(dev.KernelsRun) / float64(cycles)
			}
		}
	}
	return lr.simRung(name, functional,
		func(p *sim.Proc, _ *gpusim.Device, mgr *gvm.Manager, i int) (func() ([]byte, error), error) {
			ref := lr.chk.refs[i]
			v, err := vgpu.Connect(p, mgr, lr.w.Spec(ref.rank))
			if err != nil {
				return nil, err
			}
			var in, out []byte
			if functional {
				in, out = ref.in, make([]byte, len(ref.want))
			}
			return func() ([]byte, error) {
				if err := v.RunCycle(p, in, out); err != nil {
					return nil, err
				}
				return out, nil
			}, nil
		}, true, done)
}

// ipcCyclers opens one session per client on the given addresses and
// returns their cycle functions and a release function.
func (lr *ladderRun) ipcCyclers(addrs []string, shmDir string) ([]cycler, func() error, error) {
	var clients []*ipc.Client
	var sess []*ipc.Session
	closeAll := func() error {
		var first error
		for _, s := range sess {
			if err := s.Release(); err != nil && first == nil {
				first = err
			}
		}
		for _, c := range clients {
			c.Close()
		}
		return first
	}
	var cs []cycler
	for i, addr := range addrs {
		c, err := ipc.Dial(addr, shmDir)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		clients = append(clients, c)
		s, err := c.Request(lr.spec.ref0(), i)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		sess = append(sess, s)
		in, out := lr.chk.refs[i].in, make([]byte, s.OutBytes())
		cs = append(cs, func() ([]byte, error) { return out, s.RunCycle(in, out) })
	}
	return cs, closeAll, nil
}

// daemonTrace is the traced run of a daemon workload: a short untraced
// workload phase for the per-layer counters, then the ladder, rung by
// rung in interleaved rounds, with the top rung also run untraced for the
// tracing overhead.
func daemonTrace(b *bench, spec *daemonSpec) (*result, error) {
	chk, err := prepare(b, spec)
	if err != nil {
		return nil, err
	}
	ms := perLayerSet()
	st, _, err := setUp(b, spec, chk)
	if err != nil {
		return nil, err
	}
	// The workload phase: the closed loop for the counters, then the
	// open-loop rate ladder.
	closedWindow, ladderWindow := b.window()*15/100, b.window()*30/100
	phaseWindow := closedWindow + ladderWindow
	closedLoop(st, chk, warmUp)
	m, err := closedPhase(st, chk, closedWindow, true, metricSet{})
	if err == nil {
		m.rungs, err = runLadder(b, st, chk, ladderWindow)
	}
	if err != nil {
		st.teardown()
		return nil, err
	}
	layerCounters(ms, st, m)
	openLoopMetrics(ms, st.spec, m)
	ms.set("node.req_us", "us", median(st.reqUS))
	ms.set("gpusim.virtual_us_per_cycle", "us", chk.virtMS*1e3)

	lr := &ladderRun{spec: spec, chk: chk, w: workloads.VectorAdd(spec.n),
		log: &traceLog{t0: time.Now()}, times: map[string][]float64{}}
	var kernelsPerCycle float64
	rungs := []ladderRung{lr.cudaRung(), lr.directRung(), lr.vgpuRung(false, nil), lr.vgpuRung(true, &kernelsPerCycle)}
	inprocDir, err := b.dirs.next()
	if err != nil {
		st.teardown()
		return nil, err
	}
	srv, err := ipc.NewServer(ipc.ServerConfig{
		Listen:     []string{fmt.Sprintf("inproc://perfbench-ladder-%d", os.Getpid())},
		Functional: true,
		ShmDir:     filepath.Join(inprocDir, "shm"),
	})
	if err != nil {
		st.teardown()
		return nil, err
	}
	rungs = append(rungs, ladderRung{name: "ipc.Session.RunCycle/inproc", open: func() ([]cycler, func() error, error) {
		return lr.ipcCyclers([]string{srv.Addr(), srv.Addr()}, filepath.Join(inprocDir, "shm"))
	}})
	// The workload's own transport. The fed workload reaches each node
	// directly here, one session per node as the router places them, and
	// through gvmfed on the rung above.
	ownAddrs := []string{st.nodes[0].addr, st.nodes[0].addr}
	if spec.fed {
		ownAddrs = []string{st.nodes[0].addr, st.nodes[1].addr}
	}
	// Release the workload phase's sessions so that at most two client
	// connections are open at any time.
	for _, s := range st.sess {
		s.Release()
	}
	for _, c := range st.clients {
		c.Close()
	}
	st.sess, st.clients = nil, nil
	rungs = append(rungs, ladderRung{name: "ipc.Session.RunCycle/" + spec.scheme, open: func() ([]cycler, func() error, error) {
		return lr.ipcCyclers(ownAddrs, st.shmDir)
	}})
	if spec.fed {
		rungs = append(rungs, ladderRung{name: "ipc.Session.RunCycle/gvmfed", open: func() ([]cycler, func() error, error) {
			return lr.ipcCyclers([]string{st.fedd.addr, st.fedd.addr}, st.shmDir)
		}})
	}
	const rounds = 3
	batch := (b.window() - phaseWindow) / time.Duration(rounds*(len(rungs)+1))
	top := rungs[len(rungs)-1]
	var ladderErr error
	for r := 0; r < rounds && ladderErr == nil; r++ {
		for _, rg := range rungs {
			tm := lr.times[rg.name]
			if ladderErr = lr.record(rg, batch, true, &tm); ladderErr != nil {
				break
			}
			lr.times[rg.name] = tm
		}
		if ladderErr == nil {
			ladderErr = lr.record(top, batch, false, &lr.plain)
		}
	}
	srv.Close()
	os.RemoveAll(inprocDir)
	if err := st.teardown(); ladderErr == nil {
		ladderErr = err
	}
	if ladderErr != nil {
		return nil, ladderErr
	}

	med := func(i int) float64 { return median(lr.times[rungs[i].name]) }
	im, err := buildImage(lr.w.Spec(chk.refs[0].rank))
	if err != nil {
		return nil, err
	}
	launches := float64(len(im.kernels))
	ms.set("cuda.launches_per_cycle", "count", launches)
	ms.set("cuda.exec_us_per_launch", "us", med(0)/launches)
	ms.set("sim.cycle_us", "us", med(2))
	ms.set("gpusim.kernels_per_cycle", "count", kernelsPerCycle)
	// Stage self times: each rung's median minus the median of the rung
	// it wraps. The timing-only vgpu rung (2) is wrapped by none.
	selfs := map[string]float64{
		"direct.self_us":    med(1) - med(0),
		"gvm.self_us":       med(3) - med(1),
		"ipc.self_us":       med(4) - med(3),
		"transport.self_us": med(5) - med(4),
	}
	if spec.fed {
		selfs["fed.hop_us"] = med(6) - med(5)
	}
	sum := med(0)
	for name, v := range selfs {
		ms.set(name, "us", v)
		sum += v
	}
	plain := median(lr.plain)
	traced := med(len(rungs) - 1)
	errPct := math.Abs(sum-plain) / plain * 100
	ms.set("bench.trace_overhead_pct", "%", (traced-plain)/plain*100)
	ms.set("bench.stage_sum_error_pct", "%", errPct)
	if errPct <= stageTolerancePct {
		ms.set("bench.stage_sum_ok", "count", 1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: stages sum to %.2f us; untraced top rung %.2f us (error %.1f%%, tolerance %d%%)\n",
		sum, plain, errPct, stageTolerancePct)

	if err := layerMicro(ms, b, spec, chk); err != nil {
		return nil, err
	}
	path, err := lr.log.write(filepath.Join(filepath.Dir(b.dirs.root), "traces"), fmt.Sprintf("%s-seed%d", spec.name, b.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(lr.log.spans), path)
	return traceResult(ms, chk.attempted.Load(), chk.failed.Load(), chk.err()), nil
}

// traceResult closes a traced run's metrics with its failure ratio.
func traceResult(ms metricSet, attempted, failed int64, firstErr error) *result {
	if attempted > 0 {
		ms.set("fail_ratio", "ratio", float64(failed)/float64(attempted))
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", firstErr)
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}
}

// openLoopMetrics reports the rate ladder: latency from due time at the
// reference rung, the highest rung meeting the limit, and how late the
// generator ran.
func openLoopMetrics(ms metricSet, spec *daemonSpec, m *measured) {
	var lag []float64
	for _, r := range m.rungs {
		lag = append(lag, r.lag...)
		fmt.Fprintf(os.Stderr, "perfbench: rung %.0f Hz: carried %.1f Hz, p50 %.1f us, p99 %.1f us, failed %d, overloaded %v, pass %v\n",
			r.rateHz, r.carriedHz, r.p50, r.p99, r.failed, r.overloaded, r.pass)
	}
	ref := m.rungs[spec.ref]
	ms.set("open_p50_us", "us", ref.p50)
	ms.set("cycle_p99_us", "us", ref.p99)
	ms.set("max_rate_hz", "1/s", maxRate(m.rungs))
	ms.set("closed_p99_us", "us", m.closedP99)
	ms.set("bench.gen_lag_p99_us", "us", percentile(lag, 0.99))
}

// layerCounters derives the per-layer counts of the workload phase from
// the snapshots at its edges.
func layerCounters(ms metricSet, st *stack, m *measured) {
	p := m.main
	n := float64(p.cycles)
	d := func(name string, labels ...string) float64 { return delta(p.before, p.after, name, labels...) }
	if sweeps := d("gvmd_ring_sweeps_total"); sweeps > 0 {
		ms.set("transport.ring_doorbells_per_cycle", "count", d("gvmd_ring_doorbells_total")/n)
		ms.set("transport.ring_records_per_sweep", "count", d("gvmd_ring_records_total")/sweeps)
	}
	ms.set("transport.frame_errors", "count", d("ipc_frame_errors_total"))
	trips := float64(p.after.trips - p.before.trips)
	ringTrips := float64(p.after.ringTrips - p.before.ringTrips)
	ms.set("ipc.round_trips_per_cycle", "count", trips/n)
	ms.set("ipc.ring_trips_per_cycle", "count", ringTrips/n)
	// A pipelined cycle is one trip; every trip beyond that is a retry.
	ms.set("ipc.retries", "count", math.Max(0, trips+ringTrips-n))
	ms.set("gvm.requests_per_cycle", "count", d("gvm_requests_total")/n)
	ms.set("gvm.flushes_per_cycle", "count", d("gvm_flushes_total")/n)
	ms.set("gvm.verb_errors", "count", d("gvmd_verb_errors_total"))
	ms.set("gpusim.preemptions", "count", d("gpusim_preemptions_total"))
	ms.set("runtime.gvmd_allocs_per_cycle", "count", (p.after.mallocs-p.before.mallocs)/n)
	ms.set("runtime.gvmd_gc_per_kcycle", "count", (p.after.numGC-p.before.numGC)*1000/n)
	ms.set("runtime.gen_sched_latency_p99_us", "us", histDeltaP99(p.before.sched, p.after.sched)*1e6)
	if st.fedd != nil {
		fi := len(p.after.metrics) - 1
		ms.set("fed.proxy_bat_p50_ns", "ns", histQuantile(p.before.metrics[fi], p.after.metrics[fi], "fed_proxy_latency_ns", `verb="BAT"`, 0.5))
		ms.set("fed.failovers", "count", d("fed_failovers_total"))
		var lo, hi float64 = math.Inf(1), 0
		for k, v := range p.after.metrics[fi] {
			if base, _, _ := strings.Cut(k, "{"); base == "fed_placed_sessions" {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
		}
		if hi >= lo {
			ms.set("fed.placed_skew", "count", hi-lo)
		}
	}
}

// histDeltaP99 is the p99 of the observations a runtime/metrics
// histogram gained between two reads, at the upper edge of its bucket.
func histDeltaP99(before, after *metrics.Float64Histogram) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	var total uint64
	for i := range after.Counts {
		total += after.Counts[i] - before.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(0.99 * float64(total)))
	var run uint64
	for i := range after.Counts {
		run += after.Counts[i] - before.Counts[i]
		if run >= rank {
			hi := after.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = after.Buckets[i]
			}
			return hi
		}
	}
	return 0
}

// layerMicro times the calls that move one cycle's bytes outside any
// daemon: the shm segment copies of the workload's payload and the
// binary frame codec on this cycle's BAT request and response.
func layerMicro(ms metricSet, b *bench, spec *daemonSpec, chk *checker) error {
	dir, err := b.dirs.next()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	in, want := chk.refs[0].in, chk.refs[0].want
	seg, err := shm.NewFile(filepath.Join(dir, "shm"), "perfbench-seg", int64(len(in)+len(want)))
	if err != nil {
		return err
	}
	defer seg.Close()
	out := make([]byte, len(want))
	const reps = 200
	var wr, rd []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := seg.WriteAt(in, 0); err != nil {
			return err
		}
		t1 := time.Now()
		if err := seg.ReadAt(out, int64(len(in))); err != nil {
			return err
		}
		t2 := time.Now()
		wr = append(wr, float64(t1.Sub(t0).Nanoseconds())/1e3)
		rd = append(rd, float64(t2.Sub(t1).Nanoseconds())/1e3)
	}
	ms.set("shm.stage_in_us", "us", median(wr))
	ms.set("shm.collect_out_us", "us", median(rd))

	// The BAT frame of one cycle. Payloads ride in the frame only on the
	// inline data plane (tcp); the shm and ring planes carry none.
	req := transport.Request{Verb: "BAT", Batch: []transport.Request{
		{Verb: "SND", Session: 1}, {Verb: "STR", Session: 1}, {Verb: "STP", Session: 1}, {Verb: "RCV", Session: 1}}}
	resp := transport.Response{Status: "ACK", Batch: []transport.Response{
		{Status: "ACK", Session: 1}, {Status: "ACK", Session: 1}, {Status: "ACK", Session: 1}, {Status: "ACK", Session: 1}}}
	if spec.scheme == "tcp" {
		req.Batch[0].Data = in
		resp.Batch[3].Data = want
	}
	var codec []float64
	var rbuf, sbuf []byte
	for i := 0; i < reps*10; i++ {
		t0 := time.Now()
		rbuf, err = transport.EncodeRequestBinary(rbuf[:0], req)
		if err != nil {
			return err
		}
		if _, err := transport.DecodeRequestBinary(rbuf); err != nil {
			return err
		}
		sbuf, err = transport.EncodeResponseBinary(sbuf[:0], resp)
		if err != nil {
			return err
		}
		got, err := transport.DecodeResponseBinary(sbuf)
		if err != nil {
			return err
		}
		codec = append(codec, float64(time.Since(t0).Nanoseconds()))
		if spec.scheme == "tcp" && !bytes.Equal(got.Batch[3].Data, want) {
			return fmt.Errorf("frame codec round trip changed the RCV payload")
		}
	}
	ms.set("transport.frame_codec_ns", "ns", median(codec))
	return nil
}

// paperSimTrace is the traced run of the paper sweep: one untraced sweep
// and then traced sweeps, each experiment a span under its sweep's span.
func paperSimTrace(b *bench) (*result, error) {
	ps, _, err := paperSimSetUp()
	if err != nil {
		return nil, err
	}
	ms := perLayerSet()
	rng := rand.New(rand.NewSource(b.seed))
	var plain simTally
	p0 := time.Now()
	ps.sweep(rng, &plain)
	plainS := time.Since(p0).Seconds()

	log := &traceLog{t0: time.Now()}
	tr := newTracer(log.t0)
	var t simTally
	var sweepSum, spanSum float64
	sweeps := 0
	start := time.Now()
	for time.Since(start) < b.window()/2 || sweeps == 0 {
		root := tr.begin("paper-sim.sweep", -1, 0)
		var inner time.Duration
		cells := paperCells()
		for _, i := range rng.Perm(len(cells)) {
			name := "spmd.RunDirect"
			if cells[i].Mode == "virt" {
				name = "spmd.RunVirt"
			}
			sp := tr.begin(name, root, log.reqs.Add(1))
			o, err := runCell(ps.ws, cells[i])
			d := tr.end(sp)
			inner += d
			t.add(ps, o, err, d)
		}
		sweepSum += tr.end(root).Seconds()
		spanSum += inner.Seconds()
		sweeps++
	}
	log.merge(tr)
	perSweep := sweepSum / float64(sweeps)
	ms.set("spmd.virt_run_ms", "ms", median(t.byMode["virt"])/1e3)
	ms.set("spmd.direct_run_ms", "ms", median(t.byMode["direct"])/1e3)
	// Counts of one sweep: exact, and identical on every run.
	ms.set("spmd.kernels_run", "count", float64(t.counts.KernelsRun/sweeps))
	ms.set("spmd.context_switches", "count", float64(t.counts.ContextSwitches/sweeps))
	ms.set("spmd.flushes", "count", float64(t.counts.Flushes/sweeps))
	ms.set("spmd.stp_polls", "count", float64(t.counts.STPPolls/sweeps))
	ms.set("bench.trace_overhead_pct", "%", (perSweep-plainS)/plainS*100)
	// The experiment spans of a sweep must account for the sweep's wall
	// time: the gap is the harness's own work between runs.
	errPct := math.Abs(sweepSum-spanSum) / sweepSum * 100
	ms.set("bench.stage_sum_error_pct", "%", errPct)
	if errPct <= stageTolerancePct {
		ms.set("bench.stage_sum_ok", "count", 1)
	}
	path, err := log.write(filepath.Join(filepath.Dir(b.dirs.root), "traces"), fmt.Sprintf("paper-sim-seed%d", b.seed))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(log.spans), path)
	attempted, failed := plain.attempted+t.attempted, plain.failed+t.failed
	return traceResult(ms, attempted, failed, firstOf(plain.firstErr, t.firstErr)), nil
}
