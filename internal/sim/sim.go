// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine.
//
// The engine drives a virtual clock. Work is expressed either as timer
// callbacks (At/After, or a re-armable Timer) or as processes: ordinary
// functions running as coroutines that may block on virtual time (Sleep),
// on events (Wait), on resources, stores and barriers. At any instant
// exactly one of them — the scheduler or a single resumed process —
// executes, and control passes between them by a direct coroutine switch,
// so simulations are fully deterministic and need no locking of
// simulation state.
//
// Ties in the event calendar are broken by schedule order (FIFO), which
// keeps multi-process interleavings stable across runs.
//
// A process body that panics, or exits through runtime.Goexit (for
// example t.Fatal in a test), does not strand the simulation: the panic
// is re-raised, or the Goexit repeated, in the goroutine that called Run
// or RunUntil, at the point where the scheduler resumed the process.
// After that the environment is only good for Close.
package sim

import (
	"errors"
	"fmt"
	"time"
)

// Time is an instant of virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is re-exported from package time for convenience; virtual
// durations use the same unit (nanoseconds) as wall-clock durations.
type Duration = time.Duration

// Common durations, re-exported so callers need not import time.
const (
	Nanosecond  Duration = time.Nanosecond
	Microsecond Duration = time.Microsecond
	Millisecond Duration = time.Millisecond
	Second      Duration = time.Second
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Milliseconds returns t as a floating-point number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// String formats the instant as a duration since simulation start.
func (t Time) String() string { return Duration(t).String() }

// item is a calendar entry: at time at (seq breaking ties), run fn. Items
// are stored by value in the heap slice, so scheduling a future event costs
// no per-event allocation once the slice's capacity has warmed up.
type item struct {
	at  Time
	seq uint64
	fn  func()
	// tm is the Timer this entry belongs to, nil for At/After entries.
	// The heap keeps tm.idx equal to the entry's slot so Reset and Stop
	// can find it.
	tm *Timer
}

func (it item) less(o item) bool {
	if it.at != o.at {
		return it.at < o.at
	}
	return it.seq < o.seq
}

// Env is a simulation environment: a virtual clock plus an event calendar.
// The zero value is not usable; construct with NewEnv.
//
// The calendar is split in two: a value-based binary heap for future
// instants, and a flat FIFO (nowQ) for events scheduled at the current
// instant. Same-instant scheduling — process resume, unblock, Go, event
// fan-out — dominates the engine's hot path, and the FIFO turns each such
// event into one slice append against pooled capacity instead of a heap
// push. Ordering is preserved: heap entries due at the current instant were
// scheduled before the clock reached it, so they always precede nowQ
// entries, and nowQ itself is FIFO by construction.
type Env struct {
	now     Time
	cal     []item // future events, min-heap on (at, seq)
	nowQ    []func()
	nowHead int
	seq     uint64
	blocked int     // processes alive but waiting on something other than time
	live    []*Proc // processes spawned and not yet exited, for Close
	running bool
}

// up moves entry it, destined for heap slot i, toward the root until its
// parent precedes it, and stores it there. Every entry it passes moves
// down one level; timer entries get their new slot recorded.
func (e *Env) up(i int, it item) {
	cal := e.cal
	for i > 0 {
		parent := (i - 1) / 2
		p := cal[parent]
		if !it.less(p) {
			break
		}
		cal[i] = p
		if p.tm != nil {
			p.tm.idx = i
		}
		i = parent
	}
	cal[i] = it
	if it.tm != nil {
		it.tm.idx = i
	}
}

// down moves entry it, destined for heap slot i, toward the leaves until
// it precedes its children, stores it there, and reports whether it moved.
func (e *Env) down(i int, it item) bool {
	cal := e.cal
	n := len(cal)
	i0 := i
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && cal[r].less(cal[l]) {
			m = r
		}
		c := cal[m]
		if !c.less(it) {
			break
		}
		cal[i] = c
		if c.tm != nil {
			c.tm.idx = i
		}
		i = m
	}
	cal[i] = it
	if it.tm != nil {
		it.tm.idx = i
	}
	return i != i0
}

// fix restores heap order after slot i's entry was replaced by it.
func (e *Env) fix(i int, it item) {
	if !e.down(i, it) && i > 0 {
		e.up(i, it)
	}
}

// pushCal inserts a future entry into the heap.
func (e *Env) pushCal(it item) {
	e.cal = append(e.cal, it)
	e.up(len(e.cal)-1, it)
}

// removeCal deletes heap slot i, clearing the vacated slot so the closure
// can be collected.
func (e *Env) removeCal(i int) {
	if tm := e.cal[i].tm; tm != nil {
		tm.idx = -1
	}
	n := len(e.cal) - 1
	last := e.cal[n]
	e.cal[n] = item{}
	e.cal = e.cal[:n]
	if i < n {
		e.fix(i, last)
	}
}

// NewEnv returns an empty simulation environment at time zero.
func NewEnv() *Env {
	return &Env{}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// schedule enters fn into the calendar at instant at. Instants at or before
// the current time take the same-instant FIFO fast path.
func (e *Env) schedule(at Time, fn func()) {
	if at <= e.now {
		e.nowQ = append(e.nowQ, fn)
		return
	}
	e.seq++
	e.pushCal(item{at: at, seq: e.seq, fn: fn})
}

// At schedules fn to run at the given virtual instant (or now, if the
// instant is in the past). fn runs on the scheduler goroutine.
func (e *Env) At(at Time, fn func()) { e.schedule(at, fn) }

// After schedules fn to run d from now.
func (e *Env) After(d Duration, fn func()) { e.schedule(e.now.Add(d), fn) }

// Timer is a re-armable calendar entry bound to one callback. Unlike
// At/After, which enter a new entry on every call, a Timer owns at most one
// pending entry: Reset moves it in place and Stop removes it, so an owner
// that keeps re-arming one deadline leaves no dead entries behind and
// allocates nothing after NewTimer.
//
// Reset orders exactly like scheduling a fresh At(at, fn) and discarding
// the previous one: the entry takes a new schedule sequence number, so it
// runs after everything already scheduled for the same instant.
type Timer struct {
	env *Env
	fn  func()
	// idx is the entry's heap slot, or -1; nowIdx is its nowQ slot when
	// armed for the current instant, or -1. At most one is set.
	idx    int
	nowIdx int
	// runNow is the nowQ entry for a same-instant arm, bound once.
	runNow func()
}

// NewTimer returns a stopped timer that runs fn (on the scheduler
// goroutine) each time it fires.
func (e *Env) NewTimer(fn func()) *Timer {
	t := &Timer{env: e, fn: fn, idx: -1, nowIdx: -1}
	t.runNow = func() {
		t.nowIdx = -1
		t.fn()
	}
	return t
}

// Reset arms the timer to fire at instant at (or now, if the instant is in
// the past), replacing any pending firing.
func (t *Timer) Reset(at Time) {
	e := t.env
	if at <= e.now {
		t.Stop()
		t.nowIdx = len(e.nowQ)
		e.nowQ = append(e.nowQ, t.runNow)
		return
	}
	e.seq++
	if t.idx >= 0 {
		it := e.cal[t.idx]
		it.at, it.seq = at, e.seq
		e.fix(t.idx, it)
		return
	}
	t.Stop()
	e.pushCal(item{at: at, seq: e.seq, fn: t.fn, tm: t})
}

// Stop cancels the pending firing, if any.
func (t *Timer) Stop() {
	if t.idx >= 0 {
		t.env.removeCal(t.idx)
	}
	if t.nowIdx >= 0 {
		t.env.nowQ[t.nowIdx] = nil
		t.nowIdx = -1
	}
}

// Proc is a simulation process: user code running as a coroutine, resumed
// by the scheduler one at a time.
type Proc struct {
	env    *Env
	name   string
	daemon bool
	// resume switches to the process until it parks or exits. It is bound
	// once at spawn, so the hot path (Sleep, WaitUntil, unblock) enters the
	// calendar without allocating a fresh closure.
	resume func()
	// yield parks the process, switching back to the scheduler; it
	// returns false when Close is unwinding the process.
	yield func(struct{}) bool
	// stop unwinds the parked process (Close).
	stop func()
	slot int // index in env.live, or -1 once exited
}

// Daemonize marks the process as a daemon: a daemon blocked on a condition
// does not count toward deadlock detection, so service loops (e.g. queue
// consumers) may outlive the simulation without erroring Run.
func (p *Proc) Daemonize() { p.daemon = true }

// Env returns the environment the process runs in.
func (p *Proc) Env() *Env { return p.env }

// Name returns the process name given at spawn time.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.env.now }

// Go spawns a new process running fn, starting at the current instant
// (after already-scheduled events at this instant).
func (e *Env) Go(name string, fn func(p *Proc)) *Proc {
	p := &Proc{env: e, name: name, slot: len(e.live)}
	e.live = append(e.live, p)
	p.start(fn)
	e.schedule(e.now, p.resume)
	return p
}

// exited removes p from the live set.
func (e *Env) exited(p *Proc) {
	if p.slot < 0 {
		return
	}
	n := len(e.live) - 1
	last := e.live[n]
	e.live[p.slot], last.slot = last, p.slot
	e.live[n] = nil
	e.live = e.live[:n]
	p.slot = -1
}

// errClosed is the panic that unwinds a process parked when Close runs.
var errClosed = errors.New("sim: environment closed")

// park suspends the calling process, returning control to the scheduler,
// until a calendar entry runs p.resume.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(errClosed)
	}
}

// Close ends every process that has not exited: processes parked on time
// or on a condition, daemons waiting for work, and processes spawned but
// never started. A parked process unwinds from the call that parked it,
// running its deferred calls, and an unstarted one never runs. A
// simulation that leaves processes parked when Run returns should Close
// its environment, or each parked process keeps its coroutine and
// everything it references alive. Close must not be called during Run.
func (e *Env) Close() {
	if e.running {
		panic("sim: Close called during Run")
	}
	for n := len(e.live); n > 0; n = len(e.live) {
		p := e.live[n-1]
		e.exited(p)
		p.stop()
	}
}

// Sleep suspends the process for virtual duration d (non-negative).
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.WaitUntil(p.env.now.Add(d))
}

// WaitUntil suspends the process until virtual instant t.
func (p *Proc) WaitUntil(t Time) {
	p.env.schedule(t, p.resume)
	p.park()
}

// Yield reschedules the process after all events already pending at the
// current instant.
func (p *Proc) Yield() { p.WaitUntil(p.env.now) }

// block marks the process as blocked on a non-time condition and parks.
// resume must eventually be arranged by the condition's owner.
func (p *Proc) block() {
	if p.daemon {
		p.park()
		return
	}
	p.env.blocked++
	p.park()
	p.env.blocked--
}

// unblock schedules p to resume at the current instant.
func (e *Env) unblock(p *Proc) {
	e.schedule(e.now, p.resume)
}

// Run executes calendar entries in time order until the calendar is empty.
// It returns an error if processes remain blocked on conditions that can
// never fire (deadlock).
func (e *Env) Run() error { return e.RunUntil(Time(1<<62 - 1)) }

// RunUntil executes calendar entries in time order until the calendar is
// empty or the next entry is later than horizon. The clock never advances
// past horizon.
func (e *Env) RunUntil(horizon Time) error {
	if e.running {
		return fmt.Errorf("sim: Run called re-entrantly")
	}
	e.running = true
	defer func() { e.running = false }()
	for {
		// Heap entries due now were scheduled before the clock reached this
		// instant, so they precede everything queued in nowQ.
		for len(e.cal) > 0 && e.cal[0].at <= e.now {
			fn := e.cal[0].fn
			e.removeCal(0)
			fn()
		}
		// Drain the same-instant FIFO with a cursor: callbacks may append
		// more same-instant work, which runs in this same pass in FIFO
		// order. Slots are cleared as they run so closures don't linger;
		// a nil slot is a stopped Timer.
		for e.nowHead < len(e.nowQ) {
			fn := e.nowQ[e.nowHead]
			e.nowQ[e.nowHead] = nil
			e.nowHead++
			if fn != nil {
				fn()
			}
		}
		e.nowQ = e.nowQ[:0]
		e.nowHead = 0
		if len(e.cal) == 0 {
			break
		}
		if next := e.cal[0].at; next > horizon {
			e.now = horizon
			return nil
		} else {
			e.now = next
		}
	}
	if e.blocked > 0 {
		return fmt.Errorf("sim: deadlock: %d process(es) blocked with empty calendar at %v", e.blocked, e.now)
	}
	return nil
}

// Event is a one-shot condition processes can wait on. Once fired it stays
// fired; waiters arriving later proceed immediately. An optional value can
// be attached at fire time.
type Event struct {
	env     *Env
	fired   bool
	val     any
	waiters []*Proc
	cbs     []func(any)
}

// NewEvent returns a fresh unfired event.
func (e *Env) NewEvent() *Event { return &Event{env: e} }

// Fired reports whether the event has fired.
func (ev *Event) Fired() bool { return ev.fired }

// Value returns the value the event fired with (nil before firing).
func (ev *Event) Value() any { return ev.val }

// Fire fires the event with value v, waking all waiters at the current
// instant in FIFO order. Firing an already-fired event is a no-op.
func (ev *Event) Fire(v any) {
	if ev.fired {
		return
	}
	ev.fired = true
	ev.val = v
	// Nothing re-registers on a fired event (Wait and OnFire both take
	// the already-fired fast path), so the slices can be truncated in
	// place: the backing arrays survive for the next use after Reset,
	// keeping repeated block/wake cycles allocation-free.
	for i, p := range ev.waiters {
		ev.env.unblock(p)
		ev.waiters[i] = nil
	}
	ev.waiters = ev.waiters[:0]
	for i, cb := range ev.cbs {
		if cb != nil { // detached (e.g. a WaitAny loser)
			cb(v)
		}
		ev.cbs[i] = nil
	}
	ev.cbs = ev.cbs[:0]
}

// Reset returns a fired event to the unfired state so its owner can
// arm it again, avoiding one Event allocation per blocking operation.
// Only the sole consumer of the previous firing may call it (e.g. a
// Store getter recycling its waiter): anyone still holding the event
// would otherwise see it spuriously unfired.
func (ev *Event) Reset() {
	ev.fired = false
	ev.val = nil
}

// OnFire registers a callback run (on the scheduler goroutine) when the
// event fires; if already fired the callback runs immediately.
func (ev *Event) OnFire(cb func(v any)) {
	if ev.fired {
		cb(ev.val)
		return
	}
	ev.cbs = append(ev.cbs, cb)
}

// Wait suspends the process until the event fires and returns the event's
// value. Returns immediately if already fired.
func (p *Proc) Wait(ev *Event) any {
	if ev.fired {
		return ev.val
	}
	ev.waiters = append(ev.waiters, p)
	p.block()
	return ev.val
}

// WaitAll suspends the process until every given event has fired.
func (p *Proc) WaitAll(evs ...*Event) {
	for _, ev := range evs {
		p.Wait(ev)
	}
}

// WaitAny suspends the process until at least one of the events has fired,
// and returns the index of the earliest-fired event among them. Once the
// winner fires, the callbacks registered on the losing events are detached,
// so long-lived events do not accumulate dead closures from repeated
// WaitAny calls.
func (p *Proc) WaitAny(evs ...*Event) int {
	for i, ev := range evs {
		if ev.fired {
			return i
		}
	}
	done := p.env.NewEvent()
	ids := make([]int, len(evs))
	for i, ev := range evs {
		i := i
		ids[i] = len(ev.cbs)
		ev.cbs = append(ev.cbs, func(any) { done.Fire(i) })
	}
	idx := p.Wait(done).(int)
	for i, ev := range evs {
		if i != idx && !ev.fired && ids[i] < len(ev.cbs) {
			ev.cbs[ids[i]] = nil
		}
	}
	return idx
}
