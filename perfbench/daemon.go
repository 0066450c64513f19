package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gpuvirt/internal/ipc"
	"gpuvirt/internal/workloads"
)

// daemonSpec is one workload that drives the real daemon stack. A timed
// run measures it closed loop; the traced run adds its open-loop rate
// ladder.
type daemonSpec struct {
	name   string
	n      int    // vecadd elements per session (8n bytes in, 4n out)
	scheme string // transport the front daemon listens on
	fed    bool   // gvmfed in front of two gvmd nodes
	// ladder is the workload's fixed set of offered open-loop rates,
	// ascending, each with its share of the ladder's window. The top rung
	// lies well above the host's capacity, so it always fails; ref indexes
	// the rung whose latency the trace reports.
	ladder []rung
	ref    int
	// p99Limit is the latency limit a rung's p99 must meet to count
	// towards max_rate_hz.
	p99Limit time.Duration
}

// sessions is the number of sessions, client connections and
// cycle-issuing goroutines on every daemon workload: one per CPU of the
// 2-CPU reference host, so the load generator never has more runnable
// issuers than there are cores.
const sessions = 2

var daemonSpecs = map[string]*daemonSpec{
	"ring-small": {
		name: "ring-small", n: 1024, scheme: "ring",
		ladder:   []rung{{5000, 0.3}, {15000, 0.4}, {120000, 0.3}},
		ref:      1,
		p99Limit: 20 * time.Millisecond,
	},
	"fed-open": {
		name: "fed-open", n: 1024, scheme: "tcp", fed: true,
		ladder:   []rung{{1000, 0.15}, {3000, 0.4}, {6000, 0.3}, {16000, 0.15}},
		ref:      1,
		p99Limit: 20 * time.Millisecond,
	},
}

func (s *daemonSpec) ref0() workloads.Ref {
	return workloads.Ref{Name: "vecadd", Params: map[string]int{"n": s.n}}
}

// stack is one live deployment of a workload: its daemon processes, run
// directory and open sessions.
type stack struct {
	spec    *daemonSpec
	dir     string
	shmDir  string
	nodes   []*daemon // gvmd processes
	fedd    *daemon   // gvmfed, when the workload is federated
	clients []*ipc.Client
	sess    []*ipc.Session
	reqUS   []float64 // REQ round trips, including placement
}

func (st *stack) daemons() []*daemon {
	ds := append([]*daemon(nil), st.nodes...)
	if st.fedd != nil {
		ds = append(ds, st.fedd)
	}
	return ds
}

// runDirs hands out fresh run directories under the benchmark's work
// area inside the checkout. Unix socket paths are kept relative (the
// daemons inherit the benchmark's working directory) because absolute
// checkout paths can exceed the 107-byte sun_path limit.
type runDirs struct {
	root string
	n    int
}

func (r *runDirs) next() (string, error) {
	r.n++
	dir := filepath.Join(r.root, strconv.Itoa(r.n))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	if err := os.MkdirAll(filepath.Join(dir, "shm"), 0o755); err != nil {
		return "", err
	}
	return dir, nil
}

// launch starts the workload's daemons in a fresh directory, opens every
// session and runs one verified warm-up cycle on each. The returned
// duration is the set-up time the workload reports.
func launch(b *bench, spec *daemonSpec, chk *checker) (*stack, time.Duration, error) {
	dir, err := b.dirs.next()
	if err != nil {
		return nil, 0, err
	}
	st := &stack{spec: spec, dir: dir, shmDir: filepath.Join(dir, "shm")}
	t0 := time.Now()
	nodes := 1
	if spec.fed {
		nodes = 2
	}
	for i := 0; i < nodes; i++ {
		addrFile := filepath.Join(dir, fmt.Sprintf("gvmd%d.addr", i))
		listen := spec.scheme + "://" + filepath.Join(dir, fmt.Sprintf("gvmd%d.sock", i))
		if spec.scheme == "tcp" {
			listen = "tcp://127.0.0.1:0"
		}
		d, err := startDaemon(fmt.Sprintf("gvmd%d", i), b.bin("gvmd"), addrFile,
			filepath.Join(dir, fmt.Sprintf("gvmd%d.log", i)),
			"-listen", listen, "-shm", st.shmDir, "-metrics", "127.0.0.1:0", "-addr-file", addrFile)
		if err != nil {
			st.teardown()
			return nil, 0, err
		}
		st.nodes = append(st.nodes, d)
	}
	front := st.nodes[0]
	if spec.fed {
		addrFile := filepath.Join(dir, "gvmfed.addr")
		args := []string{"-listen", "tcp://127.0.0.1:0", "-placement", "least-sessions",
			"-metrics", "127.0.0.1:0", "-addr-file", addrFile}
		for _, n := range st.nodes {
			args = append(args, "-backend-file", n.addrFile)
		}
		d, err := startDaemon("gvmfed", b.bin("gvmfed"), addrFile, filepath.Join(dir, "gvmfed.log"), args...)
		if err != nil {
			st.teardown()
			return nil, 0, err
		}
		st.fedd = d
		front = d
	}
	for i := 0; i < sessions; i++ {
		c, err := ipc.Dial(front.addr, st.shmDir)
		if err != nil {
			st.teardown()
			return nil, 0, err
		}
		st.clients = append(st.clients, c)
		r0 := time.Now()
		s, err := c.Request(spec.ref0(), i)
		if err != nil {
			st.teardown()
			return nil, 0, fmt.Errorf("REQ session %d: %w", i, err)
		}
		st.reqUS = append(st.reqUS, float64(time.Since(r0).Nanoseconds())/1e3)
		st.sess = append(st.sess, s)
	}
	out := make([]byte, st.sess[0].OutBytes())
	for i, s := range st.sess {
		err := s.RunCycle(chk.refs[i].in, out)
		if !chk.cycle(i, out, math.NaN(), err) {
			st.teardown()
			return nil, 0, fmt.Errorf("warm-up cycle on session %d failed: %v", i, chk.err())
		}
	}
	return st, time.Since(t0), nil
}

// teardown releases every session, closes the connections, stops the
// daemons (SIGTERM, then wait) and asserts nothing was left behind.
func (st *stack) teardown() error {
	var errs []error
	for _, s := range st.sess {
		if err := s.Release(); err != nil {
			errs = append(errs, fmt.Errorf("release session %d: %w", s.ID(), err))
		}
	}
	for _, c := range st.clients {
		c.Close()
	}
	// The router first, so it does not see its backends vanish.
	if st.fedd != nil {
		if err := st.fedd.stop(); err != nil {
			errs = append(errs, fmt.Errorf("gvmfed exit: %w", err))
		}
	}
	for _, d := range st.nodes {
		if err := d.stop(); err != nil {
			errs = append(errs, fmt.Errorf("%s exit: %w", d.name, err))
		}
	}
	if err := leakCheck(st.dir, st.daemons()); err != nil {
		errs = append(errs, err)
	}
	if len(errs) == 0 {
		errs = append(errs, os.RemoveAll(st.dir))
	}
	return errors.Join(errs...)
}

// cycleSample is one completed cycle: when it ended (since the start of
// the window) and how long it took.
type cycleSample struct {
	end, lat time.Duration
}

// closedLoop runs one goroutine per session, each issuing pipelined
// cycles back to back until the window closes, and checks every output.
func closedLoop(st *stack, chk *checker, window time.Duration) [][]cycleSample {
	out := make([][]cycleSample, len(st.sess))
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(window)
	for i := range st.sess {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := st.sess[i]
			buf := make([]byte, s.OutBytes())
			samples := make([]cycleSample, 0, 1<<16)
			in := chk.refs[i].in
			for {
				t0 := time.Now()
				if !t0.Before(stop) {
					break
				}
				v0 := s.VirtualMS
				err := s.RunCycle(in, buf)
				t1 := time.Now()
				chk.cycle(i, buf, s.VirtualMS-v0, err)
				samples = append(samples, cycleSample{end: t1.Sub(start), lat: t1.Sub(t0)})
			}
			out[i] = samples
		}(i)
	}
	wg.Wait()
	return out
}

// openResult is the outcome of one scheduled arrival.
type openResult struct {
	lat     time.Duration // completion minus due time
	lag     time.Duration // how late an idle issuer started it
	idle    bool          // an issuer was waiting when it fell due
	ok      bool          // the cycle succeeded and its output checked
	skipped bool          // dropped because its rung was already overloaded
}

// openLoop issues one rung's scheduled arrivals with at most one cycle in
// flight per session. Arrivals that fall due while both sessions are
// busy queue client-side and are timed from their due time. Once an
// arrival has queued longer than abortAfter the backlog is growing
// without bound: the rung is overloaded, and its remaining arrivals are
// skipped (not attempted) so that it cannot eat the rest of the window.
func openLoop(st *stack, chk *checker, sched []time.Duration, abortAfter time.Duration) (res []openResult, overloaded bool) {
	res = make([]openResult, len(sched))
	var next atomic.Int64
	var over atomic.Bool
	var wg sync.WaitGroup
	start := time.Now()
	for i := range st.sess {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := st.sess[i]
			buf := make([]byte, s.OutBytes())
			in := chk.refs[i].in
			for {
				k := int(next.Add(1) - 1)
				if k >= len(sched) {
					return
				}
				r := &res[k]
				if over.Load() {
					r.skipped = true
					continue
				}
				due := start.Add(sched[k])
				if now := time.Now(); now.Before(due) {
					r.idle = true
					sleepUntil(due)
					r.lag = time.Since(due)
				} else if now.Sub(due) > abortAfter {
					over.Store(true)
				}
				v0 := s.VirtualMS
				err := s.RunCycle(in, buf)
				r.lat = time.Since(due)
				r.ok = chk.cycle(i, buf, s.VirtualMS-v0, err)
			}
		}(i)
	}
	wg.Wait()
	return res, over.Load()
}

// sleepUntil blocks until t. The Go timer rounds sub-millisecond waits up
// to the netpoller's millisecond tick, which would make the open-loop
// generator run hundreds of microseconds late; nanosleep in short chunks
// keeps it within tens of microseconds. Waits longer than coarse use the
// runtime timer for all but the last stretch.
func sleepUntil(t time.Time) {
	const coarse, chunk = 3 * time.Millisecond, 50 * time.Microsecond
	if d := time.Until(t); d > coarse {
		time.Sleep(d - coarse)
	}
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		if d > chunk {
			d = chunk
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an early wake-up just loops
	}
}
