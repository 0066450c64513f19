package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"time"

	"gpuvirt/internal/ipc"
	"gpuvirt/internal/workloads"
)

// setupReps is how many times a run sets its stack up from scratch;
// setup_s is their median, and the last set-up is the one measured.
const setupReps = 5

// warmUp is how long a run drives its workload, checked but untimed,
// before the window opens. On the 2-CPU reference host the first seconds
// of load run markedly slower (for ring-small the first 2-second stretch
// after start-up carried 35-60% fewer cycles than the rest); after 4
// seconds, 2-second stretches of one run agreed within about 10%.
const warmUp = 4 * time.Second

// refVirtualMS measures the simulated duration of one warm cycle of the
// workload on an idle shard, using an in-process server with the
// daemon's defaults on the workload's own transport (the data plane
// decides which staging copies the simulation charges). It is the
// reference every daemon cycle's virtual clock advance is checked
// against.
func refVirtualMS(b *bench, spec *daemonSpec, in []byte) (float64, error) {
	dir, err := b.dirs.next()
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	srv, err := ipc.NewServer(ipc.ServerConfig{
		Listen:     []string{refListen(spec.scheme, dir)},
		Functional: true,
		ShmDir:     filepath.Join(dir, "shm"),
	})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	c, err := ipc.Dial(srv.Addr(), filepath.Join(dir, "shm"))
	if err != nil {
		return 0, err
	}
	defer c.Close()
	s, err := c.Request(spec.ref0(), 0)
	if err != nil {
		return 0, err
	}
	defer s.Release()
	out := make([]byte, s.OutBytes())
	var dv float64
	for i := 0; i < 2; i++ {
		v0 := s.VirtualMS
		if err := s.RunCycle(in, out); err != nil {
			return 0, err
		}
		dv = s.VirtualMS - v0
	}
	return dv, nil
}

// refListen is an address of the given scheme for an in-process server
// whose socket, if any, lives in dir.
func refListen(scheme, dir string) string {
	if scheme == "tcp" {
		return "tcp://127.0.0.1:0"
	}
	return scheme + "://" + filepath.Join(dir, "ref.sock")
}

// daemonSnapshot is the counters read at a window edge: the daemons'
// CPU time and metrics, the clients' trip counters and, when tracing, the
// daemons' Go allocator statistics and this process's scheduling
// latency histogram.
type daemonSnapshot struct {
	at        time.Time
	cpu       float64 // summed user+sys seconds of every daemon process
	metrics   []promSamples
	trips     int64 // socket round trips over all clients
	ringTrips int64 // ring round trips over all sessions
	mallocs   float64
	numGC     float64
	sched     *metrics.Float64Histogram
}

func snapshot(st *stack, deep bool) (daemonSnapshot, error) {
	s := daemonSnapshot{at: time.Now()}
	for _, c := range st.clients {
		s.trips += c.RoundTrips()
	}
	for _, ss := range st.sess {
		s.ringTrips += ss.RingTrips()
	}
	for _, d := range st.daemons() {
		c, err := d.cpuSeconds()
		if err != nil {
			return s, err
		}
		s.cpu += c
		m, err := d.scrape()
		if err != nil {
			return s, err
		}
		s.metrics = append(s.metrics, m)
		if deep && d != st.fedd {
			m, g, err := d.memStats()
			if err != nil {
				return s, err
			}
			s.mallocs += m
			s.numGC += g
		}
	}
	if deep {
		sm := []metrics.Sample{{Name: "/sched/latencies:seconds"}}
		metrics.Read(sm)
		s.sched = sm[0].Value.Float64Histogram()
	}
	return s, nil
}

// delta sums a metric's change across every daemon between two
// snapshots.
func delta(before, after daemonSnapshot, name string, labels ...string) float64 {
	var d float64
	for i := range after.metrics {
		d += after.metrics[i].sum(name, labels...) - before.metrics[i].sum(name, labels...)
	}
	return d
}

// phase is the accounting of one measured stretch of a run.
type phase struct {
	cycles        int64
	before, after daemonSnapshot
}

func (p phase) seconds() float64 { return p.after.at.Sub(p.before.at).Seconds() }

// prepare generates the run's inputs and reference outputs and proves
// the checker catches a corrupted output before anything is measured.
func prepare(b *bench, spec *daemonSpec) (*checker, error) {
	refs, err := makeRefs(workloads.VectorAdd(spec.n), b.seed, sessions)
	if err != nil {
		return nil, err
	}
	chk := &checker{refs: refs, shared: !spec.fed}
	if chk.virtMS, err = refVirtualMS(b, spec, refs[0].in); err != nil {
		return nil, fmt.Errorf("reference virtual time: %w", err)
	}
	if err := chk.selfTest(); err != nil {
		return nil, err
	}
	return chk, nil
}

// setUp launches the workload's stack setupReps times, tearing down all
// but the last, and returns the last with the median set-up time.
func setUp(b *bench, spec *daemonSpec, chk *checker) (*stack, float64, error) {
	var times []float64
	for r := 0; ; r++ {
		st, d, err := launch(b, spec, chk)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
		if r == setupReps-1 {
			return st, median(times), nil
		}
		if err := st.teardown(); err != nil {
			return nil, 0, err
		}
	}
}

// rungResult summarizes one open-loop rung.
type rungResult struct {
	rateHz     float64
	done       int // cycles completed (ok or failed)
	failed     int
	carriedHz  float64
	p50, p99   float64 // latency from due time, us
	lag        []float64
	overloaded bool
	pass       bool
}

// runLadder drives every rung of the workload's ladder in turn, each
// rung starting once the previous one has drained.
func runLadder(b *bench, st *stack, chk *checker, window time.Duration) ([]rungResult, error) {
	spec := st.spec
	scheds := ladderSchedules(b.seed, spec.ladder, window)
	out := make([]rungResult, len(spec.ladder))
	for i, r := range spec.ladder {
		t0 := time.Now()
		rs, over := openLoop(st, chk, scheds[i], 10*spec.p99Limit)
		elapsed := time.Since(t0)
		rr := rungResult{rateHz: r.rateHz, overloaded: over}
		var lat []float64
		thirds := make([][]float64, 3)
		for k, x := range rs {
			if x.skipped {
				continue
			}
			us := float64(x.lat.Nanoseconds()) / 1e3
			lat = append(lat, us)
			t := 3 * k / len(rs)
			thirds[t] = append(thirds[t], us)
			rr.done++
			if !x.ok {
				rr.failed++
			}
			if x.idle {
				rr.lag = append(rr.lag, float64(x.lag.Nanoseconds())/1e3)
			}
		}
		// A rung that keeps up ends about when its schedule does; one that
		// falls behind takes longer, and carries less than it was offered.
		rr.carriedHz = float64(rr.done) / math.Max(r.share*window.Seconds(), elapsed.Seconds())
		rr.p50 = median(lat)
		rr.p99 = medianP99(thirds)
		rr.pass = !over && rr.failed == 0 && rr.done > 0 && rr.p99 <= float64(spec.p99Limit.Nanoseconds())/1e3
		out[i] = rr
	}
	return out, nil
}

// medianP99 is the median of the p99s of a stretch's three consecutive
// thirds (a rung, or a closed loop). One burst of host interference,
// which on a shared 2-CPU host can stall every process for tens of
// milliseconds, lifts the p99 of one third only.
func medianP99(parts [][]float64) float64 {
	var ps []float64
	for _, p := range parts {
		if len(p) > 0 {
			ps = append(ps, percentile(p, 0.99))
		}
	}
	return median(ps)
}

// maxRate is the carried rate of the highest rung that met the latency
// limit with no failures and no growing backlog.
func maxRate(rs []rungResult) float64 {
	var m float64
	for _, r := range rs {
		if r.pass {
			m = r.carriedHz
		}
	}
	return m
}

// daemonRun is a timed (untraced) run of a daemon workload.
func daemonRun(b *bench, spec *daemonSpec) (*result, error) {
	chk, err := prepare(b, spec)
	if err != nil {
		return nil, err
	}
	st, setupS, err := setUp(b, spec, chk)
	if err != nil {
		return nil, err
	}
	ms := metricSet{}
	closedLoop(st, chk, warmUp)
	_, err = closedPhase(st, chk, b.window(), false, ms)
	if terr := st.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}
	ms.set("setup_s", "s", setupS)
	if err := chk.err(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed cycle:", err)
	}
	return &result{
		Correct:   chk.failed.Load() == 0,
		Attempted: chk.attempted.Load(),
		Failed:    chk.failed.Load(),
		Metrics:   ms,
	}, nil
}

// measured is what a workload phase leaves for the per-layer metrics of
// a traced run: the closed loop's counters and tail, and the open-loop
// ladder's outcome.
type measured struct {
	main      phase
	closedP99 float64
	rungs     []rungResult
}

// closedPhase runs the workload closed loop on a live stack for window
// and sets the end-to-end metrics it yields. The per-layer counters come
// from the snapshots at its edges; deep also reads allocator and
// scheduler statistics there.
func closedPhase(st *stack, chk *checker, window time.Duration, deep bool, ms metricSet) (*measured, error) {
	before, err := snapshot(st, deep)
	if err != nil {
		return nil, err
	}
	samples := closedLoop(st, chk, window)
	after, err := snapshot(st, deep)
	if err != nil {
		return nil, err
	}
	var lat []float64
	thirds := make([][]float64, 3)
	third := window / 3
	for _, ss := range samples {
		for _, x := range ss {
			us := float64(x.lat.Nanoseconds()) / 1e3
			lat = append(lat, us)
			t := min(2, int(x.end/third))
			thirds[t] = append(thirds[t], us)
		}
	}
	m := &measured{main: phase{cycles: int64(len(lat)), before: before, after: after}, closedP99: medianP99(thirds)}
	if m.main.cycles == 0 {
		return nil, fmt.Errorf("no cycle completed in the closed loop")
	}
	secs := m.main.seconds()
	ms.set("cycles_per_s", "1/s", float64(m.main.cycles)/secs)
	ms.set("cycle_p50_us", "us", median(lat))
	ms.set("cpu_us_per_cycle", "us", (after.cpu-before.cpu)*1e6/float64(m.main.cycles))
	ms.set("sim_runs_per_s", "1/s", delta(before, after, "gvm_flushes_total")/secs)
	var rss float64
	for _, d := range st.daemons() {
		r, err := peakRSSMB(d.cmd.Process.Pid)
		if err != nil {
			return nil, err
		}
		rss += r
	}
	ms.set("max_rss_mb", "MB", rss)
	return m, nil
}
