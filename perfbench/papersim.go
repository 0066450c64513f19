package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"time"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/spmd"
	"gpuvirt/internal/workloads"
)

// paperMaxN is the paper node's core count, the largest SPMD process
// count of Figures 9 and 11-15.
const paperMaxN = 8

// simCell is one experiment of the paper sweep: a workload run at N
// processes in one mode, on the non-functional timing model.
type simCell struct {
	Workload string `json:"workload"`
	N        int    `json:"n"`
	Mode     string `json:"mode"` // "direct" or "virt"
}

// simOutcome is what the sweep checks for one cell: every simulated
// time in integer nanoseconds, and the device and manager counts. The
// model is deterministic, so each must match the reference exactly.
type simOutcome struct {
	simCell
	TurnaroundNS    int64   `json:"turnaround_ns"`
	PerProcessNS    []int64 `json:"per_process_ns"`
	KernelsRun      int     `json:"kernels_run"`
	ContextSwitches int     `json:"context_switches"`
	Flushes         int     `json:"flushes"`
	STPPolls        int     `json:"stp_polls"`
}

//go:embed papersim_ref.json
var paperSimRefJSON []byte

// paperWorkloads are the seven workloads of Figures 9 and 11-15 at their
// published sizes.
func paperWorkloads() map[string]workloads.Workload {
	ws := append([]workloads.Workload{workloads.PaperVectorAdd(), workloads.PaperEP()}, workloads.PaperApplications()...)
	m := map[string]workloads.Workload{}
	for _, w := range ws {
		m[w.Name] = w
	}
	return m
}

// paperCells lists the sweep in the paper's order.
func paperCells() []simCell {
	var out []simCell
	for _, name := range []string{"VectorAdd", "EP", "MM", "MG", "BlackScholes", "CG", "Electrostatics"} {
		for n := 1; n <= paperMaxN; n++ {
			out = append(out, simCell{name, n, "direct"}, simCell{name, n, "virt"})
		}
	}
	return out
}

// runCell runs one experiment as the paper's harness does
// (experiments.baseConfig: Tesla C2070, per-workload switch cost).
func runCell(ws map[string]workloads.Workload, c simCell) (simOutcome, error) {
	w, ok := ws[c.Workload]
	if !ok {
		return simOutcome{}, fmt.Errorf("unknown paper workload %q", c.Workload)
	}
	cfg := spmd.Config{Arch: fermi.TeslaC2070(), N: c.N, SpecFor: w.Spec, SwitchCost: w.SwitchCost}
	run := spmd.RunDirect
	if c.Mode == "virt" {
		run = spmd.RunVirt
	}
	r, err := run(cfg)
	if err != nil {
		return simOutcome{}, fmt.Errorf("%s N=%d %s: %w", c.Workload, c.N, c.Mode, err)
	}
	o := simOutcome{simCell: c, TurnaroundNS: int64(r.Turnaround), KernelsRun: r.KernelsRun,
		ContextSwitches: r.ContextSwitches, Flushes: r.Flushes, STPPolls: r.STPPolls}
	for _, d := range r.PerProcess {
		o.PerProcessNS = append(o.PerProcessNS, int64(d))
	}
	return o, nil
}

// paperSim is a loaded sweep: the workloads and the reference outcome of
// every cell.
type paperSim struct {
	ws  map[string]workloads.Workload
	ref map[simCell]simOutcome
}

// loadPaperSim builds the workloads, parses the stored reference table
// and proves it covers exactly the sweep's cells.
func loadPaperSim() (*paperSim, error) {
	var rows []simOutcome
	if err := json.Unmarshal(paperSimRefJSON, &rows); err != nil {
		return nil, fmt.Errorf("paper-sim reference table: %w", err)
	}
	ps := &paperSim{ws: paperWorkloads(), ref: map[simCell]simOutcome{}}
	for _, r := range rows {
		ps.ref[r.simCell] = r
	}
	cells := paperCells()
	if len(ps.ref) != len(cells) || len(rows) != len(cells) {
		return nil, fmt.Errorf("paper-sim reference table has %d rows, the sweep has %d cells", len(rows), len(cells))
	}
	for _, c := range cells {
		if _, ok := ps.ref[c]; !ok {
			return nil, fmt.Errorf("paper-sim reference table lacks %+v", c)
		}
	}
	return ps, nil
}

// check compares a cell's outcome with the reference, exactly.
func (ps *paperSim) check(o simOutcome) error {
	if want := ps.ref[o.simCell]; !reflect.DeepEqual(o, want) {
		return fmt.Errorf("%s N=%d %s: got %+v, reference %+v", o.Workload, o.N, o.Mode, o, want)
	}
	return nil
}

// writePaperSimRef regenerates the reference table. Run it only when a
// change to the model is meant to move the paper's numbers.
func writePaperSimRef(path string) error {
	ws := paperWorkloads()
	var rows []simOutcome
	for _, c := range paperCells() {
		o, err := runCell(ws, c)
		if err != nil {
			return err
		}
		rows = append(rows, o)
	}
	b, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// simTally accumulates a sweep's checked outcomes.
type simTally struct {
	attempted, failed int64
	firstErr          error
	byMode            map[string][]float64 // host time per experiment run, us
	processCycles     int64                // simulated SPMD process cycles (N per run)
	counts            simOutcome
}

func (t *simTally) add(ps *paperSim, o simOutcome, err error, host time.Duration) {
	t.attempted++
	if err == nil {
		err = ps.check(o)
	}
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	us := float64(host.Nanoseconds()) / 1e3
	if t.byMode == nil {
		t.byMode = map[string][]float64{}
	}
	t.byMode[o.Mode] = append(t.byMode[o.Mode], us)
	t.processCycles += int64(o.N)
	t.counts.KernelsRun += o.KernelsRun
	t.counts.ContextSwitches += o.ContextSwitches
	t.counts.Flushes += o.Flushes
	t.counts.STPPolls += o.STPPolls
}

// sweep runs every cell once in an order shuffled by rng, so a result
// that depended on which experiment ran before it would show as a
// mismatch.
func (ps *paperSim) sweep(rng *rand.Rand, t *simTally) {
	cells := paperCells()
	for _, i := range rng.Perm(len(cells)) {
		t0 := time.Now()
		o, err := runCell(ps.ws, cells[i])
		t.add(ps, o, err, time.Since(t0))
	}
}

// warmUp runs randomly chosen experiments, checked but untimed, for
// warmUp.
func (ps *paperSim) warmUp(rng *rand.Rand) simTally {
	var w simTally
	cells := paperCells()
	start := time.Now()
	for time.Since(start) < warmUp {
		o, err := runCell(ps.ws, cells[rng.Intn(len(cells))])
		w.add(ps, o, err, 0)
	}
	return w
}

// paperSimSetUp is the workload's set-up: build the workloads, load and
// validate the reference table, and run a verified N=1 warm-up of each
// workload in both modes.
func paperSimSetUp() (*paperSim, time.Duration, error) {
	t0 := time.Now()
	ps, err := loadPaperSim()
	if err != nil {
		return nil, 0, err
	}
	for _, c := range paperCells() {
		if c.N != 1 {
			continue
		}
		o, err := runCell(ps.ws, c)
		if err == nil {
			err = ps.check(o)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("warm-up: %w", err)
		}
	}
	return ps, time.Since(t0), nil
}

// paperSimRun is a timed run of the paper sweep: whole sweeps, each in a
// seeded order, for as long as another sweep fits the window. A "cycle"
// here is one simulated SPMD process-cycle (an experiment at N processes
// simulates N). Its host time is taken per sweep and the median over the
// sweeps reported: the median of the single experiments would jump
// between the few experiments near the middle of their skewed
// distribution.
func paperSimRun(b *bench) (*result, error) {
	var ps *paperSim
	var setups []float64
	for r := 0; r < setupReps; r++ {
		p, d, err := paperSimSetUp()
		if err != nil {
			return nil, err
		}
		ps = p
		setups = append(setups, d.Seconds())
	}
	rng := rand.New(rand.NewSource(b.seed))
	w := ps.warmUp(rng)
	var t simTally
	cpu0, err := selfCPUSeconds()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	var last time.Duration
	var perCycle []float64 // per sweep: host time per simulated process-cycle, us
	for time.Since(start)+last <= b.window() || t.attempted == 0 {
		s0, c0 := time.Now(), t.processCycles
		ps.sweep(rng, &t)
		last = time.Since(s0)
		perCycle = append(perCycle, float64(last.Nanoseconds())/1e3/float64(t.processCycles-c0))
	}
	elapsed := time.Since(start).Seconds()
	cpu1, err := selfCPUSeconds()
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	runs := float64(t.attempted)
	ms := metricSet{}
	ms.set("setup_s", "s", median(setups))
	ms.set("sim_runs_per_s", "1/s", runs/elapsed)
	ms.set("cycles_per_s", "1/s", float64(t.processCycles)/elapsed)
	ms.set("cycle_p50_us", "us", median(perCycle))
	ms.set("cpu_us_per_cycle", "us", (cpu1-cpu0)*1e6/runs)
	ms.set("max_rss_mb", "MB", rss)
	attempted, failed := w.attempted+t.attempted, w.failed+t.failed
	if err := firstOf(w.firstErr, t.firstErr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed experiment:", err)
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: ms}, nil
}

func firstOf(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// selfCPUSeconds is this process's user+system CPU time.
func selfCPUSeconds() (float64, error) {
	return procCPUSeconds(os.Getpid())
}
