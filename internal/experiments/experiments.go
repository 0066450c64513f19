// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI): Table II (micro-benchmark profiles), Figure 9
// (micro-benchmark turnaround curves), Table III (experimental vs
// theoretical speedups), Figure 10 (virtualization overheads), Table IV
// (application benchmark catalog), Figures 11-15 (per-application
// turnaround curves) and Figure 16 (application speedups at 8 processes).
//
// All experiments run on the deterministic simulator, so every number
// regenerates bit-identically. EXPERIMENTS.md records paper-vs-measured
// for each artifact.
package experiments

import (
	"fmt"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/model"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/spmd"
	"gpuvirt/internal/task"
	"gpuvirt/internal/workloads"
)

// MaxProcs is the node's CPU core count (dual quad-core Xeon X5560),
// which bounds Ntask under SPMD.
const MaxProcs = 8

// Arch returns the evaluation architecture (Tesla C2070).
func Arch() fermi.Arch { return fermi.TeslaC2070() }

// baseConfig builds the harness config for a workload.
func baseConfig(w workloads.Workload, n int) spmd.Config {
	return spmd.Config{
		Arch:       Arch(),
		N:          n,
		SpecFor:    w.Spec,
		SwitchCost: w.SwitchCost,
	}
}

// TurnaroundSeries is one workload's turnaround-vs-processes curve pair
// (the data behind Figures 9 and 11-15).
type TurnaroundSeries struct {
	Workload string
	N        []int
	VirtMS   []float64
	NoVirtMS []float64
}

// runSeries measures both modes for N = 1..maxN.
func runSeries(w workloads.Workload, maxN int) (TurnaroundSeries, error) {
	s := TurnaroundSeries{Workload: w.Name}
	for n := 1; n <= maxN; n++ {
		cfg := baseConfig(w, n)
		dres, err := spmd.RunDirect(cfg)
		if err != nil {
			return s, fmt.Errorf("%s direct N=%d: %w", w.Name, n, err)
		}
		vres, err := spmd.RunVirt(cfg)
		if err != nil {
			return s, fmt.Errorf("%s virt N=%d: %w", w.Name, n, err)
		}
		s.N = append(s.N, n)
		s.NoVirtMS = append(s.NoVirtMS, dres.Turnaround.Seconds()*1e3)
		s.VirtMS = append(s.VirtMS, vres.Turnaround.Seconds()*1e3)
	}
	return s, nil
}

// TableII profiles the two micro-benchmarks, reproducing the paper's
// Table II parameter extraction.
func TableII() ([]model.Params, error) {
	var rows []model.Params
	for _, w := range []workloads.Workload{workloads.PaperVectorAdd(), workloads.PaperEP()} {
		p, err := spmd.Profile(baseConfig(w, MaxProcs))
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", w.Name, err)
		}
		rows = append(rows, p)
	}
	return rows, nil
}

// Figure9 measures turnaround vs process count for the I/O-intensive
// (VectorAdd) and compute-intensive (EP) micro-benchmarks in both modes.
func Figure9() ([]TurnaroundSeries, error) {
	var out []TurnaroundSeries
	for _, w := range []workloads.Workload{workloads.PaperVectorAdd(), workloads.PaperEP()} {
		s, err := runSeries(w, MaxProcs)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// SpeedupRow is one line of Table III or Figure 16.
type SpeedupRow struct {
	Name         string
	Experimental float64
	Theoretical  float64 // equation (5); 0 when not reported
	Deviation    float64 // (theoretical - experimental) / experimental
}

// TableIII compares the measured 8-process speedup against the
// analytical model's equation (5) for both micro-benchmarks.
func TableIII() ([]SpeedupRow, error) {
	var rows []SpeedupRow
	for _, w := range []workloads.Workload{workloads.PaperVectorAdd(), workloads.PaperEP()} {
		cfg := baseConfig(w, MaxProcs)
		params, err := spmd.Profile(cfg)
		if err != nil {
			return nil, err
		}
		dres, err := spmd.RunDirect(cfg)
		if err != nil {
			return nil, err
		}
		vres, err := spmd.RunVirt(cfg)
		if err != nil {
			return nil, err
		}
		exp := dres.Turnaround.Seconds() / vres.Turnaround.Seconds()
		theo := params.Speedup()
		rows = append(rows, SpeedupRow{
			Name:         w.Name,
			Experimental: exp,
			Theoretical:  theo,
			Deviation:    model.Deviation(theo, exp),
		})
	}
	return rows, nil
}

// OverheadPoint is one data-size point of Figure 10.
type OverheadPoint struct {
	DataMB       int     // total data moved per cycle (in + out)
	TurnaroundMS float64 // single-process turnaround through the GVM
	PureGPUMS    float64 // time spent on the GPU in the base layer
	OverheadPct  float64
}

// Figure10 sweeps the vector-add data size and reports the
// virtualization overhead: the gap between single-process turnaround and
// the time spent in the base layer (staging + transfers + kernel), as
// the paper measures it.
func Figure10() ([]OverheadPoint, error) {
	var out []OverheadPoint
	// Vector sizes chosen so total data (2 inputs + 1 output per cycle)
	// sweeps ~25..400 MB, the paper's x-axis.
	for _, mb := range []int{25, 50, 100, 150, 200, 250, 300, 400} {
		elems := mb << 20 / 12 // 12 bytes moved per element
		w := workloads.VectorAdd(elems)
		cfg := baseConfig(w, 1)
		vres, err := spmd.RunVirt(cfg)
		if err != nil {
			return nil, err
		}
		pure, err := pureGPUTime(w)
		if err != nil {
			return nil, err
		}
		turn := vres.Turnaround.Seconds() * 1e3
		pureMS := pure.Seconds() * 1e3
		out = append(out, OverheadPoint{
			DataMB:       mb,
			TurnaroundMS: turn,
			PureGPUMS:    pureMS,
			OverheadPct:  (turn - pureMS) / pureMS * 100,
		})
	}
	return out, nil
}

// pureGPUTime measures the base-layer execution time of one task cycle:
// the staging copies into/out of pinned memory plus the pinned transfers
// and the kernel, with no protocol or client copies.
func pureGPUTime(w workloads.Workload) (sim.Duration, error) {
	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpusim.New(env, gpusim.Config{Arch: Arch()})
	if err != nil {
		return 0, err
	}
	spec := w.Spec(0)
	var total sim.Duration
	var runErr error
	env.Go("pure", func(p *sim.Proc) {
		ctx := dev.CreateContext(p)
		ctx.Acquire(p)
		defer ctx.Release()
		devIn := ctx.MustMalloc(max64(spec.InBytes, 1))
		devOut := ctx.MustMalloc(max64(spec.OutBytes, 1))
		pinIn := dev.AllocHost(max64(spec.InBytes, 1), true)
		pinOut := dev.AllocHost(max64(spec.OutBytes, 1), true)
		var scratch []cuda.DevPtr
		ks, err := spec.Build(&task.Buffers{In: devIn, Out: devOut, Alloc: ctx, Scratch: &scratch})
		if err != nil {
			runErr = err
			return
		}
		start := p.Now()
		// Staging copies (shm <-> pinned) are part of the base layer.
		p.Sleep(hostCopy(spec.InBytes))
		if spec.InBytes > 0 {
			ctx.MemcpyH2D(p, devIn, pinIn, spec.InBytes)
		}
		for _, k := range ks {
			if err := ctx.Launch(p, k); err != nil {
				runErr = err
				return
			}
		}
		if spec.OutBytes > 0 {
			ctx.MemcpyD2H(p, pinOut, devOut, spec.OutBytes)
		}
		p.Sleep(hostCopy(spec.OutBytes))
		total = p.Now().Sub(start)
	})
	if err := env.Run(); err != nil {
		return 0, err
	}
	return total, runErr
}

func hostCopy(n int64) sim.Duration {
	if n <= 0 {
		return 0
	}
	return sim.Duration(float64(n) / 24e9 * 1e9)
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// AppRow is one line of Table IV, extended with the measured
// compute-to-I/O ratio backing the classification.
type AppRow struct {
	Name        string
	ProblemSize string
	GridSize    int
	Class       workloads.Class
	CompIORatio float64 // measured Tcomp / (Tin + Tout)
	CycleMS     float64 // measured Tin + Tcomp + Tout
}

// TableIV catalogs the five application benchmarks with their measured
// profiles.
func TableIV() ([]AppRow, error) {
	var rows []AppRow
	for _, w := range workloads.PaperApplications() {
		p, err := spmd.Profile(baseConfig(w, MaxProcs))
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", w.Name, err)
		}
		io := p.TdataIn + p.TdataOut
		ratio := 0.0
		if io > 0 {
			ratio = float64(p.Tcomp) / float64(io)
		}
		rows = append(rows, AppRow{
			Name:        w.Name,
			ProblemSize: w.ProblemSize,
			GridSize:    w.GridSize,
			Class:       w.Class,
			CompIORatio: ratio,
			CycleMS:     p.CycleTime().Seconds() * 1e3,
		})
	}
	return rows, nil
}

// Figures11to15 measures the five applications' turnaround curves.
func Figures11to15() ([]TurnaroundSeries, error) {
	var out []TurnaroundSeries
	for _, w := range workloads.PaperApplications() {
		s, err := runSeries(w, MaxProcs)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// Figure16 reports each application's speedup with 8 processes.
func Figure16() ([]SpeedupRow, error) {
	var rows []SpeedupRow
	for _, w := range workloads.PaperApplications() {
		cfg := baseConfig(w, MaxProcs)
		dres, err := spmd.RunDirect(cfg)
		if err != nil {
			return nil, err
		}
		vres, err := spmd.RunVirt(cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SpeedupRow{
			Name:         w.Name,
			Experimental: dres.Turnaround.Seconds() / vres.Turnaround.Seconds(),
		})
	}
	return rows, nil
}
