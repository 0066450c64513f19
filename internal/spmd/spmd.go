// Package spmd is the experiment harness: it launches N identical SPMD
// processes against a simulated GPU node, in either the conventional
// direct-sharing mode or through the virtualization infrastructure, and
// measures process turnaround time — the time for all processes to finish
// after starting simultaneously, the paper's primary metric (Section VI).
package spmd

import (
	"fmt"

	"gpuvirt/internal/direct"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/gvm"
	"gpuvirt/internal/model"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
	"gpuvirt/internal/trace"
	"gpuvirt/internal/vgpu"
)

// Config describes one SPMD experiment run.
type Config struct {
	Arch       fermi.Arch
	N          int // number of SPMD processes (<= CPU cores per node)
	Cycles     int // GPU execution cycles per process (default 1)
	Functional bool
	// ExecWorkers sizes the functional-execution worker pool
	// (gpusim.Config.ExecWorkers): 0 = GOMAXPROCS, 1 = serial.
	ExecWorkers int

	// SpecFor returns process i's task description. All processes run
	// the same program under SPMD; the spec may still differ per rank
	// (e.g. different data).
	SpecFor func(i int) *task.Spec

	// SwitchCost overrides the context-switch cost for the workload
	// (paper Table II profiles it per benchmark). 0 uses the arch value.
	SwitchCost sim.Duration

	// FillInput and CheckOutput are functional-mode hooks, called with
	// process i's staged input/output bytes.
	FillInput   func(i int, buf []byte)
	CheckOutput func(i int, buf []byte) error

	// Virtualization-layer knobs (ignored by RunDirect).
	HostCopyBW      float64
	MsgLatency      sim.Duration
	BlockingSTP     bool
	PageableStaging bool
	// PartiesOverride changes the STR barrier width from its default of
	// N (all processes flush together). 1 disables barrier batching —
	// the ablation of the paper's synchronized-flush design.
	PartiesOverride int
	// FlushPolicy orders sessions within a barrier batch (extension).
	FlushPolicy gvm.FlushPolicy

	Tracer *trace.Tracer
}

func (c Config) withDefaults() Config {
	if c.Cycles == 0 {
		c.Cycles = 1
	}
	return c
}

// Result is one experiment run's outcome.
type Result struct {
	Mode       string
	N          int
	Turnaround sim.Duration   // max process completion since simultaneous start
	PerProcess []sim.Duration // each process's completion time
	// Device/manager statistics.
	ContextSwitches int
	KernelsRun      int
	Flushes         int
	STPPolls        int
}

func (r Result) String() string {
	return fmt.Sprintf("%s N=%d turnaround=%.3f ms", r.Mode, r.N, r.Turnaround.Seconds()*1e3)
}

// RunDirect measures the conventional baseline: every process initializes
// the device (its share of Tinit), creates its own context and runs its
// cycles, serialized across contexts with switch costs (paper Figure 4).
func RunDirect(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := validate(cfg); err != nil {
		return Result{}, err
	}
	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpusim.New(env, gpusim.Config{Arch: cfg.Arch, Functional: cfg.Functional, ExecWorkers: cfg.ExecWorkers, Tracer: cfg.Tracer})
	if err != nil {
		return Result{}, err
	}
	res := Result{Mode: "direct", N: cfg.N, PerProcess: make([]sim.Duration, cfg.N)}
	errs := make([]error, cfg.N)
	for i := 0; i < cfg.N; i++ {
		i := i
		env.Go(fmt.Sprintf("spmd-%d", i), func(p *sim.Proc) {
			pr, err := direct.Attach(p, dev, cfg.SpecFor(i), cfg.SwitchCost)
			if err != nil {
				errs[i] = err
				return
			}
			if cfg.Functional && cfg.FillInput != nil && pr.HostIn() != nil {
				cfg.FillInput(i, pr.HostIn().Data())
			}
			for c := 0; c < cfg.Cycles; c++ {
				if err := pr.RunCycle(p); err != nil {
					errs[i] = err
					return
				}
			}
			res.PerProcess[i] = sim.Duration(p.Now())
			if cfg.Functional && cfg.CheckOutput != nil && pr.HostOut() != nil {
				errs[i] = cfg.CheckOutput(i, pr.HostOut().Data())
			}
			pr.Detach()
		})
	}
	if err := env.Run(); err != nil {
		return Result{}, fmt.Errorf("spmd direct: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	for _, d := range res.PerProcess {
		if d > res.Turnaround {
			res.Turnaround = d
		}
	}
	res.ContextSwitches = dev.ContextSwitches
	res.KernelsRun = dev.KernelsRun
	return res, nil
}

// RunVirt measures the virtualized path: a pre-initialized manager owns
// the device's only context; N client processes connect through the VGPU
// API, and the manager barriers their STR requests and flushes all
// streams together (paper Figures 5-8). Turnaround is measured from the
// moment the manager is ready (its initialization is a one-time node
// setup cost, not part of the SPMD job).
func RunVirt(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	if err := validate(cfg); err != nil {
		return Result{}, err
	}
	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpusim.New(env, gpusim.Config{Arch: cfg.Arch, Functional: cfg.Functional, ExecWorkers: cfg.ExecWorkers, Tracer: cfg.Tracer})
	if err != nil {
		return Result{}, err
	}
	parties := cfg.N
	if cfg.PartiesOverride > 0 {
		parties = cfg.PartiesOverride
	}
	mgr := gvm.New(env, gvm.Config{
		Device:        dev,
		Parties:       parties,
		HostCopyBW:    cfg.HostCopyBW,
		MsgLatency:    cfg.MsgLatency,
		BlockingSTP:   cfg.BlockingSTP,
		PinnedStaging: !cfg.PageableStaging,
		FlushPolicy:   cfg.FlushPolicy,
		Tracer:        cfg.Tracer,
	})
	mgr.Start()
	res := Result{Mode: "virt", N: cfg.N, PerProcess: make([]sim.Duration, cfg.N)}
	errs := make([]error, cfg.N)
	polls := make([]int, cfg.N)
	for i := 0; i < cfg.N; i++ {
		i := i
		env.Go(fmt.Sprintf("spmd-%d", i), func(p *sim.Proc) {
			p.Wait(mgr.Ready())
			t0 := p.Now()
			spec := cfg.SpecFor(i)
			v, err := vgpu.Connect(p, mgr, spec)
			if err != nil {
				errs[i] = err
				return
			}
			var in, out []byte
			if cfg.Functional {
				if spec.InBytes > 0 {
					in = make([]byte, spec.InBytes)
					if cfg.FillInput != nil {
						cfg.FillInput(i, in)
					}
				}
				if spec.OutBytes > 0 {
					out = make([]byte, spec.OutBytes)
				}
			}
			for c := 0; c < cfg.Cycles; c++ {
				if err := v.RunCycle(p, in, out); err != nil {
					errs[i] = err
					return
				}
			}
			res.PerProcess[i] = p.Now().Sub(t0)
			if cfg.Functional && cfg.CheckOutput != nil && out != nil {
				errs[i] = cfg.CheckOutput(i, out)
			}
			polls[i] = v.Polls
			if err := v.Release(p); err != nil && errs[i] == nil {
				errs[i] = err
			}
		})
	}
	if err := env.Run(); err != nil {
		return Result{}, fmt.Errorf("spmd virt: %w", err)
	}
	for _, err := range errs {
		if err != nil {
			return Result{}, err
		}
	}
	for _, d := range res.PerProcess {
		if d > res.Turnaround {
			res.Turnaround = d
		}
	}
	for _, n := range polls {
		res.STPPolls += n
	}
	res.ContextSwitches = dev.ContextSwitches
	res.KernelsRun = dev.KernelsRun
	res.Flushes = mgr.Flushes()
	return res, nil
}

func validate(cfg Config) error {
	if cfg.N < 1 {
		return fmt.Errorf("spmd: N = %d, must be >= 1", cfg.N)
	}
	if cfg.SpecFor == nil {
		return fmt.Errorf("spmd: SpecFor is required")
	}
	if cfg.Cycles < 1 {
		return fmt.Errorf("spmd: Cycles = %d, must be >= 1", cfg.Cycles)
	}
	return nil
}

// Profile extracts the workload's Table II model parameters by
// micro-benchmarking the simulator: Tinit from N simultaneous context
// initializations, the cycle stages from a solo run on an idle device,
// and Tctx_switch from the workload's configured switch cost.
func Profile(cfg Config) (model.Params, error) {
	cfg = cfg.withDefaults()
	if err := validate(cfg); err != nil {
		return model.Params{}, err
	}
	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpusim.New(env, gpusim.Config{Arch: cfg.Arch, Functional: cfg.Functional, ExecWorkers: cfg.ExecWorkers})
	if err != nil {
		return model.Params{}, err
	}
	params := model.Params{Name: cfg.SpecFor(0).Name, Ntask: cfg.N}
	if params.TctxSwitch = cfg.SwitchCost; params.TctxSwitch == 0 {
		params.TctxSwitch = cfg.Arch.ContextSwitchCost
	}
	var initDone []sim.Time
	var profErr error
	// Tinit: N processes initialize simultaneously; the total is when the
	// last context exists.
	for i := 0; i < cfg.N; i++ {
		env.Go("init", func(p *sim.Proc) {
			pr, err := direct.Attach(p, dev, cfg.SpecFor(0), cfg.SwitchCost)
			if err != nil {
				profErr = err
				return
			}
			initDone = append(initDone, p.Now())
			// Only the first process proceeds to phase measurement.
			if len(initDone) == 1 {
				if cfg.Functional && cfg.FillInput != nil && pr.HostIn() != nil {
					cfg.FillInput(0, pr.HostIn().Data())
				}
				// Wait for the other inits to drain so phases run on an
				// idle device.
				p.Sleep(cfg.Arch.DeviceInitCost + sim.Duration(cfg.N+1)*cfg.Arch.ContextCreateCost)
				tin, tcomp, tout, err := pr.RunPhases(p)
				if err != nil {
					profErr = err
					return
				}
				params.TdataIn, params.Tcomp, params.TdataOut = tin, tcomp, tout
			}
		})
	}
	if err := env.Run(); err != nil {
		return model.Params{}, err
	}
	if profErr != nil {
		return model.Params{}, profErr
	}
	for _, tm := range initDone {
		if d := sim.Duration(tm); d > params.Tinit {
			params.Tinit = d
		}
	}
	return params, nil
}
