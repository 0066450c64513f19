package experiments

import (
	"fmt"
	"hash/fnv"
	"sort"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/sim"
)

// This file is the QoS interference experiment behind `gvmbench
// -benchjson`: a latency-sensitive tenant issuing a short kernel on a
// fixed period is co-located with backlogged batch tenants on a GPU
// whose concurrency window is deliberately small (2 kernels, the
// contended case). Under FIFO scheduling the latency tenant queues
// behind whole batch kernels and its co-located p99 blows past 2x its
// solo latency; under weighted-fair scheduling with wave-boundary
// preemption the batch kernels' resident waves drain (never killed) and
// the latency tenant lands near its solo latency, while batch
// throughput gives up only the capacity the latency tenant actually
// uses. All runs execute the latency tenant's kernel functionally and
// the outputs are verified against a CPU reference and digest-compared
// across scheduling modes: QoS is pure scheduling policy, results are
// byte-identical.

// InterferenceRun is one co-location (or solo) measurement.
type InterferenceRun struct {
	// Mode is "solo", "fifo", or "weighted-w<N>".
	Mode string `json:"mode"`
	// LatencyWeight is the latency tenant's scheduling weight (batch
	// tenants always run at weight 1).
	LatencyWeight int `json:"latency_weight"`
	// Latency-tenant cycle turnaround in virtual milliseconds.
	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
	// P99VsSolo is P99MS over the solo run's P99MS (1.0 = no
	// interference); 0 on the solo run itself.
	P99VsSolo float64 `json:"p99_vs_solo,omitempty"`
	// BatchKernels counts batch kernels completed over the run's horizon;
	// BatchVsFIFO is this run's batch rate over the FIFO baseline's (1.0
	// = no throughput cost).
	BatchKernels int64   `json:"batch_kernels,omitempty"`
	BatchVsFIFO  float64 `json:"batch_vs_fifo,omitempty"`
	// Preemptions is the device's wave-boundary preemption count.
	Preemptions int64 `json:"preemptions"`
	// OutputDigest is an FNV-64a digest of every latency-tenant output
	// buffer, cycle by cycle — identical across modes by construction.
	OutputDigest string `json:"output_digest"`
}

// FairnessRun measures how SM throughput divides among three backlogged
// tenants asking for a 1:2:4 split.
type FairnessRun struct {
	// Mode is "fifo" (scheduler ignores the requested weights) or
	// "weighted".
	Mode    string  `json:"mode"`
	Weights []int   `json:"weights"`
	Kernels []int64 `json:"kernels"`
	// JainIndex is Jain's fairness index over weight-normalized
	// throughput: 1.0 means each tenant's share is exactly proportional
	// to its weight.
	JainIndex float64 `json:"jain_index"`
}

// InterferenceReport is the QoS section of the benchmark JSON.
type InterferenceReport struct {
	Short         bool              `json:"short,omitempty"`
	LatencyCycles int               `json:"latency_cycles"`
	PeriodMS      float64           `json:"period_ms"`
	Runs          []InterferenceRun `json:"runs"`
	Fairness      []FairnessRun     `json:"fairness"`
	// FunctionalMatch is true iff every latency-tenant output matched the
	// CPU reference and every run produced the same digest.
	FunctionalMatch bool `json:"functional_match"`
}

// Latency tenant: one wave of 4-warp blocks, under-occupied, so its solo
// rate is the latency-hiding floor and co-residents cannot slow it once
// it holds its SM slots.
const (
	interfHotGrid   = 14 // one block per SM
	interfHotBlock  = 128
	interfHotCycles = 1e6
	interfHotN      = interfHotGrid * interfHotBlock
)

// Batch tenants: device-filling 8-warp blocks in short waves, so a
// preempted kernel's resident wave drains quickly relative to the
// latency tenant's own runtime.
const (
	interfBatchGrid   = 672
	interfBatchBlock  = 256
	interfBatchCycles = 2e4
)

type interfParams struct {
	latWeight    int
	preemptRatio float64 // gpusim.Config semantics: 0 default, <0 disabled
	batchTenants int
	cycles       int
	period       sim.Duration
}

type interfTrial struct {
	latencies    []sim.Duration
	epoch        sim.Time // virtual instant the tenants started (after device init)
	horizon      sim.Time // virtual instant the latency tenant finished
	batchKernels int64
	preemptions  int64
	digest       uint64
	verified     bool
}

// batchRate is the run's batch kernel throughput per virtual second.
func (t interfTrial) batchRate() float64 {
	span := t.horizon.Sub(t.epoch).Seconds()
	if span <= 0 {
		return 0
	}
	return float64(t.batchKernels) / span
}

func interfRun(p interfParams) (interfTrial, error) {
	env := sim.NewEnv()
	defer env.Close()
	arch := Arch()
	arch.MaxConcurrentKernels = 2
	dev, err := gpusim.New(env, gpusim.Config{
		Arch:         arch,
		Functional:   true,
		PreemptRatio: p.preemptRatio,
	})
	if err != nil {
		return interfTrial{}, err
	}
	var (
		res  interfTrial
		stop bool
		errs []error
	)
	res.verified = true

	// One context serves every tenant, the way the GVM manager fronts all
	// of a GPU's sessions through its single context: Context.Acquire is a
	// whole-device mutex, so per-tenant contexts would serialize. QoS
	// isolation between the tenants comes from per-launch weights.
	env.Go("main", func(pr *sim.Proc) {
		c := dev.CreateContext(pr)
		c.Acquire(pr)
		// Device and context initialization cost virtual time (the paper's
		// CUDA init overhead), so the arrival schedule is anchored here,
		// not at t=0.
		epoch := pr.Now()
		res.epoch = epoch
		tenants := 1 + p.batchTenants
		allDone := env.NewEvent()
		finish := func() {
			if tenants--; tenants == 0 {
				allDone.Fire(nil)
			}
		}

		env.Go("latency", func(pr *sim.Proc) {
			defer finish()
			defer func() { stop = true }()
			a := c.MustMalloc(interfHotN * 4)
			b := c.MustMalloc(interfHotN * 4)
			out := c.MustMalloc(interfHotN * 4)
			ha := make([]float32, interfHotN)
			hb := make([]float32, interfHotN)
			for i := range ha {
				ha[i] = float32(i%251) * 0.5
				hb[i] = float32(i%97) * 0.25
			}
			c.MemcpyH2D(pr, a, gpusim.WrapHost(cuda.HostFloat32Bytes(ha), false), interfHotN*4)
			c.MemcpyH2D(pr, b, gpusim.WrapHost(cuda.HostFloat32Bytes(hb), false), interfHotN*4)
			hout := make([]float32, interfHotN)
			h := fnv.New64a()
			for cy := 0; cy < p.cycles; cy++ {
				// Open-loop arrivals: cycle cy fires at epoch+cy*period
				// regardless of how long earlier cycles took, so every mode
				// sees the same offered load over the same horizon.
				if next := epoch.Add(sim.Duration(cy) * p.period); pr.Now() < next {
					pr.Sleep(next.Sub(pr.Now()))
				}
				scale := float32(cy%7 + 1)
				k := &cuda.Kernel{
					Name: "hot", Grid: cuda.Dim(interfHotGrid), Block: cuda.Dim(interfHotBlock),
					CyclesPerThread: interfHotCycles,
					Args:            []any{a, b, out, interfHotN},
					Func: func(bc *cuda.BlockCtx) {
						av := cuda.Float32s(bc.Mem, bc.Ptr(0), bc.Int(3))
						bv := cuda.Float32s(bc.Mem, bc.Ptr(1), bc.Int(3))
						ov := cuda.Float32s(bc.Mem, bc.Ptr(2), bc.Int(3))
						base := bc.GlobalBase()
						for t := 0; t < bc.BlockDim.X; t++ {
							if i := base + t; i < bc.Int(3) {
								ov[i] = av[i] + scale*bv[i]
							}
						}
					},
				}
				start := pr.Now()
				ev, err := c.LaunchAsyncOpts(pr, k, gpusim.LaunchOptions{Weight: p.latWeight})
				if err != nil {
					errs = append(errs, err)
					return
				}
				pr.Wait(ev)
				res.latencies = append(res.latencies, pr.Now().Sub(start))
				c.MemcpyD2H(pr, gpusim.WrapHost(cuda.HostFloat32Bytes(hout), false), out, interfHotN*4)
				for i, v := range hout {
					if v != ha[i]+scale*hb[i] {
						res.verified = false
						break
					}
				}
				h.Write(cuda.HostFloat32Bytes(hout))
			}
			res.digest = h.Sum64()
			res.horizon = pr.Now()
		})

		for t := 0; t < p.batchTenants; t++ {
			env.Go(fmt.Sprintf("batch%d", t), func(pr *sim.Proc) {
				defer finish()
				k := &cuda.Kernel{
					Name: "batch", Grid: cuda.Dim(interfBatchGrid), Block: cuda.Dim(interfBatchBlock),
					CyclesPerThread: interfBatchCycles,
				}
				for !stop {
					if err := c.Launch(pr, k); err != nil {
						errs = append(errs, err)
						return
					}
					res.batchKernels++
				}
			})
		}

		pr.Wait(allDone)
		c.Release()
	})

	if err := env.Run(); err != nil {
		return interfTrial{}, err
	}
	if len(errs) > 0 {
		return interfTrial{}, errs[0]
	}
	res.preemptions = dev.Preemptions()
	return res, nil
}

// fairnessRun races three backlogged batch tenants asking for weights ws
// for dur of virtual time. honorWeights=false launches everything at
// weight 1 (the FIFO baseline) while still normalizing throughput by the
// requested weights, so its Jain index shows what ignoring weights costs.
func fairnessRun(ws []int, honorWeights bool, dur sim.Duration) (FairnessRun, error) {
	env := sim.NewEnv()
	defer env.Close()
	dev, err := gpusim.New(env, gpusim.Config{Arch: Arch()})
	if err != nil {
		return FairnessRun{}, err
	}
	done := make([]int64, len(ws))
	var errs []error
	// As in interfRun, the tenants share one context: contexts serialize
	// at the device arbiter, launches within a context schedule by weight.
	env.Go("main", func(pr *sim.Proc) {
		c := dev.CreateContext(pr)
		c.Acquire(pr)
		// Anchor the race window after device/context init, which costs
		// virtual time.
		end := pr.Now().Add(dur)
		remaining := len(ws)
		allDone := env.NewEvent()
		for t, w := range ws {
			t, w := t, w
			env.Go(fmt.Sprintf("tenant%d", t), func(pr *sim.Proc) {
				defer func() {
					if remaining--; remaining == 0 {
						allDone.Fire(nil)
					}
				}()
				k := &cuda.Kernel{
					Name: fmt.Sprintf("fair%d", t), Grid: cuda.Dim(interfBatchGrid / 4), Block: cuda.Dim(interfBatchBlock),
					CyclesPerThread: interfBatchCycles,
				}
				lw := w
				if !honorWeights {
					lw = 1
				}
				for pr.Now() < end {
					ev, err := c.LaunchAsyncOpts(pr, k, gpusim.LaunchOptions{Weight: lw})
					if err != nil {
						errs = append(errs, err)
						return
					}
					pr.Wait(ev)
					done[t]++
				}
			})
		}
		pr.Wait(allDone)
		c.Release()
	})
	if err := env.Run(); err != nil {
		return FairnessRun{}, err
	}
	if len(errs) > 0 {
		return FairnessRun{}, errs[0]
	}
	mode := "weighted"
	if !honorWeights {
		mode = "fifo"
	}
	return FairnessRun{
		Mode:      mode,
		Weights:   append([]int(nil), ws...),
		Kernels:   done,
		JainIndex: jain(done, ws),
	}, nil
}

// jain computes Jain's fairness index over weight-normalized throughput
// x_i = kernels_i / weight_i: (sum x)^2 / (n * sum x^2).
func jain(done []int64, ws []int) float64 {
	var sum, sumSq float64
	for i, d := range done {
		x := float64(d) / float64(ws[i])
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(len(done)) * sumSq)
}

func latPercentile(lat []sim.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]sim.Duration(nil), lat...)
	sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
	rank := int(q*float64(len(s))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return float64(s[rank]) / 1e6
}

func latMean(lat []sim.Duration) float64 {
	if len(lat) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, d := range lat {
		sum += d
	}
	return float64(sum) / float64(len(lat)) / 1e6
}

// InterferenceBench runs the co-location sweep: a solo latency baseline,
// the FIFO co-located baseline (weights ignored, preemption disabled),
// and weighted-fair co-location at latency weights 2/4/8, plus the
// 1:2:4 fairness races. Short mode trims cycles and the sweep for CI.
func InterferenceBench(short bool) (*InterferenceReport, error) {
	cycles, period := 120, 160*sim.Millisecond
	sweep := []int{2, 4, 8}
	fairDur := sim.Second
	if short {
		cycles, sweep, fairDur = 40, []int{8}, 300*sim.Millisecond
	}
	rep := &InterferenceReport{
		Short:           short,
		LatencyCycles:   cycles,
		PeriodMS:        float64(period) / 1e6,
		FunctionalMatch: true,
	}

	solo, err := interfRun(interfParams{latWeight: 1, batchTenants: 0, cycles: cycles, period: period})
	if err != nil {
		return nil, fmt.Errorf("interference solo: %w", err)
	}
	soloP99 := latPercentile(solo.latencies, 0.99)
	rep.Runs = append(rep.Runs, InterferenceRun{
		Mode: "solo", LatencyWeight: 1,
		P50MS: latPercentile(solo.latencies, 0.5), P99MS: soloP99, MeanMS: latMean(solo.latencies),
		OutputDigest: fmt.Sprintf("%016x", solo.digest),
	})
	rep.FunctionalMatch = rep.FunctionalMatch && solo.verified

	fifo, err := interfRun(interfParams{latWeight: 1, preemptRatio: -1, batchTenants: 2, cycles: cycles, period: period})
	if err != nil {
		return nil, fmt.Errorf("interference fifo: %w", err)
	}
	fifoRate := fifo.batchRate()
	rep.Runs = append(rep.Runs, InterferenceRun{
		Mode: "fifo", LatencyWeight: 1,
		P50MS: latPercentile(fifo.latencies, 0.5), P99MS: latPercentile(fifo.latencies, 0.99),
		MeanMS:       latMean(fifo.latencies),
		P99VsSolo:    latPercentile(fifo.latencies, 0.99) / soloP99,
		BatchKernels: fifo.batchKernels, BatchVsFIFO: 1,
		Preemptions:  fifo.preemptions,
		OutputDigest: fmt.Sprintf("%016x", fifo.digest),
	})
	rep.FunctionalMatch = rep.FunctionalMatch && fifo.verified && fifo.digest == solo.digest

	for _, w := range sweep {
		tr, err := interfRun(interfParams{latWeight: w, batchTenants: 2, cycles: cycles, period: period})
		if err != nil {
			return nil, fmt.Errorf("interference weighted w=%d: %w", w, err)
		}
		rate := tr.batchRate()
		rep.Runs = append(rep.Runs, InterferenceRun{
			Mode: fmt.Sprintf("weighted-w%d", w), LatencyWeight: w,
			P50MS: latPercentile(tr.latencies, 0.5), P99MS: latPercentile(tr.latencies, 0.99),
			MeanMS:       latMean(tr.latencies),
			P99VsSolo:    latPercentile(tr.latencies, 0.99) / soloP99,
			BatchKernels: tr.batchKernels, BatchVsFIFO: rate / fifoRate,
			Preemptions:  tr.preemptions,
			OutputDigest: fmt.Sprintf("%016x", tr.digest),
		})
		rep.FunctionalMatch = rep.FunctionalMatch && tr.verified && tr.digest == solo.digest
	}

	for _, honor := range []bool{false, true} {
		fr, err := fairnessRun([]int{1, 2, 4}, honor, fairDur)
		if err != nil {
			return nil, fmt.Errorf("fairness honor=%v: %w", honor, err)
		}
		rep.Fairness = append(rep.Fairness, fr)
	}
	return rep, nil
}
