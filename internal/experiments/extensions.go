package experiments

import (
	"fmt"
	"strings"

	"gpuvirt/internal/cluster"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/node"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
	"gpuvirt/internal/workloads"
)

// The experiments in this file go beyond the paper's evaluation: they
// quantify the alternatives the paper argues against (remote GPU access,
// related work [11]) and the extension it gestures at (multi-GPU nodes,
// Section VII).

// ClusterRow is one row of the cluster extension experiment.
type ClusterRow struct {
	Setup        string
	TurnaroundMS float64
	NetworkMS    float64
	RemoteProcs  int
}

// ExtensionCluster compares 8 SPMD processes sharing one GPU three ways:
// on the GPU node through the local GVM, and from GPU-less nodes over
// QDR InfiniBand and gigabit Ethernet (rCUDA-style remote access).
func ExtensionCluster() ([]ClusterRow, error) {
	w := workloads.VectorAdd(10_000_000)
	spec := func(node, rank int) *task.Spec { return w.Spec(rank) }
	run := func(name string, cfg cluster.Config, procs int) (ClusterRow, error) {
		env := sim.NewEnv()
		defer env.Close()
		c, err := cluster.New(env, cfg)
		if err != nil {
			return ClusterRow{}, err
		}
		res, err := c.RunJob(procs, spec)
		if err != nil {
			return ClusterRow{}, err
		}
		return ClusterRow{
			Setup:        name,
			TurnaroundMS: res.Turnaround.Seconds() * 1e3,
			NetworkMS:    res.NetworkTime.Seconds() * 1e3,
			RemoteProcs:  res.RemoteProcs,
		}, nil
	}
	var rows []ClusterRow
	for _, c := range []struct {
		name  string
		cfg   cluster.Config
		procs int
	}{
		{"local GVM (paper)", cluster.Config{Nodes: 1, GPUNodes: 1, CoresPerNode: 8, Parties: 8}, 8},
		{"remote, QDR InfiniBand", cluster.Config{Nodes: 9, GPUNodes: 1, CoresPerNode: 1, Interconnect: cluster.QDRInfiniBand()}, 1},
		{"remote, gigabit Ethernet", cluster.Config{Nodes: 9, GPUNodes: 1, CoresPerNode: 1, Interconnect: cluster.GigabitEthernet()}, 1},
	} {
		row, err := run(c.name, c.cfg, c.procs)
		if err != nil {
			return nil, fmt.Errorf("cluster %s: %w", c.name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderExtensionCluster formats the cluster comparison.
func RenderExtensionCluster(rows []ClusterRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXTENSION. LOCAL VIRTUALIZATION VS REMOTE GPU ACCESS (8 procs, 120 MB/proc)\n")
	fmt.Fprintf(&b, "  %-26s %14s %14s %8s\n", "setup", "turnaround", "on the wire", "remote")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-26s %12.1fms %12.1fms %8d\n", r.Setup, r.TurnaroundMS, r.NetworkMS, r.RemoteProcs)
	}
	return b.String()
}

// MultiGPURow is one GPU-count point of the multi-GPU extension.
type MultiGPURow struct {
	GPUs         int
	TurnaroundMS float64
	Scaling      float64 // vs the 1-GPU turnaround
}

// ExtensionMultiGPU runs 8 device-saturating Electrostatics processes
// against a node of 1, 2 and 4 per-GPU manager shards (least-sessions
// placement; each shard's STR barrier spans the 8/gpus sessions placed
// on it).
func ExtensionMultiGPU() ([]MultiGPURow, error) {
	w := PaperSaturatingWorkload()
	run := func(gpus int) (float64, error) {
		env := sim.NewEnv()
		defer env.Close()
		nd, err := node.New(node.Config{
			GPUs:      gpus,
			Arch:      fermi.TeslaC2070(),
			Parties:   8 / gpus,
			SharedEnv: env,
		})
		if err != nil {
			return 0, err
		}
		if err := nd.Start(); err != nil {
			return 0, err
		}
		var makespan sim.Duration
		errs := make([]error, 8)
		for i := 0; i < 8; i++ {
			i := i
			env.Go(fmt.Sprintf("c%d", i), func(p *sim.Proc) {
				// Clients never pay Tinit (the paper's design): wait out
				// every shard's bring-up before starting the clock.
				for _, sh := range nd.Shards() {
					p.Wait(sh.Mgr.Ready())
				}
				t0 := p.Now()
				v, _, err := nd.Connect(p, w.Spec(i))
				if err != nil {
					errs[i] = err
					return
				}
				if err := v.RunCycle(p, nil, nil); err != nil {
					errs[i] = err
					return
				}
				if d := p.Now().Sub(t0); d > makespan {
					makespan = d
				}
			})
		}
		if err := env.Run(); err != nil {
			return 0, err
		}
		for _, err := range errs {
			if err != nil {
				return 0, err
			}
		}
		return makespan.Seconds() * 1e3, nil
	}
	var rows []MultiGPURow
	var base float64
	for _, gpus := range []int{1, 2, 4} {
		ms, err := run(gpus)
		if err != nil {
			return nil, fmt.Errorf("multigpu %d: %w", gpus, err)
		}
		if gpus == 1 {
			base = ms
		}
		rows = append(rows, MultiGPURow{GPUs: gpus, TurnaroundMS: ms, Scaling: base / ms})
	}
	return rows, nil
}

// ExtensionNPB runs the two extra NPB kernels (IS, FT at class S) through
// both sharing modes, extending Figures 11-15's evaluation family.
func ExtensionNPB() ([]TurnaroundSeries, error) {
	var out []TurnaroundSeries
	for _, w := range []workloads.Workload{workloads.ClassSIS(), workloads.ClassSFT()} {
		s, err := runSeries(w, MaxProcs)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// PaperSaturatingWorkload returns the Table IV workload that fills the
// whole device (Electrostatics), used by the multi-GPU scaling runs.
func PaperSaturatingWorkload() workloads.Workload {
	return workloads.PaperElectrostatics()
}

// RenderExtensionMultiGPU formats the multi-GPU scaling table.
func RenderExtensionMultiGPU(rows []MultiGPURow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "EXTENSION. MULTI-GPU MANAGER SCALING (8 Electrostatics procs)\n")
	fmt.Fprintf(&b, "  %-6s %14s %10s\n", "GPUs", "turnaround", "scaling")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-6d %12.1fms %9.2fx\n", r.GPUs, r.TurnaroundMS, r.Scaling)
	}
	return b.String()
}
