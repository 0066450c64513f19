package gpusim

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/fermi"
	"gpuvirt/internal/sim"
)

// goldenScenario is one seeded launch mix for TestScheduleGolden. The
// mixes reach the scheduler paths the paper sweep never does: mixed
// weights (water-filled SM rates, weighted dispatch order, deficit
// round-robin), wave-boundary preemption on and off, memory-bandwidth
// floors, zero-work kernels, a full concurrent-kernel window with a
// pending queue, and an XidFatal abort while kernels are resident.
type goldenScenario struct {
	name    string
	arch    fermi.Arch
	seed    uint64
	preempt float64 // Config.PreemptRatio
	procs   int     // launching processes sharing one context
	perProc int     // launches per process
	weights []int   // drawn uniformly per launch
	// zeroWork, tiny and memFloor are the per-launch chances of a kernel
	// with no compute work, of one whose blocks carry at most half a
	// lane-cycle (drained on placement), and of one whose memory traffic
	// sets a bandwidth floor above its compute time.
	zeroWork, tiny, memFloor float64
	// burst launches back to back, so launches share instants.
	burst   bool
	fatalAt sim.Duration // after the context is acquired; 0: no fault
}

var goldenScenarios = []goldenScenario{
	{name: "uniform", arch: fermi.TeslaC2070(), seed: 1, procs: 6, perProc: 8, weights: []int{1}},
	{name: "weighted-preempt", arch: fermi.TeslaC2070(), seed: 2, procs: 6, perProc: 8, weights: []int{1, 1, 2, 4, 8}},
	{name: "weighted-nopreempt", arch: fermi.TeslaC2070(), seed: 2, preempt: -1, procs: 6, perProc: 8, weights: []int{1, 1, 2, 4, 8}},
	{name: "weighted-ratio3", arch: fermi.TeslaC2070(), seed: 3, preempt: 3, procs: 9, perProc: 8, weights: []int{1, 1, 2, 16}},
	{name: "floors-zero", arch: fermi.TeslaC2070(), seed: 4, procs: 6, perProc: 8, weights: []int{1, 3}, zeroWork: 0.15, memFloor: 0.3},
	{name: "window-flood", arch: fermi.GeForceGTX480(), seed: 5, procs: 10, perProc: 6, weights: []int{1, 1, 5}, zeroWork: 0.05, memFloor: 0.1},
	{name: "fatal-midrun", arch: fermi.TeslaC2070(), seed: 6, procs: 6, perProc: 8, weights: []int{1, 2, 4}, zeroWork: 0.1, memFloor: 0.2, fatalAt: 12 * sim.Millisecond},
	{name: "tiny-burst", arch: fermi.TeslaC2070(), seed: 8, procs: 8, perProc: 6, weights: []int{1, 2}, zeroWork: 0.1, tiny: 0.4, burst: true},
	{name: "serial-arch", arch: fermi.TeslaC1060(), seed: 7, procs: 4, perProc: 6, weights: []int{1, 2}, zeroWork: 0.1, memFloor: 0.2},
}

// goldenKernel draws one valid kernel for arch.
func goldenKernel(r *sim.Rand, arch fermi.Arch, sc goldenScenario, name string) *cuda.Kernel {
	threads := []int{32, 64, 96, 128, 192, 256, 512}
	regs := []int{0, 8, 16, 21, 32}
	shmem := []int{0, 0, 512, 4096, 12000}
	for {
		k := &cuda.Kernel{
			Name:              name,
			Grid:              cuda.Dim(1 + r.Intn(160)),
			Block:             cuda.Dim(threads[r.Intn(len(threads))]),
			RegsPerThread:     regs[r.Intn(len(regs))],
			SharedMemPerBlock: shmem[r.Intn(len(shmem))],
			CyclesPerThread:   float64(50 + r.Intn(40000)),
		}
		if r.Float64() < sc.zeroWork {
			k.CyclesPerThread = 0
		} else if r.Float64() < sc.tiny {
			k.CyclesPerThread = 0.0001
		}
		if r.Float64() < sc.memFloor {
			k.MemBytesPerThread = float64(1000 + r.Intn(100000))
		}
		if k.Validate(arch) == nil {
			return k
		}
	}
}

// goldenSchedule runs one scenario and renders every launch's outcome
// (completion instant in integer ns, "fault" for an aborted kernel,
// "rejected" for a launch refused by the faulted device) plus the
// device's kernel and preemption counts.
func goldenSchedule(t *testing.T, sc goldenScenario) string {
	t.Helper()
	env := sim.NewEnv()
	defer env.Close()
	dev := MustNew(env, Config{Arch: sc.arch, PreemptRatio: sc.preempt})
	r := sim.NewRand(sc.seed)
	type plan struct {
		gap    sim.Duration
		k      *cuda.Kernel
		weight int
		wait   bool
	}
	plans := make([][]plan, sc.procs)
	for p := range plans {
		for i := 0; i < sc.perProc; i++ {
			gap := sim.Duration(r.Intn(400)) * sim.Microsecond
			if sc.burst {
				gap = 0
			}
			plans[p] = append(plans[p], plan{
				gap:    gap,
				k:      goldenKernel(r, sc.arch, sc, fmt.Sprintf("p%dk%d", p, i)),
				weight: sc.weights[r.Intn(len(sc.weights))],
				wait:   r.Intn(3) == 0,
			})
		}
	}
	outcome := make([][]string, sc.procs)
	env.Go("owner", func(p *sim.Proc) {
		c := dev.CreateContext(p)
		c.Acquire(p)
		if sc.fatalAt > 0 {
			env.After(sc.fatalAt, func() { dev.InjectFault(XidFatal) })
		}
		all := env.NewEvent()
		left := sc.procs
		for pi := range plans {
			pi := pi
			outcome[pi] = make([]string, len(plans[pi]))
			env.Go(fmt.Sprintf("launcher%d", pi), func(p *sim.Proc) {
				var evs []*sim.Event
				for i, pl := range plans[pi] {
					i := i
					p.Sleep(pl.gap)
					ev, err := c.LaunchAsyncOpts(p, pl.k, LaunchOptions{Weight: pl.weight})
					if err != nil {
						outcome[pi][i] = "rejected"
						continue
					}
					ev.OnFire(func(v any) {
						if v != nil {
							outcome[pi][i] = "fault"
							return
						}
						outcome[pi][i] = fmt.Sprint(int64(env.Now()))
					})
					evs = append(evs, ev)
					if pl.wait {
						p.Wait(ev)
					}
				}
				for _, ev := range evs {
					p.Wait(ev)
				}
				if left--; left == 0 {
					all.Fire(nil)
				}
			})
		}
		p.Wait(all)
		c.Release()
	})
	if err := env.Run(); err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	var b strings.Builder
	for pi := range outcome {
		for i, o := range outcome[pi] {
			fmt.Fprintf(&b, "%s p%dk%d %s\n", sc.name, pi, i, o)
		}
	}
	fmt.Fprintf(&b, "%s kernels_run %d preemptions %d\n", sc.name, dev.KernelsRun, dev.Preemptions())
	return b.String()
}

// TestScheduleGolden pins the SM scheduler's exact schedule on seeded
// launch mixes: every completion instant to the nanosecond, the kernel
// count and the preemption count must equal testdata/schedule_golden.txt.
// Host-side scheduler optimizations must leave the file untouched; only a
// deliberate change to the timing model may regenerate it (by writing
// the concatenated goldenSchedule outputs to the file).
func TestScheduleGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/schedule_golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for _, sc := range goldenScenarios {
		got.WriteString(goldenSchedule(t, sc))
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("schedule differs from golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
