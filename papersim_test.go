package gpuvirt_test

import (
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/spmd"
	"gpuvirt/internal/workloads"
)

// paperSimRow is one cell of perfbench/papersim_ref.json: a paper
// workload at N processes in one mode, with every simulated time in
// integer nanoseconds and the device and manager counts.
type paperSimRow struct {
	Workload        string  `json:"workload"`
	N               int     `json:"n"`
	Mode            string  `json:"mode"`
	TurnaroundNS    int64   `json:"turnaround_ns"`
	PerProcessNS    []int64 `json:"per_process_ns"`
	KernelsRun      int     `json:"kernels_run"`
	ContextSwitches int     `json:"context_switches"`
	Flushes         int     `json:"flushes"`
	STPPolls        int     `json:"stp_polls"`
}

// TestPaperSweepExact reruns the benchmark's paper sweep (the seven
// workloads of Figures 9 and 11-15, N=1..8, direct and virtualized, on
// the Tesla C2070 timing model with each workload's switch cost) and
// requires every cell to equal the stored reference table bit for bit.
// Under the race detector only N=1 and N=8 run, which still cover the
// lone-process and the full 8-way consolidated schedules.
func TestPaperSweepExact(t *testing.T) {
	if testing.Short() {
		t.Skip("paper sweep skipped in -short mode")
	}
	b, err := os.ReadFile("perfbench/papersim_ref.json")
	if err != nil {
		t.Fatal(err)
	}
	var ref []paperSimRow
	if err := json.Unmarshal(b, &ref); err != nil {
		t.Fatal(err)
	}
	if len(ref) != 7*8*2 {
		t.Fatalf("reference table has %d rows, want 112", len(ref))
	}
	ws := map[string]workloads.Workload{}
	for _, w := range append([]workloads.Workload{workloads.PaperVectorAdd(), workloads.PaperEP()}, workloads.PaperApplications()...) {
		ws[w.Name] = w
	}
	for _, want := range ref {
		if raceEnabled && want.N != 1 && want.N != 8 {
			continue
		}
		w, ok := ws[want.Workload]
		if !ok {
			t.Fatalf("reference names unknown workload %q", want.Workload)
		}
		run := spmd.RunDirect
		if want.Mode == "virt" {
			run = spmd.RunVirt
		}
		r, err := run(spmd.Config{Arch: fermi.TeslaC2070(), N: want.N, SpecFor: w.Spec, SwitchCost: w.SwitchCost})
		if err != nil {
			t.Fatalf("%s N=%d %s: %v", want.Workload, want.N, want.Mode, err)
		}
		got := paperSimRow{Workload: want.Workload, N: want.N, Mode: want.Mode,
			TurnaroundNS: int64(r.Turnaround), KernelsRun: r.KernelsRun,
			ContextSwitches: r.ContextSwitches, Flushes: r.Flushes, STPPolls: r.STPPolls}
		for _, d := range r.PerProcess {
			got.PerProcessNS = append(got.PerProcessNS, int64(d))
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s N=%d %s:\n got %+v\nwant %+v", want.Workload, want.N, want.Mode, got, want)
		}
	}
}
