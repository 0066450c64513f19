package main

import (
	"encoding/json"
	"os"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Better: "lower", Bound: 0.1}
	old := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := []float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}
	if v := verdictFor(old, faster, 10, 0, 10, lower); v != "better" {
		t.Fatalf("clear gain: %s", v)
	}
	slower := []float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}
	if v := verdictFor(old, slower, 0, 10, 10, lower); v != "worse" {
		t.Fatalf("clear regression: %s", v)
	}
	noisy := []float64{60, 140, 70, 130, 100, 90, 110, 80, 120, 100}
	if v := verdictFor(old, noisy, 5, 5, 10, lower); v != "unresolved" {
		t.Fatalf("spread wider than the bound: %s", v)
	}
	if v := verdictFor(old, old, 0, 0, 10, lower); v != "unchanged" {
		t.Fatalf("same runs: %s", v)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// harness prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
		Work     []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricSpec, want [][2]string) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i][0] || got[i].Unit != want[i][1] {
				t.Fatalf("%s %d: BENCHMARK.json has %s [%s], the code prints %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i][0], want[i][1])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndNames)
	check("per_layer", spec.PerLayer, perLayerNames)
	if len(spec.Work) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(spec.Work), len(workloadNames))
	}
	for i, w := range spec.Work {
		if w.Name != workloadNames[i] {
			t.Fatalf("workload %d: %s in BENCHMARK.json, %s in the code", i, w.Name, workloadNames[i])
		}
	}
}

func TestPaperSimReferenceCoversSweep(t *testing.T) {
	ps, err := loadPaperSim()
	if err != nil {
		t.Fatal(err)
	}
	// The N=1 cells are quick: run them and demand bit-identical outcomes.
	for _, c := range paperCells() {
		if c.N != 1 {
			continue
		}
		o, err := runCell(ps.ws, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := ps.check(o); err != nil {
			t.Fatal(err)
		}
	}
}
