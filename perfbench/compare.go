package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the compare mode needs: each
// metric's direction and, for end-to-end metrics, its regression bound.
type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchSpec(path string) (map[string]metricSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bs benchSpec
	if err := json.Unmarshal(b, &bs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	m := map[string]metricSpec{}
	for _, s := range append(bs.EndToEnd, bs.PerLayer...) {
		m[s.Name] = s
	}
	return m, nil
}

// savedRun is one run's standard output as saved to a file: its
// metadata line and its result line.
type savedRun struct {
	workload string
	seed     int64
	res      result
}

// readRuns loads every run output in dir: each file that holds a
// metadata line and a result line. Other files, such as saved standard
// error, are skipped.
func readRuns(dir string) ([]savedRun, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		r, ok, err := readRun(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		if ok {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s holds no run outputs", dir)
	}
	return runs, nil
}

func readRun(path string) (savedRun, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, false, err
	}
	defer f.Close()
	var r savedRun
	var meta, last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, `{"meta":`) {
			meta = line
		} else if strings.HasPrefix(line, "{") {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return r, false, fmt.Errorf("%s: %w", path, err)
	}
	if meta == "" {
		return r, false, nil
	}
	var m struct {
		Meta struct {
			Workload string `json:"workload"`
			Seed     int64  `json:"seed"`
		} `json:"meta"`
	}
	if err := json.Unmarshal([]byte(meta), &m); err != nil {
		return r, false, fmt.Errorf("%s: bad metadata line: %w", path, err)
	}
	if err := json.Unmarshal([]byte(last), &r.res); err != nil {
		return r, false, fmt.Errorf("%s: no result line: %w", path, err)
	}
	r.workload, r.seed = m.Meta.Workload, m.Meta.Seed
	return r, true, nil
}

// compareRow is one workload x metric of a comparison.
type compareRow struct {
	workload, metric, unit string
	old, new               []float64
	won, lost, pairs       int
	verdict                string
}

// verdictFor classifies a metric by the rule for claiming a gain on a
// small, noisy host. A gain needs the change to win at least nine tenths
// of the paired runs and to move the median by more than the parent's own
// quartile spread. A regression is a median worse than the parent's by
// more than the benchmark's bound (for a metric without a bound, the
// mirror of the gain rule). A metric whose spread is wider than its bound
// is unresolved unless every run of the change beats every run of the
// parent.
func verdictFor(old, new []float64, won, lost, pairs int, spec metricSpec) string {
	oq1, omed, oq3 := quartiles(old)
	nq1, nmed, nq3 := quartiles(new)
	sign := 1.0 // +1 when lower is better
	if spec.Better == "higher" {
		sign = -1
	}
	gain := sign * (omed - nmed) // > 0 when the change is better
	allBetter := true
	for _, o := range old {
		for _, n := range new {
			if sign*(o-n) <= 0 {
				allBetter = false
			}
		}
	}
	spread := func(q1, med, q3 float64) float64 {
		if med == 0 {
			return 0
		}
		return (q3 - q1) / math.Abs(med)
	}
	nineTenths := func(n int) bool { return pairs > 0 && float64(n) >= 0.9*float64(pairs) }
	switch {
	case nineTenths(won) && gain > oq3-oq1:
		return "better"
	case spec.Bound > 0 && omed != 0 && -gain/math.Abs(omed) > spec.Bound:
		return "worse"
	case spec.Bound == 0 && nineTenths(lost) && -gain > oq3-oq1:
		return "worse"
	case spec.Bound > 0 && (spread(oq1, omed, oq3) > spec.Bound || spread(nq1, nmed, nq3) > spec.Bound):
		if allBetter {
			return "better"
		}
		return "unresolved"
	}
	return "unchanged"
}

// compareRuns prints one row per workload x metric comparing the runs
// saved in oldDir (the parent) with those in newDir (the change). Runs
// pair up by workload and seed.
func compareRuns(w io.Writer, oldDir, newDir string) error {
	specs, err := loadBenchSpec("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("compare reads metric directions and bounds from BENCHMARK.json in the working directory: %w", err)
	}
	oldRuns, err := readRuns(oldDir)
	if err != nil {
		return err
	}
	newRuns, err := readRuns(newDir)
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	vals := map[key][2][]float64{}
	bySeed := map[key][2]map[int64]float64{}
	for side, runs := range [][]savedRun{oldRuns, newRuns} {
		for _, r := range runs {
			for name, m := range r.res.Metrics {
				k := key{r.workload, name}
				v := vals[k]
				v[side] = append(v[side], m.Value)
				vals[k] = v
				s := bySeed[k]
				if s[side] == nil {
					s[side] = map[int64]float64{}
				}
				s[side][r.seed] = m.Value
				bySeed[k] = s
			}
		}
	}
	var rows []compareRow
	for k, v := range vals {
		if len(v[0]) == 0 || len(v[1]) == 0 {
			continue
		}
		spec := specs[k.metric]
		row := compareRow{workload: k.workload, metric: k.metric, unit: spec.Unit, old: v[0], new: v[1]}
		s := bySeed[k]
		for seed, o := range s[0] {
			n, ok := s[1][seed]
			if !ok {
				continue
			}
			row.pairs++
			d := o - n
			if spec.Better == "higher" {
				d = -d
			}
			switch {
			case d > 0:
				row.won++
			case d < 0:
				row.lost++
			}
		}
		row.verdict = verdictFor(row.old, row.new, row.won, row.lost, row.pairs, spec)
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].workload != rows[j].workload {
			return rows[i].workload < rows[j].workload
		}
		return rows[i].metric < rows[j].metric
	})
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1, q3]\tnew median [q1, q3]\tchange\twon/pairs\tverdict")
	for _, r := range rows {
		oq1, om, oq3 := quartiles(r.old)
		nq1, nm, nq3 := quartiles(r.new)
		change := "n/a"
		if om != 0 {
			change = fmt.Sprintf("%+.1f%%", (nm-om)/math.Abs(om)*100)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%s\t%d/%d\t%s\n",
			r.workload, r.metric, r.unit, om, oq1, oq3, nm, nq1, nq3, change, r.won, r.pairs, r.verdict)
	}
	return tw.Flush()
}
