// Command perfbench is the repository benchmark. It builds nothing
// itself: run.sh builds gvmd, gvmfed and this harness from the checkout
// and then runs
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Daemon workloads launch gvmd (and gvmfed) as separate processes with
// their ordinary flags and drive them over their real transports; the
// paper-sim workload sweeps the paper's experiments in process. Every
// output is checked. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}; the line before
// it records the host and the run's inputs. See README.md.
package main

import (
	"crypto/sha256"
	"debug/buildinfo"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one invocation's settings.
type bench struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	binDir   string
	dirs     runDirs
	meta     map[string]any
}

func (b *bench) bin(name string) string { return filepath.Join(b.binDir, name) }

func (b *bench) window() time.Duration { return time.Duration(b.seconds) * time.Second }

var workloadNames = []string{"ring-small", "fed-open", "paper-sim"}

func main() {
	os.Exit(run())
}

func run() int {
	var b bench
	var traceFlag int
	flag.StringVar(&b.workload, "workload", "", "workload: "+strings.Join(workloadNames, "|"))
	flag.Int64Var(&b.seed, "seed", 1, "workload seed: inputs and arrival schedules derive from it")
	flag.IntVar(&b.seconds, "seconds", 10, "measurement window in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced ladder and reports per-layer metrics")
	flag.StringVar(&b.binDir, "bin", ".bench_build/bin", "directory holding the gvmd and gvmfed binaries")
	work := flag.String("work", ".bench_build/run", "directory for run state (sockets, shm segments, logs, traces)")
	compare := flag.Bool("compare", false, "compare two directories of saved run outputs: perfbench -compare OLD NEW")
	writeRef := flag.String("write-papersim-ref", "", "regenerate the paper-sim reference table into this file and exit")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "perfbench: -compare needs two directories: OLD NEW")
			return 2
		}
		if err := compareRuns(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if *writeRef != "" {
		if err := writePaperSimRef(*writeRef); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	if b.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	b.trace = traceFlag == 1
	b.dirs.root = filepath.Join(*work, fmt.Sprintf("%s-%d-%d", b.workload, b.seed, os.Getpid()))
	if err := os.RemoveAll(b.dirs.root); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(b.dirs.root)
	// An interrupted run must not leave daemons behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killLive()
		os.RemoveAll(b.dirs.root)
		os.Exit(1)
	}()
	b.meta = hostMeta(&b)

	var res *result
	var err error
	switch {
	case b.workload == "paper-sim" && b.trace:
		res, err = paperSimTrace(&b)
	case b.workload == "paper-sim":
		res, err = paperSimRun(&b)
	case daemonSpecs[b.workload] != nil && b.trace:
		res, err = daemonTrace(&b, daemonSpecs[b.workload])
	case daemonSpecs[b.workload] != nil:
		res, err = daemonRun(&b, daemonSpecs[b.workload])
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown --workload %q (want %s)\n", b.workload, strings.Join(workloadNames, "|"))
		return 2
	}
	if err == nil {
		err = checkMetricNames(res.Metrics, b.trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	meta, _ := json.Marshal(map[string]any{"meta": b.meta})
	fmt.Println(string(meta))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// hostMeta records what a result depends on besides the code: the host's
// CPU count and Go settings, the commit the daemons were built from, and
// the run's inputs.
func hostMeta(b *bench) map[string]any {
	m := map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds,
		"trace":      b.trace,
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     buildCommit(b.bin("gvmd")),
		"source":     sourceDigest("."),
	}
	if s := daemonSpecs[b.workload]; s != nil {
		var rates []float64
		for _, r := range s.ladder {
			rates = append(rates, r.rateHz)
		}
		m["rate_ladder_hz"] = rates
		m["ref_rate_hz"] = s.ladder[s.ref].rateHz
		m["p99_limit_us"] = float64(s.p99Limit.Microseconds())
	}
	return m
}

// sourceDigest hashes every Go source and module file under root, so
// that results from a checkout that is not a git work tree still name
// the code they measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() && strings.HasPrefix(e.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if e.IsDir() || !(strings.HasSuffix(path, ".go") || e.Name() == "go.mod" || e.Name() == "papersim_ref.json") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// metricSet collects a run's metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// endToEndNames is every end-to-end metric a timed run prints, on every
// workload, with its unit (BENCHMARK.json lists the same).
var endToEndNames = [][2]string{
	{"setup_s", "s"},
	{"cycles_per_s", "1/s"},
	{"cycle_p50_us", "us"},
	{"cpu_us_per_cycle", "us"},
	{"max_rss_mb", "MB"},
	{"sim_runs_per_s", "1/s"},
}

// checkMetricNames fails a run whose metrics are not exactly the set its
// mode promises, with the promised units.
func checkMetricNames(ms map[string]metric, trace bool) error {
	want := endToEndNames
	if trace {
		want = perLayerNames
	}
	if len(ms) != len(want) {
		return fmt.Errorf("run produced %d metrics, want %d", len(ms), len(want))
	}
	for _, w := range want {
		m, ok := ms[w[0]]
		switch {
		case !ok:
			return fmt.Errorf("run did not produce metric %s", w[0])
		case m.Unit != w[1]:
			return fmt.Errorf("metric %s has unit %q, want %q", w[0], m.Unit, w[1])
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return fmt.Errorf("metric %s is %v", w[0], m.Value)
		}
	}
	return nil
}

// buildCommit reads the VCS revision the go toolchain stamped into a
// binary. A checkout that is not a git work tree has none.
func buildCommit(path string) string {
	info, err := buildinfo.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch {
		case s.Key == "vcs.revision":
			rev = s.Value
		case s.Key == "vcs.modified" && s.Value == "true":
			dirty = "+dirty"
		}
	}
	return rev + dirty
}
