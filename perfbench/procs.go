package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat. It
// is fixed at 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one gvmd or gvmfed process the benchmark launched from the
// repository's own binaries. Its addr-file tells the benchmark where the
// process listens and where its metrics (and the pprof handlers mounted
// on the same mux) are served.
type daemon struct {
	name     string
	cmd      *exec.Cmd
	addrFile string
	addr     string
	metrics  string // http://host:port/metrics
	logPath  string
	exited   chan struct{}
	waitErr  error
}

// live tracks every daemon still running, so that an interrupted
// benchmark can stop them before it exits.
var live struct {
	sync.Mutex
	ds map[*daemon]bool
}

// killLive kills every daemon still running and waits for each to end.
func killLive() {
	live.Lock()
	var ds []*daemon
	for d := range live.ds {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}

// startDaemon launches bin with args and waits until its addr-file
// appears (it is written only after every listener is bound).
func startDaemon(name, bin, addrFile, logPath string, args ...string) (*daemon, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, addrFile: addrFile, logPath: logPath, exited: make(chan struct{})}
	live.Lock()
	if live.ds == nil {
		live.ds = map[*daemon]bool{}
	}
	live.ds[d] = true
	live.Unlock()
	go func() {
		d.waitErr = cmd.Wait()
		logf.Close()
		live.Lock()
		delete(live.ds, d)
		live.Unlock()
		close(d.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			lines := strings.Split(strings.TrimSpace(string(b)), "\n")
			d.addr = lines[0]
			for _, l := range lines[1:] {
				if strings.HasPrefix(l, "http://") {
					d.metrics = l
				}
			}
			return d, nil
		}
		select {
		case <-d.exited:
			return nil, fmt.Errorf("%s exited during start-up: %v (log %s)", name, d.waitErr, logPath)
		case <-time.After(200 * time.Microsecond):
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("%s: no addr-file after 20s (log %s)", name, logPath)
		}
	}
}

// stop sends SIGTERM (the daemons' clean-shutdown signal, which unlinks
// sockets, addr-files and shm segments) and waits for the process to
// end, killing it after a grace period.
func (d *daemon) stop() error {
	select {
	case <-d.exited:
		return d.waitErr
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return fmt.Errorf("%s ignored SIGTERM for 10s and was killed", d.name)
	}
	return d.waitErr
}

// cpuSeconds reads the daemon's user+system CPU time.
func (d *daemon) cpuSeconds() (float64, error) { return procCPUSeconds(d.cmd.Process.Pid) }

// procCPUSeconds reads a process's user+system CPU time from
// /proc/<pid>/stat.
func procCPUSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, 12 and 13 after the name.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / clockTicks, nil
}

// peakRSSMB reads VmHWM (peak resident set) from /proc/<pid>/status.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// promSamples is one scrape of a Prometheus text endpoint, keyed by the
// full series name including labels, e.g. `gvm_flushes_total{gpu="0"}`.
type promSamples map[string]float64

var httpClient = &http.Client{Timeout: 5 * time.Second}

func httpGet(url string) ([]byte, error) {
	resp, err := httpClient.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return io.ReadAll(resp.Body)
}

// scrape reads the daemon's /metrics endpoint.
func (d *daemon) scrape() (promSamples, error) {
	if d.metrics == "" {
		return nil, fmt.Errorf("%s serves no metrics", d.name)
	}
	b, err := httpGet(d.metrics)
	if err != nil {
		return nil, err
	}
	out := promSamples{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// sum adds every series of the named metric (all label sets) whose
// labels contain each of the given label fragments.
func (p promSamples) sum(name string, labels ...string) float64 {
	var t float64
	for k, v := range p {
		base, lab, _ := strings.Cut(k, "{")
		if base != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				ok = false
			}
		}
		if ok {
			t += v
		}
	}
	return t
}

// histQuantile estimates quantile q of the named histogram over the
// interval between two scrapes, from the bucket deltas, interpolating
// linearly inside the bucket (histogram_quantile semantics).
func histQuantile(before, after promSamples, name, label string, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range after {
		base, lab, _ := strings.Cut(k, "{")
		if base != name+"_bucket" || !strings.Contains(lab, label) {
			continue
		}
		i := strings.Index(lab, `le="`)
		if i < 0 {
			continue
		}
		les := lab[i+4:]
		les = les[:strings.IndexByte(les, '"')]
		le, err := strconv.ParseFloat(les, 64)
		if les == "+Inf" {
			le, err = inf, nil
		}
		if err != nil {
			continue
		}
		bs = append(bs, bucket{le, v - before[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].n <= 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].n
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= rank {
			if b.le == inf {
				return lo
			}
			if b.n == prev {
				return b.le
			}
			return lo + (b.le-lo)*(rank-prev)/(b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return lo
}

// memStats reads the runtime.MemStats counters the pprof heap endpoint
// prints (served on the same mux as /metrics).
func (d *daemon) memStats() (mallocs, numGC float64, err error) {
	b, err := httpGet(strings.TrimSuffix(d.metrics, "/metrics") + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, 0, err
	}
	var gotM, gotG bool
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "# Mallocs = "); ok {
			mallocs, err = strconv.ParseFloat(v, 64)
			gotM = err == nil
		}
		if v, ok := strings.CutPrefix(line, "# NumGC = "); ok {
			numGC, err = strconv.ParseFloat(v, 64)
			gotG = err == nil
		}
	}
	if !gotM || !gotG {
		return 0, 0, fmt.Errorf("%s: no MemStats in heap profile", d.name)
	}
	return mallocs, numGC, nil
}

// leakCheck asserts that a torn-down run left nothing behind in its
// directory: no shm segment, socket or addr-file, and that none of the
// launched processes is still alive.
func leakCheck(dir string, ds []*daemon) error {
	var leaks []string
	err := filepath.WalkDir(dir, func(path string, e os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		switch {
		case e.IsDir():
		case strings.HasPrefix(name, "gvmd-seg-"):
			leaks = append(leaks, "segment "+path)
		case strings.HasSuffix(name, ".addr"):
			leaks = append(leaks, "addr-file "+path)
		default:
			if info, err := e.Info(); err == nil && info.Mode()&os.ModeSocket != 0 {
				leaks = append(leaks, "socket "+path)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, d := range ds {
		select {
		case <-d.exited:
		default:
			leaks = append(leaks, fmt.Sprintf("process %s (pid %d)", d.name, d.cmd.Process.Pid))
		}
	}
	if len(leaks) > 0 {
		return fmt.Errorf("teardown leaked: %s", strings.Join(leaks, "; "))
	}
	return nil
}
