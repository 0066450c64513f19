package ipc

import (
	"os"
	"sync"
	"testing"

	"gpuvirt/internal/cuda"
	"time"

	"gpuvirt/internal/sim"
	"gpuvirt/internal/workloads"
)

func tempSocket(t *testing.T) string {
	t.Helper()
	f, err := os.CreateTemp("/tmp", "gvmd-*.sock")
	if err != nil {
		t.Fatal(err)
	}
	path := f.Name()
	f.Close()
	os.Remove(path)
	t.Cleanup(func() { os.Remove(path) })
	return path
}

func startServer(t *testing.T, parties int, functional bool) *Server {
	t.Helper()
	dir := t.TempDir()
	s, err := NewServer(ServerConfig{
		Socket:     tempSocket(t),
		Parties:    parties,
		Functional: functional,
		ShmDir:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestSingleClientFunctionalVecAdd(t *testing.T) {
	s := startServer(t, 1, true)
	c, err := Dial(s.Addr(), s.cfg.ShmDir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 2048
	sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sess.InBytes() != 2*n*4 || sess.OutBytes() != n*4 {
		t.Fatalf("sizes = %d/%d", sess.InBytes(), sess.OutBytes())
	}
	in := make([]float32, 2*n)
	for i := 0; i < n; i++ {
		in[i] = float32(i)
		in[n+i] = 10
	}
	out := make([]byte, n*4)
	if err := sess.RunCycle(cuda.HostFloat32Bytes(in), out); err != nil {
		t.Fatal(err)
	}
	res := cuda.Float32s(byteMem(out), 0, n)
	for i := 0; i < n; i++ {
		if res[i] != float32(i)+10 {
			t.Fatalf("out[%d] = %g", i, res[i])
		}
	}
	if sess.VirtualMS <= 0 {
		t.Fatal("no virtual time reported")
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
}

type byteMem []byte

func (b byteMem) Bytes(p cuda.DevPtr, n int64) []byte { return b[p : int64(p)+n] }

func TestBarrierAcrossRealConnections(t *testing.T) {
	s := startServer(t, 3, false)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(s.Addr(), s.cfg.ShmDir)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			sess, err := c.Request(workloads.Ref{Name: "ep", Params: map[string]int{"m": 16, "grid": 4}}, i)
			if err != nil {
				errs[i] = err
				return
			}
			if err := sess.RunCycle(nil, nil); err != nil {
				errs[i] = err
				return
			}
			errs[i] = sess.Release()
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	s := startServer(t, 1, false)
	c, err := Dial(s.Addr(), s.cfg.ShmDir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Request(workloads.Ref{Name: "nope"}, 0); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestProtocolMisuse(t *testing.T) {
	s := startServer(t, 1, false)
	c, err := Dial(s.Addr(), s.cfg.ShmDir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 1024}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// STP before STR is rejected rather than hanging the daemon.
	if err := sess.verb("STP"); err == nil {
		t.Fatal("STP before STR accepted")
	}
	// Unknown session.
	if _, err := c.roundTrip(Request{Verb: "SND", Session: 9999}); err == nil {
		t.Fatal("unknown session accepted")
	}
	// Unknown verb.
	if _, err := c.roundTrip(Request{Verb: "BOGUS", Session: sess.ID()}); err == nil {
		t.Fatal("unknown verb accepted")
	}
}

func TestDisconnectCleansUpSessions(t *testing.T) {
	s := startServer(t, 1, false)
	c, err := Dial(s.Addr(), s.cfg.ShmDir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 1024}}, 0); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// The daemon releases the abandoned session; the manager ends with
	// zero open sessions. Poll briefly: cleanup is asynchronous.
	deadline := 400
	for ; deadline > 0; deadline-- {
		open := -1
		if !s.submitProbe(0, func() { open = s.node.Shard(0).Mgr.OpenSessions() }) {
			t.Fatal("server closed early")
		}
		if open == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("abandoned session never released")
}

// submitProbe runs fn on one shard's owner goroutine (test helper): it
// synchronizes with that shard's pending owner work before reading.
func (s *Server) submitProbe(shard int, fn func()) bool {
	return s.submit(shard, func(p *sim.Proc) { fn() })
}

func TestMultipleCyclesOneSession(t *testing.T) {
	s := startServer(t, 1, true)
	c, err := Dial(s.Addr(), s.cfg.ShmDir)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 512
	sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]float32, 2*n)
	out := make([]byte, n*4)
	for cycle := 0; cycle < 3; cycle++ {
		for i := 0; i < n; i++ {
			in[i] = float32(i * cycle)
			in[n+i] = 1
		}
		if err := sess.RunCycle(cuda.HostFloat32Bytes(in), out); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		res := cuda.Float32s(byteMem(out), 0, n)
		for i := 0; i < n; i++ {
			if res[i] != float32(i*cycle)+1 {
				t.Fatalf("cycle %d: out[%d] = %g", cycle, i, res[i])
			}
		}
	}
	if err := sess.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryRoundTrip(t *testing.T) {
	for _, name := range workloads.Names() {
		w, err := workloads.FromRef(workloads.Ref{Name: name})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if w.Spec == nil {
			t.Errorf("%s: nil spec", name)
		}
	}
	if _, err := workloads.FromRef(workloads.Ref{Name: "bogus"}); err == nil {
		t.Error("bogus ref accepted")
	}
}

func TestDaemonBarrierTimeoutUnwedges(t *testing.T) {
	// Parties=3 but only two clients ever show up: with a barrier
	// timeout the daemon flushes the partial batch and both complete.
	dir := t.TempDir()
	s, err := NewServer(ServerConfig{
		Socket:         tempSocket(t),
		Parties:        3,
		ShmDir:         dir,
		BarrierTimeout: 100 * sim.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(s.Addr(), dir)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			sess, err := c.Request(workloads.Ref{Name: "ep", Params: map[string]int{"m": 12, "grid": 4}}, i)
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = sess.RunCycle(nil, nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

func TestDaemonMultiGPU(t *testing.T) {
	// Barriers are per shard: with 2 shards at Parties=2 each,
	// least-sessions placement puts 2 of the 4 clients on each shard and
	// each shard's barrier fills independently.
	dir := t.TempDir()
	s, err := NewServer(ServerConfig{
		Socket:  tempSocket(t),
		Parties: 2,
		ShmDir:  dir,
		GPUs:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const clients = 4
	var wg, placed sync.WaitGroup
	errs := make([]error, clients)
	placed.Add(clients)
	for i := 0; i < clients; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := Dial(s.Addr(), dir)
			if err != nil {
				errs[i] = err
				placed.Done()
				return
			}
			defer c.Close()
			sess, err := c.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 4096}}, i)
			// Every session must be placed before any cycle runs: a pair
			// that finishes and hangs up first would free its shard, and
			// least-sessions would then split the late pair across both
			// shards, leaving each barrier one party short forever.
			placed.Done()
			if err != nil {
				errs[i] = err
				return
			}
			placed.Wait()
			errs[i] = sess.RunCycle(nil, nil)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if got := s.node.NumShards(); got != 2 {
		t.Fatalf("daemon owns %d shards, want 2", got)
	}
	for i := 0; i < 2; i++ {
		mgr := s.node.Shard(i).Mgr
		if got := mgr.SessionsOpened(); got != 2 {
			t.Errorf("gpu %d opened %d sessions, want 2", i, got)
		}
		if got := mgr.Flushes(); got != 1 {
			t.Errorf("gpu %d flushed %d batches, want 1", i, got)
		}
	}
}
