package sim

import (
	"runtime"
	"testing"
	"time"
)

// runAsync calls e.Run on a fresh goroutine and reports how it ended:
// returned (with Run's error), panicked (with the value) or exited via
// runtime.Goexit. It fails the test instead of hanging if Run never
// finishes.
func runAsync(t *testing.T, e *Env) (err error, panicked any, goexited bool) {
	t.Helper()
	type outcome struct {
		err      error
		panicked any
		returned bool
	}
	ch := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			o.panicked = recover()
			ch <- o
		}()
		o.err = e.Run()
		o.returned = true
	}()
	select {
	case o := <-ch:
		return o.err, o.panicked, !o.returned && o.panicked == nil
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not finish")
		return nil, nil, false
	}
}

// TestProcGoexitPropagatesToRun pins what t.Fatal inside an env.Go body
// does: the process's runtime.Goexit repeats in the goroutine that called
// Run, instead of leaving Run waiting forever for the process to park.
func TestProcGoexitPropagatesToRun(t *testing.T) {
	e := NewEnv()
	deferred, after := false, false
	e.Go("fatal", func(p *Proc) {
		defer func() { deferred = true }()
		p.Sleep(5)
		runtime.Goexit()
	})
	e.At(10, func() { after = true })
	_, panicked, goexited := runAsync(t, e)
	if !goexited || panicked != nil {
		t.Fatalf("Run ended with panic=%v goexit=%v, want the process's Goexit", panicked, goexited)
	}
	if !deferred {
		t.Fatal("the process's deferred calls did not run")
	}
	if after || e.Now() != 5 {
		t.Fatalf("simulation went on after the Goexit (now=%v, later event ran=%v)", e.Now(), after)
	}
}

// TestProcPanicPropagatesToRun: a panicking process re-panics in Run's
// caller with the same value, where it can be recovered, rather than
// killing the program from a goroutine nobody can recover on.
func TestProcPanicPropagatesToRun(t *testing.T) {
	e := NewEnv()
	type boom struct{ at Time }
	e.Go("panics", func(p *Proc) {
		p.Sleep(7)
		panic(boom{p.Now()})
	})
	err, panicked, goexited := runAsync(t, e)
	if got, ok := panicked.(boom); !ok || got.at != 7 {
		t.Fatalf("Run ended with err=%v panic=%v goexit=%v, want panic boom{7}", err, panicked, goexited)
	}
}

// TestCloseUnwindsParkedProcesses: Close ends processes parked on a
// condition, on time and not yet started, running their deferred calls,
// and leaves no coroutine behind.
func TestCloseUnwindsParkedProcesses(t *testing.T) {
	g0 := runtime.NumGoroutine()
	e := NewEnv()
	never := e.NewEvent()
	var unwound []string
	reachedEnd := false
	for _, name := range []string{"waiter", "daemon"} {
		name := name
		e.Go(name, func(p *Proc) {
			defer func() { unwound = append(unwound, name) }()
			if name == "daemon" {
				p.Daemonize()
			}
			p.Wait(never)
			reachedEnd = true
		})
	}
	e.Go("sleeper", func(p *Proc) {
		defer func() { unwound = append(unwound, "sleeper") }()
		p.Sleep(100)
		reachedEnd = true
	})
	if err := e.RunUntil(50); err != nil {
		t.Fatal(err)
	}
	e.Go("unstarted", func(p *Proc) { reachedEnd = true })
	e.Close()
	if reachedEnd {
		t.Fatal("a closed process ran past the call it was parked in")
	}
	if len(unwound) != 3 {
		t.Fatalf("deferred calls ran for %v, want waiter, daemon and sleeper", unwound)
	}
	if len(e.live) != 0 {
		t.Fatalf("%d processes still live after Close", len(e.live))
	}
	// Coroutine goroutines exit asynchronously after their last switch.
	for i := 0; i < 100 && runtime.NumGoroutine() > g0; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > g0 {
		t.Fatalf("%d goroutines after Close, %d before the simulation", n, g0)
	}
}

// BenchmarkProcSwitch measures one park/resume round trip of a process:
// Sleep parks it and the scheduler resumes it from the calendar one
// nanosecond later.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEnv()
	e.Go("sleeper", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
