package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// timerSet is the interface the timer property test drives: n timers, each
// bound to one callback, re-armed and stopped by index.
type timerSet interface {
	reset(i int, at Time)
	stop(i int)
}

// realTimers is the implementation under test: one Timer per index.
type realTimers []*Timer

func (ts realTimers) reset(i int, at Time) { ts[i].Reset(at) }
func (ts realTimers) stop(i int)           { ts[i].Stop() }

// orphanTimers is the reference model, the scheme Timer replaced: every
// arm schedules a fresh At entry and bumps a generation, and an entry
// whose generation is stale fires as a no-op, orphaned in the calendar.
type orphanTimers struct {
	env  *Env
	gen  []uint64
	fire func(i int)
}

func (ts *orphanTimers) reset(i int, at Time) {
	ts.gen[i]++
	g := ts.gen[i]
	ts.env.At(at, func() {
		if ts.gen[i] == g {
			ts.gen[i]++ // fired: a later stop must not matter
			ts.fire(i)
		}
	})
}

func (ts *orphanTimers) stop(i int) { ts.gen[i]++ }

// timerTrace runs one seeded random mix of At, After, Reset and Stop and
// returns the firing order, "who@instant" per callback. Every callback
// draws its follow-up operations from the same seeded stream, so two
// implementations that fire identically consume identical scripts.
// Instants are drawn from a window of a few nanoseconds around now, so
// same-instant ties, re-arms to the current instant and past instants
// (which clamp to now) are common.
func timerTrace(t *testing.T, seed int64, reference bool) []string {
	const nTimers = 4
	rng := rand.New(rand.NewSource(seed))
	e := NewEnv()
	var trace []string
	budget := 300
	var act func(who string)
	var ts timerSet
	if reference {
		ts = &orphanTimers{env: e, gen: make([]uint64, nTimers), fire: func(i int) { act(fmt.Sprintf("T%d", i)) }}
	} else {
		rt := make(realTimers, nTimers)
		for i := range rt {
			i := i
			rt[i] = e.NewTimer(func() { act(fmt.Sprintf("T%d", i)) })
		}
		ts = rt
	}
	act = func(who string) {
		trace = append(trace, fmt.Sprintf("%s@%d", who, e.Now()))
		for k := rng.Intn(4); k > 0 && budget > 0; k-- {
			budget--
			id := budget
			at := e.Now() + Time(rng.Intn(5)) - 1
			switch op := rng.Intn(8); {
			case op == 0:
				e.At(at, func() { act(fmt.Sprintf("A%d", id)) })
			case op == 1:
				e.After(Duration(rng.Intn(3)), func() { act(fmt.Sprintf("F%d", id)) })
			case op < 6:
				ts.reset(rng.Intn(nTimers), at)
			default:
				ts.stop(rng.Intn(nTimers))
			}
		}
		if !reference {
			checkCalendar(t, e, nTimers)
		}
	}
	e.At(0, func() { act("start") })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	return trace
}

// checkCalendar asserts the heap invariant, that every timer-owned entry
// sits where its timer's index says, and that timers hold at most one
// entry each: nothing orphaned.
func checkCalendar(t *testing.T, e *Env, nTimers int) {
	t.Helper()
	owned := 0
	for i, it := range e.cal {
		if i > 0 && it.less(e.cal[(i-1)/2]) {
			t.Fatalf("heap order broken at slot %d", i)
		}
		if it.tm != nil {
			owned++
			if it.tm.idx != i {
				t.Fatalf("timer entry in slot %d records index %d", i, it.tm.idx)
			}
		}
	}
	if owned > nTimers {
		t.Fatalf("%d timer entries in the calendar for %d timers", owned, nTimers)
	}
}

// TestTimerMatchesOrphanScheme is the Timer property: for seeded random
// mixes of At/After/Reset/Stop the firing order, ties included, equals
// that of the arm-a-fresh-entry-and-orphan-the-old-one scheme it
// replaces.
func TestTimerMatchesOrphanScheme(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		got := timerTrace(t, seed, false)
		want := timerTrace(t, seed, true)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d firings, reference %d\ngot  %v\nwant %v", seed, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is %s, reference %s\ngot  %v\nwant %v", seed, i, got[i], want[i], got, want)
			}
		}
	}
}

func TestTimerResetMovesStopRemoves(t *testing.T) {
	e := NewEnv()
	fired := 0
	tm := e.NewTimer(func() { fired++ })
	tm.Reset(10)
	tm.Reset(20) // moves, does not add
	if len(e.cal) != 1 || tm.idx != 0 {
		t.Fatalf("%d calendar entries (timer slot %d) after two Resets, want the one slot 0", len(e.cal), tm.idx)
	}
	tm.Stop()
	tm.Stop() // idempotent
	if len(e.cal) != 0 || tm.idx != -1 {
		t.Fatalf("%d calendar entries (timer slot %d) after Stop, want none", len(e.cal), tm.idx)
	}
	tm.Reset(5)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 1 || e.Now() != 5 || tm.idx != -1 {
		t.Fatalf("fired %d times, now=%v, slot %d; want once at 5 and unarmed", fired, e.Now(), tm.idx)
	}
}

// TestTimerResetStopZeroAlloc: re-arming and stopping a warm timer, in
// the heap or for the current instant, allocates nothing.
func TestTimerResetStopZeroAlloc(t *testing.T) {
	e := NewEnv()
	fn := func() {}
	var ts []*Timer
	for i := 0; i < 8; i++ {
		tm := e.NewTimer(fn)
		tm.Reset(Time(100 + i))
		ts = append(ts, tm)
	}
	tm := ts[3]
	tm.Reset(e.Now())
	if err := e.Run(); err != nil { // warm nowQ's capacity
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i, other := range ts {
			other.Reset(e.Now() + Time(50+(i*7)%11))
		}
		tm.Reset(e.Now() + 200)
		tm.Reset(e.Now() + 1)
		tm.Stop()
		tm.Reset(e.Now() + 3)
	})
	if allocs != 0 {
		t.Fatalf("future Reset/Stop: %v allocs per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		tm.Reset(e.Now())
		tm.Stop()
		tm.Reset(e.Now())
		_ = e.RunUntil(e.Now())
	})
	if allocs != 0 {
		t.Fatalf("same-instant Reset/Stop: %v allocs per run, want 0", allocs)
	}
}
