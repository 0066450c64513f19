package main

import (
	"math"
	"testing"

	"gpuvirt/internal/workloads"
)

func testChecker(t *testing.T, shared bool) *checker {
	t.Helper()
	refs, err := makeRefs(workloads.VectorAdd(1024), 42, sessions)
	if err != nil {
		t.Fatal(err)
	}
	return &checker{refs: refs, virtMS: 0.25, shared: shared}
}

func TestCheckerCountsCorruptedOutput(t *testing.T) {
	c := testChecker(t, false)
	good := append([]byte(nil), c.refs[1].want...)
	if !c.cycle(1, good, 0.25, nil) {
		t.Fatalf("correct output rejected: %v", c.err())
	}
	bad := append([]byte(nil), good...)
	bad[100] ^= 0x80
	if c.cycle(1, bad, 0.25, nil) {
		t.Fatal("corrupted output accepted")
	}
	if c.cycle(0, good, 0.25, nil) {
		t.Fatal("session 1's output accepted as session 0's")
	}
	if c.cycle(1, good, 0.5, nil) {
		t.Fatal("a solo cycle that took two cycle times was accepted")
	}
	if !c.cycle(1, good, math.NaN(), nil) {
		t.Fatal("a first cycle without a clock reading was rejected")
	}
	if got := c.failed.Load(); got != 3 {
		t.Fatalf("%d failures counted, want 3", got)
	}
	if got := c.attempted.Load(); got != 5 {
		t.Fatalf("%d attempts counted, want 5", got)
	}
}

func TestCheckerSharedShardLowerBound(t *testing.T) {
	c := testChecker(t, true)
	want := c.refs[0].want
	if !c.cycle(0, want, 0.25*1.43, nil) {
		t.Fatalf("a partly overlapped shared cycle was rejected: %v", c.err())
	}
	if c.cycle(0, want, 0.2, nil) {
		t.Fatal("a cycle shorter than the solo cycle was accepted")
	}
}

func TestCheckerSelfTest(t *testing.T) {
	for _, shared := range []bool{false, true} {
		c := testChecker(t, shared)
		if err := c.selfTest(); err != nil {
			t.Fatal(err)
		}
		if c.attempted.Load() != 0 || c.failed.Load() != 0 || c.err() != nil {
			t.Fatal("self-test left counts behind")
		}
	}
}

func TestReferenceOutputPassesWorkloadCheck(t *testing.T) {
	w := workloads.VectorAdd(4096)
	refs, err := makeRefs(w, 9, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range refs {
		if err := w.Check(r.rank, r.want); err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
	if refs[0].rank == refs[1].rank {
		t.Fatal("two sessions share one input")
	}
}
