package main

import (
	"bytes"
	"fmt"
	"math"
	"sync/atomic"

	"gpuvirt/internal/cuda"
	"gpuvirt/internal/task"
	"gpuvirt/internal/workloads"
)

// flatMem is a host byte arena addressed like device memory, so a
// workload's kernels can run on the functional executor outside any
// simulated device. Allocations bump a pointer.
type flatMem struct{ buf []byte }

func (m *flatMem) Bytes(p cuda.DevPtr, n int64) []byte { return m.buf[p : int64(p)+n : int64(p)+n] }

func (m *flatMem) Malloc(n int64) (cuda.DevPtr, error) {
	p := cuda.DevPtr(len(m.buf))
	m.buf = append(m.buf, make([]byte, (n+255)&^255)...)
	return p, nil
}

func (m *flatMem) Free(cuda.DevPtr) error { return nil }

// kernelImage is a workload's kernels built over a flat host arena, with
// the input and output staging regions at known offsets.
type kernelImage struct {
	mem     *flatMem
	in, out cuda.DevPtr
	inB     int64
	outB    int64
	kernels []*cuda.Kernel
}

func buildImage(spec *task.Spec) (*kernelImage, error) {
	im := &kernelImage{mem: &flatMem{}, inB: spec.InBytes, outB: spec.OutBytes}
	im.in, _ = im.mem.Malloc(spec.InBytes)
	im.out, _ = im.mem.Malloc(spec.OutBytes)
	var scratch []cuda.DevPtr
	ks, err := spec.Build(&task.Buffers{In: im.in, Out: im.out, Alloc: im.mem, Scratch: &scratch})
	if err != nil {
		return nil, err
	}
	im.kernels = ks
	return im, nil
}

// run stages in, launches every kernel on ex and returns the output
// region (aliasing the arena).
func (im *kernelImage) run(ex *cuda.Executor, in []byte) ([]byte, error) {
	copy(im.mem.Bytes(im.in, im.inB), in)
	for _, k := range im.kernels {
		if err := ex.Run(k, im.mem); err != nil {
			return nil, err
		}
	}
	return im.mem.Bytes(im.out, im.outB), nil
}

// fillRank maps the workload seed and a session index to the rank whose
// input workloads.Fill generates, so every seed stages different bytes.
func fillRank(seed int64, session int) int {
	return int(uint64(seed)%1000)*4 + session
}

// sessionRef is one session's generated input and the output every
// cycle must return, computed once at set-up.
type sessionRef struct {
	rank int
	in   []byte
	want []byte
}

// makeRefs generates each session's input with workloads.Fill, computes
// the expected output on the functional executor and validates it with
// workloads.Check, so the reference itself is known good before any
// daemon output is compared against it.
func makeRefs(w workloads.Workload, seed int64, sessions int) ([]sessionRef, error) {
	refs := make([]sessionRef, sessions)
	for i := range refs {
		rank := fillRank(seed, i)
		spec := w.Spec(rank)
		in := make([]byte, spec.InBytes)
		w.Fill(rank, in)
		im, err := buildImage(spec)
		if err != nil {
			return nil, err
		}
		out, err := im.run(cuda.NewExecutor(0), in)
		if err != nil {
			return nil, err
		}
		if err := w.Check(rank, out); err != nil {
			return nil, fmt.Errorf("reference output fails workloads.Check: %w", err)
		}
		refs[i] = sessionRef{rank: rank, in: in, want: append([]byte(nil), out...)}
	}
	return refs, nil
}

// checker compares every cycle's output bytes and virtual time against
// the set-up reference and counts attempts and failures. It is safe for
// concurrent use by the cycle-issuing goroutines.
type checker struct {
	refs []sessionRef
	// virtMS is the simulated duration of one cycle on an otherwise idle
	// GPU shard. A session alone on its shard must advance the shard
	// clock by exactly this much per cycle. A session that shares its
	// shard advances it by at least this much: its own copies and kernel
	// run in order, and the other sessions' work can only add to the
	// span, fully or partly overlapped.
	virtMS    float64
	shared    bool
	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  atomic.Pointer[error]
}

// virtTol absorbs float64 rounding of millisecond clock readings.
const virtTol = 1e-9

// cycle records one cycle's outcome. dv is the change of the session's
// virtual clock across the cycle, NaN when the clock had no earlier
// reading (a session's first cycle).
func (c *checker) cycle(session int, out []byte, dv float64, err error) bool {
	c.attempted.Add(1)
	if err == nil {
		err = c.verify(session, out, dv)
	}
	if err != nil {
		c.failed.Add(1)
		c.firstErr.CompareAndSwap(nil, &err)
		return false
	}
	return true
}

func (c *checker) verify(session int, out []byte, dv float64) error {
	if !bytes.Equal(out, c.refs[session].want) {
		return fmt.Errorf("session %d: output differs from reference", session)
	}
	if c.virtMS <= 0 || math.IsNaN(dv) {
		return nil
	}
	tol := virtTol * math.Max(1, dv/c.virtMS)
	switch {
	case c.shared && dv < c.virtMS-tol:
		return fmt.Errorf("session %d: cycle advanced virtual clock by %.9f ms, want at least %.9f ms", session, dv, c.virtMS)
	case !c.shared && math.Abs(dv-c.virtMS) > tol:
		return fmt.Errorf("session %d: cycle advanced virtual clock by %.9f ms, want %.9f ms", session, dv, c.virtMS)
	}
	return nil
}

func (c *checker) err() error {
	if p := c.firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// selfTest feeds the checker a corrupted output and a wrong virtual time
// and confirms both are counted as failures, then restores the counts.
// A checker that passed corrupted bytes would make every run "correct".
func (c *checker) selfTest() error {
	bad := append([]byte(nil), c.refs[0].want...)
	bad[len(bad)/2] ^= 0x01
	before := c.failed.Load()
	c.cycle(0, bad, c.virtMS, nil)
	if c.virtMS > 0 {
		c.cycle(0, c.refs[0].want, c.virtMS*0.5, nil)
	}
	got := c.failed.Load() - before
	want := int64(1)
	if c.virtMS > 0 {
		want = 2
	}
	c.attempted.Store(0)
	c.failed.Store(0)
	c.firstErr.Store(nil)
	if got != want {
		return fmt.Errorf("checker self-test: %d of %d corrupted cycles counted as failed", got, want)
	}
	return nil
}
