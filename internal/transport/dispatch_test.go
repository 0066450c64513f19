package transport

import (
	"testing"

	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/node"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/workloads"
)

// TestREQFailsOverShardFaultedAfterPlace pins the REQ path's answer to a
// shard that faults between placement and session open: Place picks
// shard 0, the shard faults fatally before its owner runs the open, and
// the REQ must land on shard 1 instead of being rejected. Afterwards
// neither shard may hold a reservation or an open session.
func TestREQFailsOverShardFaultedAfterPlace(t *testing.T) {
	n, err := node.New(node.Config{GPUs: 2, Placement: "round-robin"})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	d := NewDispatcher(DispatcherConfig{Node: n})
	var ran []int
	submit := func(shard int, fn func(p *sim.Proc)) bool {
		sh := n.Shard(shard)
		ran = append(ran, shard)
		if shard == 0 {
			// Placement already chose this shard; the fault lands before
			// the owner opens the session.
			sh.Dev.InjectFault(gpusim.XidFatal)
		}
		done := false
		sh.Env.Go("req", func(p *sim.Proc) {
			p.Daemonize()
			fn(p)
			done = true
		})
		if err := sh.Env.Run(); err != nil {
			t.Fatalf("gpu %d: %v", shard, err)
		}
		return done
	}
	cs := &ConnState{DefaultPlane: PlaneInline}
	ref := workloads.Ref{Name: "vecadd", Params: map[string]int{"n": 256}}
	resp, ok := d.Serve(Request{Verb: "REQ", Ref: &ref}, cs, submit)
	if !ok || resp.Status != "ACK" {
		t.Fatalf("REQ = %+v (ok %v), want ACK after failing over", resp, ok)
	}
	if len(ran) != 2 || ran[0] != 0 || ran[1] != 1 {
		t.Fatalf("owner phases ran on shards %v, want [0 1]", ran)
	}
	if got := n.SessionShard(resp.Session); got != 1 {
		t.Fatalf("session %d minted by shard %d, want 1", resp.Session, got)
	}
	if h := n.Health(0); h != node.Unhealthy {
		t.Fatalf("shard 0 health %v, want unhealthy", h)
	}
	if resp, ok := d.Serve(Request{Verb: "RLS", Session: resp.Session}, cs, submit); !ok || resp.Status != "ACK" {
		t.Fatalf("RLS = %+v (ok %v)", resp, ok)
	}
	for i, l := range n.Loads() {
		if l.Sessions != 0 || l.Bytes != 0 {
			t.Errorf("shard %d still has %d sessions, %d bytes placed", i, l.Sessions, l.Bytes)
		}
		if open := n.Shard(i).Mgr.OpenSessions(); open != 0 {
			t.Errorf("shard %d manager has %d open sessions", i, open)
		}
	}
}
