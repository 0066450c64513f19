package ipc

import (
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"runtime"
	"strconv"
	"sync"
	"time"

	"gpuvirt/internal/fermi"
	"gpuvirt/internal/gpusim"
	"gpuvirt/internal/metrics"
	"gpuvirt/internal/node"
	"gpuvirt/internal/shm"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/transport"
)

// ServerConfig configures a daemon.
type ServerConfig struct {
	// Socket is the legacy single-unix-socket form; it is equivalent to
	// prepending "unix://<Socket>" to Listen.
	Socket string
	// Listen is the set of transport addresses to serve:
	// "unix:///tmp/gvmd.sock", "tcp://:7070", "inproc://name". A daemon
	// may listen on several at once; sessions from every transport share
	// the one manager (and its STR barrier).
	Listen     []string
	Arch       fermi.Arch // zero value: Tesla C2070
	Parties    int        // STR barrier width (default 1)
	Functional bool       // carry real data end to end
	ShmDir     string     // shm data-plane directory ("" = /dev/shm)
	// ExecWorkers sizes the functional kernel-execution worker pool
	// (gpusim.Config.ExecWorkers): 0 = GOMAXPROCS, 1 = serial.
	ExecWorkers int
	// PreemptRatio is each GPU's wave-boundary preemption threshold
	// (gpusim.Config.PreemptRatio): a pending kernel preempts an active
	// one iff its weight exceeds ratio x the active kernel's weight.
	// 0 = default 1.0; negative disables preemption.
	PreemptRatio float64
	// GPUs is the number of per-GPU manager shards the daemon runs
	// (default 1). Each shard is an independent sim.Env + device +
	// gvm.Manager with its own owner goroutine, so shards serve verbs in
	// parallel; Parties is the STR barrier width of EACH shard.
	GPUs int
	// Placement names the policy assigning new sessions to shards (see
	// node.PolicyNames; default least-sessions).
	Placement string
	// JSONWire selects the newline-delimited JSON control-plane codec
	// instead of the default binary frames — a debugging aid (frames are
	// readable with socat); clients must dial with DialJSON. Clients
	// announce their codec in a one-byte preamble, so a mismatch is
	// rejected with a clear error instead of a frame-decode failure.
	JSONWire bool
	// MaxSessionBytes caps one session's staging footprint
	// (InBytes+OutBytes); REQ beyond the limit is rejected with a clear
	// error. 0 = no per-session limit.
	MaxSessionBytes int64
	// Overcommit is the quota-admission factor (gvmd -overcommit): each
	// GPU admits sessions while their reserved bytes stay within
	// Overcommit x its device capacity, relying on the managers' eviction
	// engine to page idle sessions to host snapshots. 0 or 1 = classic
	// fit-or-reject admission.
	Overcommit float64
	// BarrierTimeout flushes a partial STR batch after this much virtual
	// time, so a crashed client cannot wedge the daemon (0 = strict).
	// Caveat: the daemon drains virtual time eagerly after every request,
	// so virtual time races far ahead of wall time and an armed timeout
	// fires during the next drain — with a timeout set, barrier batching
	// effectively degrades to per-request flushing. Use it as a liveness
	// guard, not as a grace period.
	BarrierTimeout sim.Duration
	Logger         *log.Logger
	// FaultPlan, when non-nil, installs seeded fault injectors on the
	// shards' launch paths (gvmd -fault-inject). Injected faults escalate
	// shard health; Unhealthy shards are evacuated automatically by live
	// session migration.
	FaultPlan *gpusim.FaultPlan
	// Metrics is the registry shared by the manager, the dispatcher and
	// the server's own connection instruments; a /metrics scrape of it
	// covers the whole daemon path. nil creates one (Server.Metrics()).
	Metrics *metrics.Registry
	// Slog receives structured logging: one Debug line per verb served
	// and one Info line per barrier flush. nil disables it.
	Slog *slog.Logger
}

// Server is the gvmd daemon: it owns a node of per-GPU manager shards
// and serves the six-verb protocol to real OS processes over any set of
// transports (unix, tcp, inproc). All verb handling lives in the shared
// transport.Dispatcher; each shard's simulation work runs on that
// shard's own owner goroutine — connection handlers submit closures to
// the owning shard and wait, so the deterministic single-threaded
// discipline of each simulator is preserved under concurrent clients
// while distinct shards run in parallel.
type Server struct {
	cfg ServerConfig
	lns []transport.Listener

	work []chan workItem // one owner queue per shard
	quit chan struct{}

	node  *node.Node
	disp  *transport.Dispatcher
	rings *transport.RingHost // non-nil when a ring:// listener is bound

	met serverMetrics

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup
}

// serverMetrics are the server's own connection-layer instruments; the
// managers' and dispatcher's series live in the same shared registry.
type serverMetrics struct {
	connections *metrics.Gauge       // live client connections
	disconnects *metrics.Counter     // connections that have ended
	frameErrors *metrics.Counter     // bad preambles, codec mismatches, non-EOF read errors
	queueWaitNS []*metrics.Histogram // per shard: wall ns a submit waited for its owner goroutine
}

type workItem struct {
	fn       func(p *sim.Proc)
	done     chan struct{}
	enqueued time.Time
}

// NewServer creates and starts a daemon listening on every address in
// cfg.Listen (plus cfg.Socket, if set).
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Arch.SMs == 0 {
		cfg.Arch = fermi.TeslaC2070()
	}
	if cfg.Parties == 0 {
		cfg.Parties = 1
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	addrs := cfg.Listen
	if cfg.Socket != "" {
		addrs = append([]string{"unix://" + cfg.Socket}, addrs...)
	}
	if len(addrs) == 0 {
		return nil, errors.New("ipc: no listen address (set Socket or Listen)")
	}
	var lns []transport.Listener
	closeAll := func() {
		for _, ln := range lns {
			ln.Close()
		}
	}
	for _, addr := range addrs {
		ln, err := transport.ListenAddr(addr)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("ipc: listen %s: %w", addr, err)
		}
		lns = append(lns, ln)
	}
	if cfg.GPUs == 0 {
		cfg.GPUs = 1
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	s := &Server{
		cfg:  cfg,
		lns:  lns,
		quit: make(chan struct{}),
		met: serverMetrics{
			connections: cfg.Metrics.Gauge("ipc_connections", "live client connections"),
			disconnects: cfg.Metrics.Counter("ipc_disconnects_total", "client connections ended"),
			frameErrors: cfg.Metrics.Counter("ipc_frame_errors_total", "bad preambles, codec mismatches and non-EOF frame read errors"),
		},
	}
	n, err := node.New(node.Config{
		GPUs:            cfg.GPUs,
		Arch:            cfg.Arch,
		Functional:      cfg.Functional,
		ExecWorkers:     cfg.ExecWorkers,
		PreemptRatio:    cfg.PreemptRatio,
		Parties:         cfg.Parties,
		Placement:       cfg.Placement,
		MaxSessionBytes: cfg.MaxSessionBytes,
		Overcommit:      cfg.Overcommit,
		BarrierTimeout:  cfg.BarrierTimeout,
		FaultPlan:       cfg.FaultPlan,
		Metrics:         cfg.Metrics,
		Log:             cfg.Slog,
	})
	if err != nil {
		closeAll()
		return nil, err
	}
	s.node = n
	if err := n.Start(); err != nil { // bring every shard's manager up
		closeAll()
		return nil, err
	}
	// A ring:// listener turns the ring control plane on: the daemon lays
	// a doorbell segment out and runs each shard owner as a sweep loop
	// instead of a blocking queue receiver.
	for _, ln := range lns {
		if ln.Scheme() == "ring" {
			rh, rerr := transport.NewRingHost(transport.RingHostConfig{
				ShmDir:  cfg.ShmDir,
				Shards:  n.NumShards(),
				Metrics: cfg.Metrics,
			})
			if rerr != nil {
				closeAll()
				return nil, rerr
			}
			s.rings = rh
			break
		}
	}
	s.disp = transport.NewDispatcher(transport.DispatcherConfig{
		Node:       n,
		Functional: cfg.Functional,
		ShmDir:     cfg.ShmDir,
		Metrics:    cfg.Metrics,
		Log:        cfg.Slog,
		Rings:      s.rings,
	})
	s.work = make([]chan workItem, n.NumShards())
	s.met.queueWaitNS = make([]*metrics.Histogram, n.NumShards())
	for i := range s.work {
		s.work[i] = make(chan workItem)
		s.met.queueWaitNS[i] = cfg.Metrics.Histogram("gvmd_owner_queue_wait_ns",
			"wall ns a request waited for the shard's simulation-owner goroutine",
			metrics.L("gpu", strconv.Itoa(i)))
	}
	// Failover: a shard escalating to a state that demands evacuation
	// (Unhealthy after a hang/fatal fault, or Draining) hands every one
	// of its sessions to the dispatcher's live-migration engine. The
	// handler fires on the shard's own goroutine mid-escalation, so the
	// evacuation — which submits owner work — runs in the background.
	n.SetFaultHandler(func(shard int, h node.HealthState) {
		if !h.Evacuate() {
			return
		}
		go s.disp.EvacuateShard(shard, s.submit)
	})
	s.wg.Add(n.NumShards() + len(lns))
	for i := range s.work {
		go s.owner(i)
	}
	if s.rings != nil {
		s.wg.Add(n.NumShards())
		for i := 0; i < n.NumShards(); i++ {
			go s.waker(s.rings.Shard(i))
		}
	}
	for _, ln := range lns {
		go s.accept(ln)
	}
	return s, nil
}

// Metrics returns the daemon's shared telemetry registry (every shard's
// manager, the dispatcher, the node and connection-layer series).
func (s *Server) Metrics() *metrics.Registry { return s.cfg.Metrics }

// Node returns the daemon's shard layer: per-GPU managers plus the
// placement policy. Tests and stats consumers address shards explicitly
// (there is no "the device" on a multi-GPU daemon).
func (s *Server) Node() *node.Node { return s.node }

// Drain marks a shard Draining — no new placements land on it — and
// live-migrates its sessions to the remaining healthy shards. gvmd
// triggers it on SIGUSR1 for graceful maintenance; already-Unhealthy
// shards keep their state (health only escalates).
func (s *Server) Drain(shard int) error {
	if shard < 0 || shard >= s.node.NumShards() {
		return fmt.Errorf("ipc: drain: no such gpu %d", shard)
	}
	s.node.Drain(shard)
	go s.disp.EvacuateShard(shard, s.submit)
	return nil
}

// DrainAll gracefully decommissions the whole node: every shard stops
// taking placements at once. gvmd triggers it on SIGUSR1. Intra-node
// failover has nowhere to go, so sessions keep serving in place; a
// fronting gvmfed sees the node advertise itself unplaceable and
// live-migrates the sessions to other nodes.
func (s *Server) DrainAll() {
	s.node.DrainAll()
}

// Addr returns the first listener's address in URL form (Dial accepts
// it directly).
func (s *Server) Addr() string { return s.lns[0].Addr() }

// Addrs returns every bound listener address in URL form, in the order
// configured — useful with tcp://...:0, where the OS picks the port.
func (s *Server) Addrs() []string {
	addrs := make([]string, len(s.lns))
	for i, ln := range s.lns {
		addrs[i] = ln.Addr()
	}
	return addrs
}

// Close shuts the daemon down, releasing every live session so device
// memory and file-backed shm segments are reclaimed (unix listeners
// unlink their socket files as they close).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	var err error
	for _, ln := range s.lns {
		if cerr := ln.Close(); err == nil {
			err = cerr
		}
	}
	// Tear down sessions abandoned by still-connected clients before the
	// owners stop, so every shard's segments and device memory are freed.
	s.disp.ReleaseAll(s.submit)
	// Signal shutdown instead of closing the work channels: connection
	// handlers (including deferred session cleanup) may still be trying
	// to submit, and a send racing a close is a data race.
	close(s.quit)
	if s.rings != nil {
		// Kick every parked owner loop and waker out of its futex wait so
		// shutdown does not ride out a park slice.
		s.rings.RingAll()
	}
	s.wg.Wait()
	if s.rings != nil {
		// The owner loops have stopped; reclaim every remaining session
		// segment and the doorbell segment.
		if rerr := s.rings.Close(); err == nil {
			err = rerr
		}
	}
	return err
}

// owner executes closures submitted to one shard on that shard's
// simulation processes, one batch at a time, preserving the simulator's
// single-threaded discipline per shard (distinct shards run in
// parallel).
func (s *Server) owner(shard int) {
	defer s.wg.Done()
	env := s.node.Shard(shard).Env
	if s.rings != nil {
		s.ringOwner(shard, env)
		return
	}
	for {
		var it workItem
		select {
		case <-s.quit:
			return
		case it = <-s.work[shard]:
		}
		s.met.queueWaitNS[shard].Observe(int64(time.Since(it.enqueued)))
		s.runItem(env, shard, it)
	}
}

// runItem executes one submitted closure on the shard's simulation and
// drains the virtual calendar it scheduled.
func (s *Server) runItem(env *sim.Env, shard int, it workItem) {
	env.Go("ipc-request", func(p *sim.Proc) {
		p.Daemonize() // may park at the STR barrier until peers arrive
		it.fn(p)
		close(it.done)
	})
	if err := env.Run(); err != nil {
		s.cfg.Logger.Printf("gvmd: gpu %d simulation error: %v", shard, err)
	}
}

// ringOwner is the shard owner loop of a ring daemon: instead of
// blocking on the work channel it alternates draining submitted work,
// sweeping the shard's session rings, and running the calendar, then
// spins briefly and finally parks on the shard doorbell. The futex wait
// itself runs on the shard's waker goroutine so the owner can keep
// select-ing on work submissions and shutdown while parked — clients
// ring the doorbell after every ring submission, so a parked owner
// wakes in one futex round trip while a busy owner never syscalls.
func (s *Server) ringOwner(shard int, env *sim.Env) {
	rs := s.rings.Shard(shard)
	door := rs.Door()
	const spinBudget = 128
	idle := 0
	for {
		progress := false
		for {
			var it workItem
			select {
			case it = <-s.work[shard]:
			case <-s.quit:
				return
			default:
			}
			if it.fn == nil {
				break
			}
			s.met.queueWaitNS[shard].Observe(int64(time.Since(it.enqueued)))
			s.runItem(env, shard, it)
			progress = true
		}
		if rs.Sweep() {
			progress = true
		}
		// Drain any calendar events the sweep scheduled (direct verbs
		// charge their virtual cost as calendar events and complete
		// through notifies fired during this drain).
		if err := env.Run(); err != nil {
			s.cfg.Logger.Printf("gvmd: gpu %d simulation error: %v", shard, err)
		}
		if progress {
			idle = 0
			continue
		}
		if idle++; idle < spinBudget {
			runtime.Gosched()
			continue
		}
		idle = 0
		// Arm the doorbell's sleep bit, then re-check: a submission
		// published before the bit was visible must not be slept past.
		armed := shm.DoorArm(door)
		if rs.Sweep() {
			shm.DoorDisarm(door)
			continue
		}
		select {
		case rs.ArmCh() <- armed:
		default:
			// The waker already holds (or is sleeping on) an armed value;
			// any doorbell ring still changes the word and wakes it.
		}
		select {
		case <-s.quit:
			return
		case it := <-s.work[shard]:
			shm.DoorDisarm(door)
			s.met.queueWaitNS[shard].Observe(int64(time.Since(it.enqueued)))
			s.runItem(env, shard, it)
		case <-rs.WakeCh():
			shm.DoorDisarm(door)
		}
	}
}

// waker is a shard's parking proxy: it performs the bounded futex waits
// on the shard doorbell so the owner loop stays responsive to channel
// work while parked, and nudges the owner when the doorbell rings.
func (s *Server) waker(rs *transport.RingShard) {
	defer s.wg.Done()
	for {
		select {
		case <-s.quit:
			return
		case armed := <-rs.ArmCh():
			shm.DoorSleep(rs.Door(), armed, 100*time.Millisecond)
			select {
			case rs.WakeCh() <- struct{}{}:
			default:
			}
		}
	}
}

// submit runs fn on a simulation process of the given shard and waits
// for it. It returns false if the server shut down before fn completed.
func (s *Server) submit(shard int, fn func(p *sim.Proc)) bool {
	item := workItem{fn: fn, done: make(chan struct{}), enqueued: time.Now()}
	select {
	case s.work[shard] <- item:
	case <-s.quit:
		return false
	}
	select {
	case <-item.done:
		return true
	case <-s.quit:
		return false
	}
}

func (s *Server) accept(ln transport.Listener) {
	defer s.wg.Done()
	tr, err := transport.Lookup(ln.Scheme())
	if err != nil {
		s.cfg.Logger.Printf("gvmd: %v", err)
		return
	}
	defaultPlane := tr.DefaultPlane()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		// Connection handlers are not tracked by wg: a handler may be
		// parked at the STR barrier waiting for peers, and Close must
		// not wait for it.
		go s.serveConn(conn, defaultPlane)
	}
}

func (s *Server) serveConn(nc net.Conn, defaultPlane string) {
	clientJSON, err := transport.ReadPreamble(nc)
	if err != nil {
		if !errors.Is(err, io.EOF) {
			s.cfg.Logger.Printf("gvmd: preamble: %v", err)
			s.met.frameErrors.Inc()
		}
		nc.Close()
		return
	}
	if clientJSON != s.cfg.JSONWire {
		s.met.frameErrors.Inc()
		// Reject in the CLIENT's codec so the mismatch surfaces as a
		// clean error on its next read, not as frame garbage.
		msg := "ipc: codec mismatch: daemon speaks the binary wire (dial without DialJSON)"
		reply := transport.NewConnJSON(nc)
		if s.cfg.JSONWire {
			msg = "ipc: codec mismatch: daemon speaks JSON wire (dial with DialJSON)"
			reply = transport.NewConn(nc)
		}
		_ = reply.WriteResponse(transport.Response{Status: "ERR", Err: msg})
		// Drain whatever the client sends until it hangs up (bounded by a
		// deadline) before closing: a close that races the client's first
		// frame write fails that write with EPIPE, and the client never
		// reads the ERR.
		_ = nc.SetReadDeadline(time.Now().Add(time.Second))
		_, _ = io.Copy(io.Discard, nc)
		nc.Close()
		return
	}
	conn := transport.NewConn(nc)
	if s.cfg.JSONWire {
		conn = transport.NewConnJSON(nc)
	}
	s.met.connections.Inc()
	defer func() {
		conn.Close()
		// This goroutine is the connection's only reader and its read
		// loop has exited, so the pooled read buffer can go back.
		conn.Release()
		s.met.connections.Dec()
		s.met.disconnects.Inc()
	}()
	cs := &transport.ConnState{DefaultPlane: defaultPlane}
	defer func() {
		// Release sessions the client abandoned, each on its own shard.
		s.disp.HangUp(cs, s.submit)
	}()
	for {
		req, err := conn.ReadRequest()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				s.cfg.Logger.Printf("gvmd: read: %v", err)
				s.met.frameErrors.Inc()
			}
			return
		}
		// The dispatcher runs payload staging here on the connection
		// goroutine and submits only each verb's owner-side phase, so the
		// owner's critical section stays O(scheduling), not O(bytes).
		resp, ok := s.disp.Serve(req, cs, s.submit)
		if !ok {
			return
		}
		if err := conn.WriteResponse(resp); err != nil {
			return
		}
	}
}
