// Cluster: node-local GPU virtualization vs rCUDA-style remote access.
//
// The paper targets nodes whose cores outnumber their GPUs; its related
// work [11] instead shares GPUs *across* nodes, which the paper argues
// "can result in communication overheads in accessing GPUs from remote
// compute nodes". This example measures both, two ways:
//
// Simulated (default) — on the simulated cluster:
//
//	A) one GPU node, 8 cores, node-local GVM (the paper's design);
//	B) eight GPU-less nodes reaching the same GPU over the interconnect,
//	   once on QDR InfiniBand and once on gigabit Ethernet.
//
// Real (-real) — with actual OS processes against a live gvmd: the same
// SPMD job runs twice, first against a Unix-socket daemon with /dev/shm
// segments as the data plane (node-local shape), then against a TCP
// daemon with payloads inline on the wire (the rCUDA shape, here over
// loopback). Both runs are measured in wall-clock time, so the protocol
// and data-plane overhead of remote access is observed, not modeled.
//
// The remote shape extends one level up: put a gvmfed federation
// router in front of several TCP gvmd nodes (see the README's
// "Federation" section) and point examples/multiprocess -connect at
// the router — the same SPMD job then measures the two-level shape,
// with node placement and cross-node failover in the path. The router
// forces payloads inline exactly like the rCUDA-shape run here, so its
// extra hop is directly comparable.
//
// Run with: go run ./examples/cluster [-real [-procs 4] [-n 1000000]]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"gpuvirt/internal/cluster"
	"gpuvirt/internal/cuda"
	"gpuvirt/internal/ipc"
	"gpuvirt/internal/sim"
	"gpuvirt/internal/task"
	"gpuvirt/internal/workloads"
)

func main() {
	real := flag.Bool("real", false, "run real client processes against live daemons instead of the simulated cluster")
	procs := flag.Int("procs", 4, "worker processes per real run")
	nFlag := flag.Int("n", 1_000_000, "vector elements per real worker (8n bytes in, 4n out)")
	role := flag.String("role", "", "internal: worker")
	addr := flag.String("addr", "", "internal: daemon address")
	rank := flag.Int("rank", 0, "internal: worker rank")
	flag.Parse()

	if *role == "worker" {
		if err := worker(*addr, *rank, *nFlag); err != nil {
			log.Fatalf("worker %d: %v", *rank, err)
		}
		return
	}
	if *real {
		realComparison(*procs, *nFlag)
		return
	}
	simulated()
}

// simulated is the modeled comparison on the simulated cluster.
func simulated() {
	w := workloads.VectorAdd(10_000_000) // 80 MB in, 40 MB out per process
	spec := func(node, rank int) *task.Spec { return w.Spec(rank) }

	local := runJob(cluster.Config{
		Nodes: 1, GPUNodes: 1, CoresPerNode: 8, Parties: 8,
	}, 8, spec)
	fmt.Printf("A) local virtualization, 8 procs on the GPU node:\n")
	fmt.Printf("     turnaround %8.1f ms, network time 0\n", local.Turnaround.Seconds()*1e3)

	for _, net := range []struct {
		name string
		ic   cluster.Interconnect
	}{
		{"QDR InfiniBand", cluster.QDRInfiniBand()},
		{"gigabit Ethernet", cluster.GigabitEthernet()},
	} {
		remote := runJob(cluster.Config{
			Nodes: 9, GPUNodes: 1, CoresPerNode: 1, Interconnect: net.ic,
		}, 1, spec)
		fmt.Printf("B) remote access over %s, 8 GPU-less nodes + 1 idle GPU node:\n", net.name)
		fmt.Printf("     turnaround %8.1f ms (%.2fx local), %d remote procs, %8.1f ms on the wire\n",
			remote.Turnaround.Seconds()*1e3,
			remote.Turnaround.Seconds()/local.Turnaround.Seconds(),
			remote.RemoteProcs,
			remote.NetworkTime.Seconds()*1e3)
	}
	fmt.Println("\nnode-local virtualization avoids every network hop — the paper's Section II argument quantified")
}

func runJob(cfg cluster.Config, procsPerNode int, spec func(node, rank int) *task.Spec) cluster.JobResult {
	env := sim.NewEnv()
	defer env.Close()
	c, err := cluster.New(env, cfg)
	if err != nil {
		log.Fatal(err)
	}
	res, err := c.RunJob(procsPerNode, spec)
	if err != nil {
		log.Fatal(err)
	}
	return res
}

// realComparison runs the same SPMD job against two live daemons: a
// unix-socket one on the shm plane, then a TCP one on the inline plane.
func realComparison(procs, n int) {
	fmt.Printf("real mode: %d worker processes, %d elements each (%.1f MB in, %.1f MB out per proc)\n",
		procs, n, float64(8*n)/1e6, float64(4*n)/1e6)

	unixWall := realRun("unix", procs, n)
	tcpWall := realRun("tcp", procs, n)

	fmt.Printf("\nA) node-local    (unix socket + shm segments):  %8.1f ms wall\n", unixWall.Seconds()*1e3)
	fmt.Printf("B) rCUDA-style   (tcp + payloads on the wire):  %8.1f ms wall (%.2fx local)\n",
		tcpWall.Seconds()*1e3, tcpWall.Seconds()/unixWall.Seconds())
	fmt.Println("\nsame protocol, same daemon — only the transport and data plane differ (tcp here is loopback; a real network adds its latency on top)")
}

// realRun brings up a daemon on the given transport, drives procs worker
// processes through one full cycle each, and returns the wall time from
// first spawn to last exit.
func realRun(scheme string, procs, n int) time.Duration {
	dir, err := os.MkdirTemp("", "gvmd-cluster")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	listen := "tcp://127.0.0.1:0"
	if scheme == "unix" {
		listen = "unix://" + filepath.Join(dir, "gvmd.sock")
	}
	srv, err := ipc.NewServer(ipc.ServerConfig{
		Listen:     []string{listen},
		Parties:    procs,
		Functional: true,
		ShmDir:     dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addrs()[0]
	fmt.Printf("\n%s daemon on %s:\n", scheme, addr)

	self, err := os.Executable()
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	cmds := make([]*exec.Cmd, procs)
	for i := range cmds {
		cmds[i] = exec.Command(self,
			"-role=worker", "-addr="+addr, fmt.Sprintf("-rank=%d", i), fmt.Sprintf("-n=%d", n))
		cmds[i].Stdout = os.Stdout
		cmds[i].Stderr = os.Stderr
		cmds[i].Env = append(os.Environ(), "GVMD_SHM_DIR="+dir)
		if err := cmds[i].Start(); err != nil {
			log.Fatal(err)
		}
	}
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			log.Fatalf("worker %d failed: %v", i, err)
		}
	}
	return time.Since(start)
}

func worker(addr string, rank, n int) error {
	client, err := ipc.Dial(addr, os.Getenv("GVMD_SHM_DIR"))
	if err != nil {
		return err
	}
	defer client.Close()

	start := time.Now()
	sess, err := client.Request(workloads.Ref{Name: "vecadd", Params: map[string]int{"n": n}}, rank)
	if err != nil {
		return err
	}
	in := make([]float32, 2*n)
	for i := 0; i < n; i++ {
		in[i] = float32(i % 1024)
		in[n+i] = float32(rank + 1)
	}
	out := make([]byte, n*4)
	if err := sess.RunCycle(cuda.HostFloat32Bytes(in), out); err != nil {
		return err
	}
	res := cuda.Float32s(byteMem(out), 0, n)
	for i := 0; i < n; i++ {
		if res[i] != float32(i%1024)+float32(rank+1) {
			return fmt.Errorf("bad result at %d: %g", i, res[i])
		}
	}
	if err := sess.Release(); err != nil {
		return err
	}
	fmt.Printf("  worker %d: %s plane, turnaround %.1f ms wall\n",
		rank, sess.Plane(), time.Since(start).Seconds()*1e3)
	return nil
}

type byteMem []byte

func (b byteMem) Bytes(p cuda.DevPtr, n int64) []byte { return b[p : int64(p)+n] }
