package core

import (
	"errors"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/coremodel"
	"repro/internal/simtest"
	"repro/internal/transport"
)

// walkProgram is one thread striding over enough lines that their homes
// span every process: a single-thread run's statistics are exact, so two
// executions of it can be compared field by field.
func walkProgram() Program {
	return Program{Name: "walk", Funcs: []ThreadFunc{func(th *Thread, arg uint64) {
		buf := th.Malloc(64 * 64)
		for i := 0; i < 200; i++ {
			th.Compute(coremodel.Arith, 50)
			th.Store64(buf+arch.Addr((i%64)*64), uint64(i))
			_ = th.Load64(buf + arch.Addr(((i*7)%64)*64))
		}
	}}}
}

// freeAddrs reserves n distinct loopback addresses (bind all, then
// release all, as launch.LocalHosts does).
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		addrs[i] = ln.Addr().String()
	}
	return addrs
}

// joinTCP builds process id of a two-process TCP fabric on the loopback
// addresses addrs, both processes on one host.
func joinTCP(cfg config.Config, prog Program, addrs []string, id arch.ProcID) (*Cluster, error) {
	tr, err := transport.DialTCP(transport.TCPConfig{
		Proc: id, Procs: 2, Addrs: addrs, Route: transport.StripedRoute(2),
	})
	if err != nil {
		return nil, err
	}
	return JoinCluster(cfg, prog, id, tr, 2, int(id))
}

// joinTCPPair builds process 0 of a two-process TCP fabric on loopback
// addresses and Serves process 1 from a goroutine, as two OS processes
// would; served reports how the peer ended. The caller Closes c.
func joinTCPPair(t *testing.T, cfg config.Config, prog Program) (c *Cluster, served <-chan error) {
	t.Helper()
	addrs := freeAddrs(t, 2)
	peerDone := make(chan error, 1)
	go func() {
		peer, err := joinTCP(cfg, prog, addrs, 1)
		if err == nil {
			err = peer.Serve()
			peer.Close()
		}
		peerDone <- err
	}()
	c, err := joinTCP(cfg, prog, addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return c, peerDone
}

// closePair closes process 0 of a joinTCPPair and waits for its peer.
func closePair(t *testing.T, c *Cluster, served <-chan error) {
	t.Helper()
	simtest.Deadline(t, runDeadline, func() {
		c.Close()
		if err := <-served; err != nil {
			t.Errorf("peer: %v", err)
		}
	})
}

// TestTCPTransportRun: a value stored by a thread in one process of a TCP
// fabric is what a thread in the other process loads.
func TestTCPTransportRun(t *testing.T) {
	prog := Program{Name: "tcp"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			a := th.Malloc(1024)
			tid := th.Spawn(1, uint64(a))
			th.Join(tid)
			if got := th.Load64(a); got != 4242 {
				t.Errorf("cross-process value = %d", got)
			}
		},
		func(th *Thread, arg uint64) {
			th.Store64(arch.Addr(arg), 4242)
		},
	}
	c, served := joinTCPPair(t, testCfg(4, 2), prog)
	defer c.Close()
	if _, err := runCluster(t, c, 0); err != nil {
		t.Fatal(err)
	}
	closePair(t, c, served)
}

// TestJoinedClusterMatchesInProcess: a cluster hosting process 0 of a
// two-process TCP fabric, its peer a second one-process cluster Served
// from a goroutine, computes the Totals that NewCluster computes with both
// processes on the channel fabric — one Run, whoever builds the cluster.
func TestJoinedClusterMatchesInProcess(t *testing.T) {
	cfg := testCfg(4, 2)
	want, _ := run(t, cfg, walkProgram(), 0)
	if want.Totals.NetPacketsSent == 0 {
		t.Fatal("test premise broken: the program caused no traffic between tiles")
	}

	c, served := joinTCPPair(t, cfg, walkProgram())
	defer c.Close()
	if err := c.Serve(); err == nil {
		t.Error("Serve accepted a cluster that hosts process 0")
	}
	got, err := runCluster(t, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Totals, want.Totals) {
		t.Errorf("joined TCP cluster and in-process channel cluster disagree:\n joined     %+v\n in-process %+v", got.Totals, want.Totals)
	}
	closePair(t, c, served)
	acks := c.Teardown()
	if len(acks) != 2 || !acks[0].Acked || !acks[1].Acked {
		t.Errorf("teardown acknowledgements %+v, want both processes acked", acks)
	}
}

// TestRunReturnsWhenMCPStops: an MCP whose receive loop died under a
// running in-process cluster ends Run with ErrWorkerDied — nothing could
// ever report completion to it. The thread parks in a receive no message
// ever satisfies, which teardown ends.
func TestRunReturnsWhenMCPStops(t *testing.T) {
	started := make(chan struct{})
	prog := Program{Name: "parked", Funcs: []ThreadFunc{func(th *Thread, arg uint64) {
		close(started)
		th.Recv()
	}}}
	c, err := NewCluster(testCfg(2, 1), prog)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go func() {
		<-started
		c.procs[0].mcpNet.Close()
	}()
	if _, err := runCluster(t, c, 0); !errors.Is(err, ErrWorkerDied) {
		t.Fatalf("Run returned %v, want ErrWorkerDied", err)
	}
}

// TestRunReturnsWhenWorkerDiesBeforeGather: a worker process lost after
// the application's last thread exited, before the flush and the stats
// gather, ends Run with ErrWorkerDied. Those wait for every process's
// reply, so they run under the same watch as the application.
func TestRunReturnsWhenWorkerDiesBeforeGather(t *testing.T) {
	cfg := testCfg(4, 2)
	addrs := freeAddrs(t, 2)
	exiting, lost := make(chan struct{}), make(chan struct{})
	walk := walkProgram().Funcs[0]
	prog := Program{Name: "lost", Funcs: []ThreadFunc{func(th *Thread, arg uint64) {
		walk(th, arg)
		close(exiting)
		// Blocks this thread's shard until the worker is gone, so the MCP
		// learns of the exit only then. Nothing the worker's teardown
		// waits for runs on this process's shards.
		<-lost
	}}}
	peers := make(chan *Cluster, 1)
	go func() {
		peer, err := joinTCP(cfg, prog, addrs, 1)
		if err != nil {
			t.Error(err)
		} else {
			peer.start(peer.hostCores())
		}
		peers <- peer
	}()
	c, err := joinTCP(cfg, prog, addrs, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	peer := <-peers
	if peer == nil {
		return
	}
	died := make(chan struct{})
	c.WorkerDied = died
	go func() {
		<-exiting
		peer.Close()
		close(lost)
		<-c.procs[0].MCP.Done()
		close(died)
	}()
	if _, err := runCluster(t, c, 0); !errors.Is(err, ErrWorkerDied) {
		t.Fatalf("Run returned %v, want ErrWorkerDied", err)
	}
	simtest.Deadline(t, runDeadline, c.Close)
}

// cutProxy forwards every connection made to the address it returns on
// to addr, until cut closes them all at once, as the death of the process
// behind them would: no end sends its orderly-close frame.
func cutProxy(t *testing.T, addr string) (string, func()) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []io.Closer
	conns = append(conns, ln)
	go func() {
		for {
			in, err := ln.Accept()
			if err != nil {
				return
			}
			// The process behind addr may not listen yet.
			out, err := transport.DialRetry(addr, runDeadline)
			if err != nil {
				in.Close()
				continue
			}
			mu.Lock()
			conns = append(conns, in, out)
			mu.Unlock()
			go io.Copy(out, in)
			go io.Copy(in, out)
		}
	}()
	return ln.Addr().String(), func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
}

// TestRunFailsWhenPeerConnectionDrops: connections to a worker process
// that end without the orderly-close frame fail the coordinator's
// fabric, so Run ends with ErrWorkerDied although nothing supervises the
// worker (no WorkerDied channel).
func TestRunFailsWhenPeerConnectionDrops(t *testing.T) {
	cfg := testCfg(4, 2)
	addrs := freeAddrs(t, 2)
	to0, cut0 := cutProxy(t, addrs[0])
	to1, cut1 := cutProxy(t, addrs[1])
	started := make(chan struct{})
	prog := Program{Name: "parked", Funcs: []ThreadFunc{func(th *Thread, arg uint64) {
		close(started)
		th.Recv()
	}}}
	served := make(chan error, 1)
	go func() {
		peer, err := joinTCP(cfg, prog, []string{to0, addrs[1]}, 1)
		if err == nil {
			err = peer.Serve()
			peer.Close()
		}
		served <- err
	}()
	c, err := joinTCP(cfg, prog, []string{addrs[0], to1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go func() {
		<-started
		cut0()
		cut1()
	}()
	if _, err := runCluster(t, c, 0); !errors.Is(err, ErrWorkerDied) {
		t.Fatalf("Run returned %v, want ErrWorkerDied", err)
	}
	simtest.Deadline(t, runDeadline, func() {
		c.Close()
		if err := <-served; err == nil {
			t.Error("the worker's Serve ended without an error on a failed fabric")
		}
	})
}
