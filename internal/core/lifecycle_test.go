package core

import (
	"errors"
	"net"
	"reflect"
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

// joinTCPPair builds process 0 of a two-process TCP fabric on loopback
// addresses and Serves process 1 from a goroutine, as two OS processes
// would; served reports how the peer ended. The caller Closes c.
func joinTCPPair(t *testing.T, cfg config.Config, prog Program) (c *Cluster, served <-chan error) {
	t.Helper()
	addrs := freeAddrs(t, 2)
	join := func(id arch.ProcID) (*Cluster, error) {
		tr, err := transport.DialTCP(transport.TCPConfig{
			Proc: id, Procs: 2, Addrs: addrs, Route: transport.StripedRoute(2),
		})
		if err != nil {
			return nil, err
		}
		return JoinCluster(cfg, prog, id, tr)
	}
	peerDone := make(chan error, 1)
	go func() {
		peer, err := join(1)
		if err == nil {
			err = peer.Serve()
			peer.Close()
		}
		peerDone <- err
	}()
	c, err := join(0)
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
// ever report completion to it.
func TestRunReturnsWhenMCPStops(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	prog := Program{Name: "parked", Funcs: []ThreadFunc{func(th *Thread, arg uint64) {
		close(started)
		<-release
	}}}
	c, err := NewCluster(testCfg(2, 1), prog)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer close(release)
	go func() {
		<-started
		c.procs[0].mcpNet.Close()
	}()
	if _, err := runCluster(t, c, 0); !errors.Is(err, ErrWorkerDied) {
		t.Fatalf("Run returned %v, want ErrWorkerDied", err)
	}
}
