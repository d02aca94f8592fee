package core

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/coremodel"
	"repro/internal/network"
	"repro/internal/simtest"
)

// TestClusterGoroutinesPerTile: a tile costs one server goroutine — its
// memory server, which also pumps the endpoint for the control plane —
// and each process adds its LCP (and process 0 the MCP).
func TestClusterGoroutinesPerTile(t *testing.T) {
	const tiles = 256
	before := runtime.NumGoroutine()
	c, err := NewCluster(testCfg(tiles, 1), Program{Name: "idle", Funcs: []ThreadFunc{func(*Thread, uint64) {}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if grew := runtime.NumGoroutine() - before; grew > tiles+8 {
		t.Fatalf("a %d-tile cluster started %d goroutines, want at most %d", tiles, grew, tiles+8)
	}
}

// TestLaxP2PCrossProcessProbes runs LaxP2P with the tiles striped over two
// simulated processes, so a probe of a partner in the other process is a
// system-network round trip answered inside that tile's memory-server
// pump (same-process partners are read directly). The workers' result
// must be the one native Go computes.
func TestLaxP2PCrossProcessProbes(t *testing.T) {
	const tiles, iters = 4, 400
	cfg := testCfg(tiles, 2)
	cfg.Sync.Model = config.LaxP2P
	cfg.Sync.P2PSlack = 10_000
	cfg.Sync.P2PInterval = 100

	var want uint64
	for w := uint64(1); w < tiles; w++ {
		for i := uint64(1); i <= iters; i++ {
			want += w * i
		}
	}
	var got uint64
	prog := Program{Name: "p2p2proc"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			out := th.Malloc(tiles * 64) // one line per worker
			var kids []arch.ThreadID
			for w := 1; w < tiles; w++ {
				kids = append(kids, th.Spawn(1, (uint64(out)+uint64(w)*64)<<8|uint64(w)))
			}
			for _, k := range kids {
				th.Join(k)
			}
			for w := 1; w < tiles; w++ {
				got += th.Load64(out + arch.Addr(w*64))
			}
		},
		func(th *Thread, arg uint64) {
			slot, w := arch.Addr(arg>>8), arg&0xFF
			var sum uint64
			for i := uint64(1); i <= iters; i++ {
				th.Compute(coremodel.Arith, 20)
				sum += w * i
			}
			th.Store64(slot, sum)
		},
	}
	rs, c := run(t, cfg, prog, 0)
	if got != want {
		t.Fatalf("checksum %d, native %d", got, want)
	}
	// Main's seven RPCs (malloc, three spawns, three joins) are the only
	// replies a tile receives without probes crossing processes.
	var sysRecv uint64
	for _, tile := range c.Tiles() {
		sysRecv += tile.Net.Stats().PacketsRecv[network.ClassSystem].Load()
	}
	if sysRecv <= 7 {
		t.Fatalf("tiles received %d system packets: no probe crossed processes", sysRecv)
	}
	if rs.SimulatedCycles <= 0 {
		t.Fatal("no simulated time")
	}
}

// TestParkedCallReleasedWhenNetCloses: a thread parked in a control-plane
// call when its tile's net closes returns through tornDown — the memory
// server's pump closes the reply slot on its way out — and Cluster.Close
// then completes, releasing the other parked thread the same way.
func TestParkedCallReleasedWhenNetCloses(t *testing.T) {
	joining := make(chan struct{})
	mainPanic := make(chan any, 1)
	prog := Program{Name: "parked"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			defer func() {
				r := recover()
				mainPanic <- r
				panic(r)
			}()
			m := th.Malloc(64)
			th.MutexLock(m)
			child := th.Spawn(1, uint64(m))
			close(joining)
			th.Join(child) // the child waits for the mutex main never frees
		},
		func(th *Thread, arg uint64) {
			th.MutexLock(arch.Addr(arg))
		},
	}
	c, err := NewCluster(testCfg(2, 1), prog)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runErr := make(chan error, 1)
	go func() {
		_, err := c.Run(0)
		runErr <- err
	}()
	simtest.Deadline(t, runDeadline, func() {
		<-joining
		c.procs[0].tiles[0].Net.Close()
		if r := <-mainPanic; r == nil {
			t.Error("main returned from Join after its tile's net closed")
		} else if _, ok := r.(tornDown); !ok {
			t.Errorf("main panicked with %v, want tornDown", r)
		}
		c.Close()
		if err := <-runErr; !errors.Is(err, ErrWorkerDied) {
			t.Errorf("Run returned %v, want ErrWorkerDied", err)
		}
	})
}

// BenchmarkSysCallRoundTrip measures one control-plane RPC — a tile's
// call to the MCP and the reply back through the tile's system sink — on
// the channel fabric. Joining a thread that never ran is answered at once.
func BenchmarkSysCallRoundTrip(b *testing.B) {
	ready, start, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	prog := Program{Name: "rpc", Funcs: []ThreadFunc{func(th *Thread, arg uint64) {
		close(ready)
		<-start
		for i := 0; i < b.N; i++ {
			th.Join(1)
		}
		close(done)
	}}}
	c, err := NewCluster(testCfg(2, 1), prog)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	runErr := make(chan error, 1)
	go func() {
		_, err := c.Run(0)
		runErr <- err
	}()
	<-ready
	b.ReportAllocs()
	b.ResetTimer()
	close(start)
	select {
	case <-done:
	case <-time.After(runDeadline):
		b.Fatal("RPC loop wedged")
	}
	b.StopTimer()
	if err := <-runErr; err != nil {
		b.Fatal(err)
	}
}
