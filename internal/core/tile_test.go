package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/coremodel"
	"repro/internal/network"
	"repro/internal/simtest"
	"repro/internal/stats"
)

// TestClusterGoroutinesPerTile: an idle tile costs no goroutine. A
// process serves its tiles from W memory-server shards (W = GOMAXPROCS
// when Config.Workers is unset), which also pump the endpoints for the
// control plane, and adds its LCP (and process 0 the MCP).
func TestClusterGoroutinesPerTile(t *testing.T) {
	const tiles = 256
	w := min(runtime.GOMAXPROCS(0), tiles)
	before := runtime.NumGoroutine()
	c, err := NewCluster(testCfg(tiles, 1), Program{Name: "idle", Funcs: []ThreadFunc{func(*Thread, uint64) {}}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if grew := runtime.NumGoroutine() - before; grew > w+8 {
		t.Fatalf("a %d-tile cluster started %d goroutines, want at most %d", tiles, grew, w+8)
	}
}

// TestShardCountKeepsResults runs one single-thread workload at
// Config.Workers 1, 2 and 3, which is how many memory-server shards each
// process runs, under every synchronization model, in one simulated
// process and striped over two. How the tiles are laid out over shards is
// host execution only: the checksum, the simulated cycles and every total
// must be identical. The working set stays in the L2, so every message is
// one link of a request-reply chain; a run of back-to-back dirty
// evictions would not do, because each eviction notice's progress-window
// sample races the next miss on any host with two CPUs (ROADMAP item 1).
func TestShardCountKeepsResults(t *testing.T) {
	const tiles, lines = 16, 128 // 8 KB of lines in a 16 KB L2
	type result struct {
		sum    uint64
		cycles arch.Cycles
		totals stats.Totals
	}
	for _, model := range []config.SyncModel{config.Lax, config.LaxBarrier, config.LaxP2P} {
		for _, procs := range []int{1, 2} {
			var ref result
			for _, w := range []int{1, 2, 3} {
				var sum uint64
				prog := Program{Name: "strided", Funcs: []ThreadFunc{func(th *Thread, _ uint64) {
					// One word per line, homes striped over every tile: the
					// first pass misses to every home and upgrades, later
					// passes hit.
					a := th.Malloc(lines * 64)
					for pass := uint64(1); pass <= 3; pass++ {
						for i := uint64(0); i < lines; i++ {
							at := a + arch.Addr(i*64)
							th.Store64(at, th.Load64(at)+i*pass)
						}
					}
					for i := uint64(0); i < lines; i++ {
						sum += th.Load64(a + arch.Addr(i*64))
					}
				}}}
				cfg := testCfg(tiles, procs)
				cfg.Workers = w
				cfg.Sync.Model = model
				cfg.Sync.BarrierQuantum = 500
				cfg.Sync.P2PInterval = 100
				name := fmt.Sprintf("%v, %d processes, Workers=%d", model, procs, w)
				before := runtime.NumGoroutine()
				c, err := NewCluster(cfg, prog)
				if err != nil {
					t.Fatal(err)
				}
				if grew := runtime.NumGoroutine() - before; grew > procs*w+8 {
					c.Close()
					t.Fatalf("%s: cluster started %d goroutines, want at most %d", name, grew, procs*w+8)
				}
				rs, err := runCluster(t, c, 0)
				c.Close()
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := result{sum, rs.SimulatedCycles, rs.Totals}
				if got.sum != 6*(lines*(lines-1)/2) {
					t.Fatalf("%s: checksum %d", name, got.sum)
				}
				if w == 1 {
					ref = got
				} else if got != ref {
					t.Fatalf("%s differs from Workers=1:\n  got  %+v\n  want %+v", name, got, ref)
				}
			}
		}
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
// The thread times its own loop: it must not block outside a Thread call,
// so it cannot wait for the benchmark goroutine to start the clock.
func BenchmarkSysCallRoundTrip(b *testing.B) {
	done := make(chan struct{})
	b.ReportAllocs()
	prog := Program{Name: "rpc", Funcs: []ThreadFunc{func(th *Thread, arg uint64) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			th.Join(1)
		}
		b.StopTimer()
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
	select {
	case <-done:
	case <-time.After(runDeadline):
		b.Fatal("RPC loop wedged")
	}
	if err := <-runErr; err != nil {
		b.Fatal(err)
	}
}

// TestLaxP2PHoldEndsWhenPartnerBlocks: a thread far ahead of its one
// partner is held; the partner then blocks in a join on it, which must
// release the hold, or neither ever runs again: the holding probe is
// answered, by the partner's tile in this process or across two.
func TestLaxP2PHoldEndsWhenPartnerBlocks(t *testing.T) {
	for _, run := range []struct{ procs, workers int }{{1, 1}, {1, 2}, {2, 1}} {
		procs := run.procs
		cfg := testCfg(2, procs)
		cfg.Workers = run.workers
		cfg.Sync.Model = config.LaxP2P
		cfg.Sync.P2PSlack = 1000
		cfg.Sync.P2PInterval = 100
		var c *Cluster
		held := func() bool { return c.procs[procs-1].tiles[1].blockedOn.Load() == waitHold }
		var sawHold bool
		prog := Program{Name: "hold"}
		prog.Funcs = []ThreadFunc{
			func(th *Thread, arg uint64) {
				k := th.Spawn(1, 0)
				th.Recv() // the worker has started
				// Run slowly until the worker is held on this tile, then on,
				// far below its bound: the hold lasts.
				for i := 0; i < 1<<19 && !sawHold; i++ {
					th.Compute(coremodel.Arith, 1)
					sawHold = held()
				}
				for i := 0; i < 1<<16; i++ {
					th.Compute(coremodel.Arith, 1)
				}
				sawHold = sawHold && held()
				th.Join(k)
			},
			func(th *Thread, arg uint64) {
				th.Send(0, []byte{1})
				th.Compute(coremodel.Arith, 1<<20) // far past the slack
				for i := 0; i < 1<<18; i++ {
					th.Compute(coremodel.Arith, 1) // probes every 100 cycles
				}
			},
		}
		var err error
		if c, err = NewCluster(cfg, prog); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if _, err := runCluster(t, c, 0); err != nil {
			t.Fatal(err)
		}
		// A hold waits for one answer; it does not probe in a loop (on
		// two shards a loop would not wait for main's turn to end). In
		// one process plain probes read the clock, so the worker's tile
		// receives only its holding probes' answers.
		if procs == 1 {
			if got := c.procs[0].tiles[1].Net.Stats().PacketsRecv[network.ClassSystem].Load(); got > 2 {
				t.Errorf("%+v: the worker's tile received %d system packets: the hold spins", run, got)
			}
		}
		if !sawHold {
			t.Errorf("%+v: the worker was not held to the end", run)
		}
	}
}
