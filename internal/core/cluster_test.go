package core

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/coremodel"
	"repro/internal/mcp"
	"repro/internal/simtest"
)

// runDeadline bounds one test simulation; the longest takes seconds, also
// under the race detector.
const runDeadline = 2 * time.Minute

// runCluster is c.Run(arg) under runDeadline: a simulation that wedges
// fails its test with every goroutine's stack instead of idling into the
// package timeout. Every test in this package runs its cluster through it.
func runCluster(t testing.TB, c *Cluster, arg uint64) (rs *RunStats, err error) {
	t.Helper()
	simtest.Deadline(t, runDeadline, func() { rs, err = c.Run(arg) })
	return rs, err
}

func testCfg(tiles, procs int) config.Config {
	cfg := config.Default()
	cfg.Tiles = tiles
	cfg.Processes = procs
	// Small caches keep tests brisk while exercising evictions.
	cfg.L1I = config.CacheConfig{Enabled: false}
	cfg.L1D = config.CacheConfig{Enabled: true, Size: 2 << 10, Assoc: 2, LineSize: 64, HitLatency: 1}
	cfg.L2 = config.CacheConfig{Enabled: true, Size: 16 << 10, Assoc: 4, LineSize: 64, HitLatency: 8}
	return cfg
}

func run(t *testing.T, cfg config.Config, prog Program, arg uint64) (*RunStats, *Cluster) {
	t.Helper()
	c, err := NewCluster(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	rs, err := runCluster(t, c, arg)
	if err != nil {
		t.Fatal(err)
	}
	return rs, c
}

func TestSingleThreadProgram(t *testing.T) {
	prog := Program{
		Name: "hello",
		Funcs: []ThreadFunc{func(th *Thread, arg uint64) {
			a := th.Malloc(64)
			th.Store64(a, arg*2)
			th.Compute(coremodel.Arith, 100)
			if got := th.Load64(a); got != arg*2 {
				t.Errorf("load = %d", got)
			}
		}},
	}
	rs, _ := run(t, testCfg(2, 1), prog, 21)
	if rs.SimulatedCycles <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if rs.Totals.Instructions < 100 {
		t.Fatalf("instructions = %d", rs.Totals.Instructions)
	}
	if rs.Totals.Loads == 0 || rs.Totals.Stores == 0 {
		t.Fatal("memory ops not counted")
	}
}

func TestParallelSumSharedMemory(t *testing.T) {
	// Main fills an array, spawns workers that sum disjoint halves into
	// result slots, joins, and verifies — shared memory plus spawn/join.
	const n = 512
	prog := Program{Name: "psum"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) { // main
			data := th.Malloc(n * 8)
			results := th.Malloc(2 * 64) // one cache line each
			for i := 0; i < n; i++ {
				th.Store64(data+arch.Addr(i*8), uint64(i+1))
			}
			t1 := th.Spawn(1, uint64(data)|0<<48)
			t2 := th.Spawn(1, uint64(data)|1<<48)
			_ = results
			th.Join(t1)
			th.Join(t2)
			// Workers stored partial sums at data[n] area? Use messaging
			// instead: receive both partials.
			var total uint64
			for i := 0; i < 2; i++ {
				_, msg := th.Recv()
				var v uint64
				for b := 0; b < 8; b++ {
					v |= uint64(msg[b]) << (8 * b)
				}
				total += v
			}
			want := uint64(n * (n + 1) / 2)
			if total != want {
				t.Errorf("parallel sum = %d, want %d", total, want)
			}
		},
		func(th *Thread, arg uint64) { // worker
			data := arch.Addr(arg & 0xFFFFFFFFFFFF)
			half := int(arg >> 48)
			var sum uint64
			for i := half * n / 2; i < (half+1)*n/2; i++ {
				sum += th.Load64(data + arch.Addr(i*8))
				th.Compute(coremodel.Arith, 1)
			}
			var msg [8]byte
			for b := 0; b < 8; b++ {
				msg[b] = byte(sum >> (8 * b))
			}
			th.Send(0, msg[:])
		},
	}
	rs, _ := run(t, testCfg(4, 1), prog, 0)
	if rs.Totals.L2Misses == 0 {
		t.Fatal("no L2 misses in a shared-memory program")
	}
}

func TestMutexMutualExclusion(t *testing.T) {
	// 4 threads increment a shared counter 50 times each under a mutex.
	// Lost updates would reveal broken lock or coherence semantics.
	const workers, iters = 3, 50
	prog := Program{Name: "mutex"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			ctr := th.Malloc(64)
			m := th.Malloc(64)
			var tids []arch.ThreadID
			for i := 0; i < workers; i++ {
				tids = append(tids, th.Spawn(1, uint64(ctr)|uint64(m)<<32))
			}
			for _, tid := range tids {
				th.Join(tid)
			}
			if got := th.Load64(ctr); got != workers*iters {
				t.Errorf("counter = %d, want %d", got, workers*iters)
			}
		},
		func(th *Thread, arg uint64) {
			ctr := arch.Addr(arg & 0xFFFFFFFF)
			m := arch.Addr(arg >> 32)
			for i := 0; i < iters; i++ {
				th.MutexLock(m)
				th.Store64(ctr, th.Load64(ctr)+1)
				th.MutexUnlock(m)
			}
		},
	}
	run(t, testCfg(4, 1), prog, 0)
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	// After a barrier, every participant's clock is at least the latest
	// arrival time: phase 2 loads must see phase 1 stores.
	const workers = 4
	prog := Program{Name: "barrier"}
	// Layout within one allocation: workers data slots, then the barrier.
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			base := th.Malloc((workers + 1) * 64)
			bar := base + arch.Addr(workers*64)
			var tids []arch.ThreadID
			for i := 0; i < workers-1; i++ {
				tids = append(tids, th.Spawn(1, uint64(base)|uint64(i+1)<<48))
			}
			// Main is participant 0.
			th.Store64(base, 1000)
			th.BarrierWait(bar, workers)
			var sum uint64
			for i := 0; i < workers; i++ {
				sum += th.Load64(base + arch.Addr(i*64))
			}
			if sum != 1000*workers {
				t.Errorf("post-barrier sum = %d, want %d", sum, 1000*workers)
			}
			for _, tid := range tids {
				th.Join(tid)
			}
		},
		func(th *Thread, arg uint64) {
			base := arch.Addr(arg & 0xFFFFFFFFFFFF)
			bar := base + arch.Addr(workers*64)
			idx := int(arg >> 48)
			th.Compute(coremodel.Arith, idx*500) // desynchronize clocks
			th.Store64(base+arch.Addr(idx*64), 1000)
			before := th.Now()
			th.BarrierWait(bar, workers)
			if th.Now() < before {
				t.Error("clock went backwards across barrier")
			}
		},
	}
	run(t, testCfg(4, 1), prog, 0)
}

func TestCondVarProducerConsumer(t *testing.T) {
	prog := Program{Name: "cond"}
	// Layout within one allocation: flag, mutex, and condvar lines.
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) { // consumer (main)
			base := th.Malloc(3 * 64)
			flag, m, cv := base, base+64, base+128
			tid := th.Spawn(1, uint64(base))
			th.MutexLock(m)
			for th.Load64(flag) == 0 {
				th.CondWait(cv, m)
			}
			th.MutexUnlock(m)
			if got := th.Load64(flag); got != 7 {
				t.Errorf("flag = %d", got)
			}
			th.Join(tid)
		},
		func(th *Thread, arg uint64) { // producer
			base := arch.Addr(arg)
			flag, m, cv := base, base+64, base+128
			th.Compute(coremodel.Arith, 2000)
			th.MutexLock(m)
			th.Store64(flag, 7)
			th.MutexUnlock(m)
			th.CondSignal(cv)
		},
	}
	run(t, testCfg(2, 1), prog, 0)
}

func TestMessagingPingPong(t *testing.T) {
	const rounds = 20
	prog := Program{Name: "pingpong"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			tid := th.Spawn(1, 0)
			for i := 0; i < rounds; i++ {
				th.Send(tid, []byte{byte(i)})
				data := th.RecvFrom(tid)
				if data[0] != byte(i)+1 {
					t.Errorf("round %d: got %d", i, data[0])
				}
			}
			th.Join(tid)
		},
		func(th *Thread, arg uint64) {
			for i := 0; i < rounds; i++ {
				src, data := th.Recv()
				th.Send(src, []byte{data[0] + 1})
			}
		},
	}
	rs, _ := run(t, testCfg(2, 1), prog, 0)
	// Message receipt forwards clocks: the final time must reflect the
	// chain of round trips.
	if rs.SimulatedCycles <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestMultiProcessDistribution(t *testing.T) {
	// Same mutex program, striped across 4 simulated host processes: the
	// single-process illusion must hold.
	const workers, iters = 7, 20
	var ran atomic.Int32
	prog := Program{Name: "mp"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			ctr := th.Malloc(64)
			m := th.Malloc(64)
			var tids []arch.ThreadID
			for i := 0; i < workers; i++ {
				tids = append(tids, th.Spawn(1, uint64(ctr)|uint64(m)<<32))
			}
			for _, tid := range tids {
				th.Join(tid)
			}
			if got := th.Load64(ctr); got != workers*iters {
				t.Errorf("counter = %d, want %d", got, workers*iters)
			}
		},
		func(th *Thread, arg uint64) {
			ran.Add(1)
			ctr := arch.Addr(arg & 0xFFFFFFFF)
			m := arch.Addr(arg >> 32)
			for i := 0; i < iters; i++ {
				th.MutexLock(m)
				th.Store64(ctr, th.Load64(ctr)+1)
				th.MutexUnlock(m)
			}
		},
	}
	run(t, testCfg(8, 4), prog, 0)
	if ran.Load() != workers {
		t.Fatalf("only %d workers ran", ran.Load())
	}
}

func TestLaxBarrierModelRuns(t *testing.T) {
	cfg := testCfg(4, 1)
	cfg.Sync.Model = config.LaxBarrier
	cfg.Sync.BarrierQuantum = 1000
	prog := twoWorkerComputeProgram(t)
	rs, _ := run(t, cfg, prog, 0)
	if rs.SimulatedCycles <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestLaxP2PModelRuns(t *testing.T) {
	cfg := testCfg(4, 1)
	cfg.Sync.Model = config.LaxP2P
	cfg.Sync.P2PSlack = 10_000
	cfg.Sync.P2PInterval = 1_000
	prog := twoWorkerComputeProgram(t)
	rs, _ := run(t, cfg, prog, 0)
	if rs.SimulatedCycles <= 0 {
		t.Fatal("no simulated time")
	}
}

// TestLaxBarrierMultiProcess drives the batched epoch ledger across two
// host processes: each process forwards its tiles' waits in one batch,
// and the MCP releases per process. The workers also contend on a mutex,
// so threads transition through the control-plane-blocked state that the
// ledger must treat as round-completing (a blocked thread can produce no
// wait, and holding its neighbors' waits would deadlock the barrier).
func TestLaxBarrierMultiProcess(t *testing.T) {
	cfg := testCfg(4, 2)
	cfg.Sync.Model = config.LaxBarrier
	cfg.Sync.BarrierQuantum = 500
	prog := Program{Name: "barrier2proc"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			shared := th.Malloc(64)
			mtx := th.Malloc(64)
			// Tiles stripe across processes, so the three children land in
			// both host processes.
			var kids []arch.ThreadID
			for i := 0; i < 3; i++ {
				kids = append(kids, th.Spawn(1, uint64(shared)<<32|uint64(mtx)))
			}
			for _, k := range kids {
				th.Join(k)
			}
			if got := th.Load64(arch.Addr(shared)); got != 3*20 {
				t.Errorf("counter = %d, want 60", got)
			}
		},
		func(th *Thread, arg uint64) {
			shared, mtx := arch.Addr(arg>>32), arch.Addr(arg&0xFFFFFFFF)
			for i := 0; i < 20; i++ {
				th.Compute(coremodel.Arith, 50)
				th.MutexLock(mtx)
				th.Store64(shared, th.Load64(shared)+1)
				th.MutexUnlock(mtx)
			}
		},
	}
	rs, _ := run(t, cfg, prog, 0)
	if rs.SimulatedCycles <= 0 {
		t.Fatal("no simulated time")
	}
}

// TestClusterConstructionAllocs pins what a thousand-tile simulation costs
// to build and tear down: at most 50 allocations per tile, so that
// construction stays small next to a short sweep run at this scale.
func TestClusterConstructionAllocs(t *testing.T) {
	const tiles, perTile = 1024, 50
	cfg := testCfg(tiles, 1)
	prog := Program{Name: "noop", Funcs: []ThreadFunc{func(th *Thread, arg uint64) {}}}
	allocs := testing.AllocsPerRun(2, func() {
		c, err := NewCluster(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	})
	if allocs > tiles*perTile {
		t.Errorf("building a %d-tile cluster made %.0f allocations (%.1f per tile), want at most %d per tile", tiles, allocs, allocs/tiles, perTile)
	}
}

// BenchmarkClusterConstruction1024 measures building and tearing down a
// thousand-tile simulation: per-tile rings, the dense transport array,
// cache arenas, and directory stores must all be sized up front rather
// than grown through rehash/regrowth schedules, or construction dominates
// short sweep runs at this scale.
func BenchmarkClusterConstruction1024(b *testing.B) {
	cfg := testCfg(1024, 1)
	prog := Program{Name: "noop", Funcs: []ThreadFunc{func(th *Thread, arg uint64) {}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, err := NewCluster(cfg, prog)
		if err != nil {
			b.Fatal(err)
		}
		c.Close()
	}
}

// twoWorkerComputeProgram builds a program whose two workers interleave
// compute and shared-memory traffic, giving sync models work to do.
func twoWorkerComputeProgram(t *testing.T) Program {
	prog := Program{Name: "compute2"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			shared := th.Malloc(4 * 64)
			t1 := th.Spawn(1, uint64(shared))
			t2 := th.Spawn(1, uint64(shared)+64)
			th.Join(t1)
			th.Join(t2)
			a := th.Load64(arch.Addr(shared))
			b := th.Load64(arch.Addr(shared) + 64)
			if a != 50 || b != 50 {
				t.Errorf("worker results %d %d", a, b)
			}
		},
		func(th *Thread, arg uint64) {
			addr := arch.Addr(arg)
			for i := 0; i < 50; i++ {
				th.Compute(coremodel.Arith, 20)
				th.Store64(addr, uint64(i+1))
			}
		},
	}
	return prog
}

func TestSpawnOverflowReturnsInvalid(t *testing.T) {
	prog := Program{Name: "overflow"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			t1 := th.Spawn(1, 0) // occupies tile 1
			if t1 == arch.InvalidThread {
				t.Error("first spawn failed")
			}
			if t2 := th.Spawn(1, 0); t2 != arch.InvalidThread {
				t.Error("overflow spawn succeeded beyond tile count")
			}
			th.Send(t1, []byte{1}) // only now may the child exit and free tile 1
			th.Join(t1)
		},
		func(th *Thread, arg uint64) {
			th.RecvFrom(0)
		},
	}
	run(t, testCfg(2, 1), prog, 0)
}

func TestFileIOAcrossThreads(t *testing.T) {
	prog := Program{Name: "files"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			fd, err := th.Open("/data.bin", mcp.OCreate)
			if err != nil {
				t.Error(err)
				return
			}
			th.WriteFile(fd, []byte("from main"))
			// Pass the fd itself to the child — the paper's file
			// descriptor consistency scenario.
			tid := th.Spawn(1, uint64(fd))
			th.Join(tid)
			th.CloseFile(fd)
		},
		func(th *Thread, arg uint64) {
			// Re-open to read from the start (the shared fd's offset is
			// at EOF after main's write).
			fd, err := th.Open("/data.bin", 0)
			if err != nil {
				t.Error(err)
				return
			}
			data, err := th.ReadFile(fd, 100)
			if err != nil || string(data) != "from main" {
				t.Errorf("child read %q, %v", data, err)
			}
			// And the inherited descriptor is usable for appending.
			if _, err := th.WriteFile(int32(arg), []byte("!")); err != nil {
				t.Errorf("inherited fd write: %v", err)
			}
			th.CloseFile(fd)
		},
	}
	run(t, testCfg(4, 2), prog, 0)
}

func TestPeekPokeAroundRun(t *testing.T) {
	cfg := testCfg(2, 1)
	prog := Program{Name: "peekpoke"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			// Read what the harness poked, double it, store it back.
			base := arch.Addr(arg)
			v := th.Load64(base)
			th.Store64(base+8, v*2)
		},
	}
	c, err := NewCluster(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	base := cfg.AS.StaticBase
	var in [8]byte
	in[0] = 21
	c.Poke(base, in[:])
	if _, err := runCluster(t, c, uint64(base)); err != nil {
		t.Fatal(err)
	}
	var out [8]byte
	c.Peek(base+8, out[:])
	if out[0] != 42 {
		t.Fatalf("peeked %d, want 42", out[0])
	}
}

func TestSkewCollection(t *testing.T) {
	cfg := testCfg(4, 1)
	cfg.CollectSkew = true
	prog := twoWorkerComputeProgram(t)
	rs, _ := run(t, cfg, prog, 0)
	// Short runs may or may not capture samples; if any were captured
	// they must be well-formed.
	for _, s := range rs.Skew {
		if s.Min > s.Mean || s.Mean > s.Max {
			t.Fatalf("malformed skew sample %+v", s)
		}
	}
}
