package core

import (
	"bytes"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/coremodel"
	"repro/internal/mcp"
	"repro/internal/park"
	"repro/internal/simtest"
)

// TestSpinOnSharedShardFinishes: at Workers=1 both threads are coroutines
// of one shard. Main spins on a flag that only hits in its cache; the
// child stores the flag after a long Compute. The spin must yield its
// shard's turn, or the child never runs and the home the store needs is
// never served.
func TestSpinOnSharedShardFinishes(t *testing.T) {
	prog := Program{Name: "spin"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, _ uint64) {
			flag := th.Malloc(64)
			th.Store64(flag, 0)
			child := th.Spawn(1, uint64(flag))
			spins := 0
			for th.Load64(flag) == 0 {
				spins++
			}
			th.Join(child)
			if spins == 0 {
				t.Error("main never saw the flag clear: the test did not spin")
			}
		},
		func(th *Thread, arg uint64) {
			th.Compute(coremodel.Arith, 5_000_000)
			th.Store64(arch.Addr(arg), 1)
		},
	}
	cfg := testCfg(2, 1)
	cfg.Workers = 1
	run(t, cfg, prog, 0)
}

// TestSpawnedThreadStartsAtAFixedPoint: at one worker a spawned thread
// enters its shard's order ahead of its parent's next turn, whatever the
// host's scheduling: the LCP lists the child before it answers the
// parent's spawn. Main spawns a worker and then runs 2^20 events without
// blocking, counting them; the worker reads the count at its first event.
func TestSpawnedThreadStartsAtAFixedPoint(t *testing.T) {
	const runs, events = 10, 1 << 20
	for range runs {
		var count, seen atomic.Int64
		prog := Program{Name: "spawn-point", Funcs: []ThreadFunc{
			func(th *Thread, _ uint64) {
				th.Spawn(1, 0)
				for range events {
					th.Compute(coremodel.Arith, 1)
					count.Add(1)
				}
			},
			func(th *Thread, _ uint64) {
				seen.Store(count.Load())
				th.Compute(coremodel.Arith, 1)
			},
		}}
		cfg := testCfg(2, 1)
		cfg.Workers = 1
		cfg.Sync.Model = config.Lax
		run(t, cfg, prog, 0)
		if n := seen.Load(); n != 0 {
			t.Fatalf("the worker started after %d of its parent's events, want 0", n)
		}
	}
}

// TestReportNamesEachWait: a wedged run's dump (park.Report, printed by
// simtest.Deadline) says what each thread waits for. Main parks in Join
// while its child parks in a receive nobody answers.
func TestReportNamesEachWait(t *testing.T) {
	parked := make(chan struct{})
	prog := Program{Name: "wedge"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, _ uint64) { th.Join(th.Spawn(1, 0)) },
		func(th *Thread, _ uint64) {
			close(parked)
			th.Recv()
		},
	}
	c, err := NewCluster(testCfg(2, 1), prog)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go c.Run(0)
	simtest.Deadline(t, runDeadline, func() {
		<-parked
		for {
			var buf bytes.Buffer
			park.Report(&buf)
			out := buf.String()
			if strings.Contains(out, "tile 1: thread parked, in an application receive") &&
				strings.Contains(out, fmt.Sprintf("tile 0: thread parked, in MCP call type %d", mcp.MsgJoin)) &&
				strings.Contains(out, "mcp: running 2,") {
				return
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// BenchmarkThreadRemoteMiss: one thread loads lines that miss in its
// caches and are homed on one other tile — in its own shard, then in the
// other one (Workers=2, tiles striped over the two shards). A miss is a
// park of the thread's coroutine and a resume by its shard, with the
// home's shard in between.
func BenchmarkThreadRemoteMiss(b *testing.B) {
	const tiles, lines = 4, 1024 // 64 KB per home: four times the L2
	for _, home := range []struct {
		name string
		tile uint64
	}{{"shard=same", 2}, {"shard=other", 1}} {
		b.Run(home.name, func(b *testing.B) {
			var elapsed time.Duration
			prog := Program{Name: "remote-miss", Funcs: []ThreadFunc{func(th *Thread, _ uint64) {
				base := th.Malloc((lines + 1) * tiles * 64)
				base += arch.Addr((home.tile - uint64(th.tile.cfg.HomeTile(base))) % tiles * 64)
				for i := 0; i < lines; i++ { // warm-up: every line cold once
					th.Load64(base + arch.Addr(i*tiles*64))
				}
				start := time.Now()
				for i := 0; i < b.N; i++ {
					th.Load64(base + arch.Addr(i%lines*tiles*64))
				}
				elapsed = time.Since(start)
			}}}
			cfg := testCfg(tiles, 1)
			cfg.Workers = 2
			b.ReportAllocs()
			rs, _ := benchRun(b, cfg, prog)
			if misses := rs.Totals.L2Misses; misses < uint64(b.N) {
				b.Fatalf("%d L2 misses for %d loads: the loads hit", misses, b.N)
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/miss")
		})
	}
}

// BenchmarkThreadHit: one thread on one tile with Table 1 caches loads
// lines that hit — in its L1D ("l1"), or in its L2 after missing the L1D,
// which the load then fills ("l2": sixteen lines one L1D set apart, so
// LRU evicts each before it comes round again). A hit runs entirely in the
// thread's turn on its shard: the cache walks, the core model and the
// thread runtime's per-event tick.
func BenchmarkThreadHit(b *testing.B) {
	cfg := config.Default()
	cfg.Tiles = 1
	setStride := arch.Addr(cfg.L1D.Sets() * cfg.L1D.LineSize)
	for _, hit := range []struct {
		name   string
		lines  int
		stride arch.Addr
	}{{"l1", 64, 64}, {"l2", 2 * cfg.L1D.Assoc, setStride}} {
		b.Run(hit.name, func(b *testing.B) {
			var elapsed time.Duration
			prog := Program{Name: "thread-hit", Funcs: []ThreadFunc{func(th *Thread, _ uint64) {
				base := th.Malloc(arch.Addr(hit.lines) * hit.stride)
				for i := 0; i < hit.lines; i++ { // warm-up: every line cold once
					th.Load64(base + arch.Addr(i)*hit.stride)
				}
				start := time.Now()
				for i := 0; i < b.N; i++ {
					th.Load64(base + arch.Addr(i%hit.lines)*hit.stride)
				}
				elapsed = time.Since(start)
			}}}
			b.ReportAllocs()
			rs, _ := benchRun(b, cfg, prog)
			tot := rs.Totals
			cold := uint64(hit.lines + cfg.Core.CodeFootprint/cfg.L1I.LineSize) // data and code
			if tot.L2Misses > cold {
				b.Fatalf("%d L2 misses for %d cold lines: the loads left the tile", tot.L2Misses, cold)
			}
			if hit.name == "l2" && tot.L1DHits > 64 {
				b.Fatalf("%d L1D hits: the l2 case hit its L1D", tot.L1DHits)
			}
			b.ReportMetric(float64(elapsed.Nanoseconds())/float64(b.N), "ns/load")
		})
	}
}

// benchRun runs prog to completion for a benchmark.
func benchRun(b *testing.B, cfg config.Config, prog Program) (*RunStats, *Cluster) {
	b.Helper()
	c, err := NewCluster(cfg, prog)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(c.Close)
	rs, err := runCluster(b, c, 0)
	if err != nil {
		b.Fatal(err)
	}
	return rs, c
}
