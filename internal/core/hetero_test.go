package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/coremodel"
)

// TestHeterogeneousTiles builds a big.LITTLE-style target: tile 1 has
// 4x-cost ALUs. The same work must cost the little core ~4x the cycles
// (paper §2: tiles may be heterogeneous).
func TestHeterogeneousTiles(t *testing.T) {
	cfg := testCfg(4, 1)
	cfg.Core.CodeFootprint = 0 // isolate ALU costs from fetch stalls
	little := cfg.Core
	little.ArithCost = 4
	cfg.TileCores = map[arch.TileID]config.CoreConfig{2: little}

	type result struct{ big, little arch.Cycles }
	var res result
	const bar = arch.Addr(0x1_0000) // static segment; barrier keys on the address only
	prog := Program{Name: "biglittle"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			t1 := th.Spawn(1, 0) // tile 1: big
			t2 := th.Spawn(1, 0) // tile 2: little (overridden)
			th.Join(t1)
			th.Join(t2)
		},
		func(th *Thread, arg uint64) {
			start := th.Now()
			th.Compute(coremodel.Arith, 10_000)
			d := th.Now() - start
			if th.ID() == 1 {
				res.big = d
			} else {
				res.little = d
			}
			// Meet before exiting: if the first spawned thread exited
			// before the MCP placed the second, its tile would be freed
			// and reused, putting both threads on the big tile.
			th.BarrierWait(bar, 2)
		},
	}
	run(t, cfg, prog, 0)
	if res.big != 10_000 {
		t.Fatalf("big core took %d cycles for 10k arith", res.big)
	}
	if res.little != 40_000 {
		t.Fatalf("little core took %d cycles, want 40000", res.little)
	}
}

func TestTileCoreOverrideValidation(t *testing.T) {
	cfg := testCfg(2, 1)
	cfg.TileCores = map[arch.TileID]config.CoreConfig{5: cfg.Core}
	if err := cfg.Validate(); err == nil {
		t.Fatal("override for nonexistent tile accepted")
	}
}

// TestRingTopologyRuns swaps the memory network for the ring model; the
// simulation must stay functionally identical (modeling is swappable
// without touching functionality, paper §2).
func TestRingTopologyRuns(t *testing.T) {
	cfg := testCfg(4, 1)
	cfg.MemNet = config.NetworkConfig{Kind: config.NetRing, HopLatency: 3, LinkBandwidth: 16}
	cfg.AppNet = config.NetworkConfig{Kind: config.NetRing, HopLatency: 3, LinkBandwidth: 16}
	prog := twoWorkerComputeProgram(t)
	rs, _ := run(t, cfg, prog, 0)
	if rs.SimulatedCycles <= 0 {
		t.Fatal("ring run produced no simulated time")
	}
}

// TestCoherenceProtocolsFunctionallyEquivalent runs the same program
// under all three directory protocols: answers must be identical even
// though timings differ — the swappable-model contract.
func TestCoherenceProtocolsFunctionallyEquivalent(t *testing.T) {
	protocols := []config.CoherenceConfig{
		{Kind: config.FullMap, DirLatency: 10},
		{Kind: config.LimitedNB, DirPointers: 1, DirLatency: 10},
		{Kind: config.LimitLESS, DirPointers: 1, TrapLatency: 100, DirLatency: 10},
	}
	for _, coh := range protocols {
		coh := coh
		t.Run(coh.Kind.String(), func(t *testing.T) {
			cfg := testCfg(4, 1)
			cfg.Coherence = coh
			// Shared counter under a mutex: the most protocol-hostile
			// pattern (constant ownership migration with read sharing).
			const workers, iters = 3, 30
			prog := Program{Name: "equiv"}
			prog.Funcs = []ThreadFunc{
				func(th *Thread, arg uint64) {
					base := th.Malloc(2 * 64)
					var tids []arch.ThreadID
					for i := 0; i < workers; i++ {
						tids = append(tids, th.Spawn(1, uint64(base)))
					}
					for _, tid := range tids {
						th.Join(tid)
					}
					if got := th.Load64(base); got != workers*iters {
						t.Errorf("%v: counter = %d, want %d", coh.Kind, got, workers*iters)
					}
				},
				func(th *Thread, arg uint64) {
					base := arch.Addr(arg)
					for i := 0; i < iters; i++ {
						th.MutexLock(base + 64)
						th.Store64(base, th.Load64(base)+1)
						th.MutexUnlock(base + 64)
					}
				},
			}
			run(t, cfg, prog, 0)
		})
	}
}

// TestFunctionalDeterminism: the same program run twice produces the same
// answer even though wall-clock interleavings (and hence some timings)
// differ run to run.
func TestFunctionalDeterminism(t *testing.T) {
	build := func() Program {
		prog := Program{Name: "det"}
		prog.Funcs = []ThreadFunc{
			func(th *Thread, arg uint64) {
				data := th.Malloc(64 * 64)
				var tids []arch.ThreadID
				for i := 0; i < 3; i++ {
					tids = append(tids, th.Spawn(1, uint64(data)|uint64(i)<<48))
				}
				for _, tid := range tids {
					th.Join(tid)
				}
				var sum uint64
				for i := 0; i < 64; i++ {
					sum += th.Load64(data + arch.Addr(i*64))
				}
				th.Store64(data, sum)
			},
			func(th *Thread, arg uint64) {
				data := arch.Addr(arg & 0xFFFF_FFFF_FFFF)
				w := int(arg >> 48)
				// Each worker owns a third of the slots.
				for i := w; i < 64; i += 3 {
					th.Store64(data+arch.Addr(i*64), uint64(i*i))
				}
			},
		}
		return prog
	}
	var sums []uint64
	for round := 0; round < 2; round++ {
		cfg := testCfg(4, 1)
		c, err := NewCluster(cfg, build())
		if err != nil {
			t.Fatal(err)
		}
		rs, err := runCluster(t, c, 0)
		if err != nil {
			t.Fatal(err)
		}
		_ = rs
		// The first slot holds the checksum (worker 0 owns slot 0, but
		// main overwrote it post-join).
		var b [8]byte
		c.Peek(0, b[:]) // dummy to exercise peek of address 0
		// Find the data base: main malloc'd first, so heap base.
		base := cfg.AS.HeapBase
		c.Peek(base, b[:])
		var sum uint64
		for i := 0; i < 8; i++ {
			sum |= uint64(b[i]) << (8 * i)
		}
		sums = append(sums, sum)
		c.Close()
	}
	if sums[0] != sums[1] {
		t.Fatalf("nondeterministic result: %d vs %d", sums[0], sums[1])
	}
	if sums[0] == 0 {
		t.Fatal("checksum empty")
	}
}
