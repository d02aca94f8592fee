package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/coremodel"
)

func TestCondBroadcastWakesAll(t *testing.T) {
	const waiters = 3
	var woken atomic.Int32
	prog := Program{Name: "bcast"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			base := th.Malloc(3 * 64)
			flag, m, cv := base, base+64, base+128
			var tids []arch.ThreadID
			for i := 0; i < waiters; i++ {
				tids = append(tids, th.Spawn(1, uint64(base)))
			}
			// Give waiters time (in wall-clock terms their RPCs block at
			// the MCP regardless; ordering is enforced by the flag).
			th.Compute(coremodel.Arith, 5000)
			th.MutexLock(m)
			th.Store64(flag, 1)
			th.MutexUnlock(m)
			th.CondBroadcast(cv)
			for _, tid := range tids {
				th.Join(tid)
			}
			if woken.Load() != waiters {
				t.Errorf("woken = %d, want %d", woken.Load(), waiters)
			}
			_ = flag
		},
		func(th *Thread, arg uint64) {
			base := arch.Addr(arg)
			flag, m, cv := base, base+64, base+128
			th.MutexLock(m)
			for th.Load64(flag) == 0 {
				th.CondWait(cv, m)
			}
			th.MutexUnlock(m)
			woken.Add(1)
		},
	}
	run(t, testCfg(4, 1), prog, 0)
}

func TestMallocFreeReuse(t *testing.T) {
	prog := Program{Name: "free"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			a := th.Malloc(1 << 20)
			th.Store64(a, 1)
			th.Free(a)
			// After freeing the megabyte, it must be allocatable again
			// (first-fit returns the same block).
			b := th.Malloc(1 << 20)
			th.Store64(b, 2)
			if b != a {
				t.Errorf("freed block not reused: %#x vs %#x", uint64(b), uint64(a))
			}
		},
	}
	run(t, testCfg(2, 1), prog, 0)
}

func TestComputeKindsAdvanceDifferently(t *testing.T) {
	prog := Program{Name: "kinds"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			start := th.Now()
			th.Compute(coremodel.Arith, 100)
			arith := th.Now() - start
			start = th.Now()
			th.Compute(coremodel.Div, 100)
			div := th.Now() - start
			if div <= arith {
				t.Errorf("div (%d) not slower than arith (%d)", div, arith)
			}
		},
	}
	run(t, testCfg(2, 1), prog, 0)
}

func TestThreadIdentityAndTiles(t *testing.T) {
	prog := Program{Name: "id"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			if th.ID() != 0 {
				t.Errorf("main thread id = %v", th.ID())
			}
			if th.Tiles() != 4 {
				t.Errorf("tiles = %d", th.Tiles())
			}
			tid := th.Spawn(1, 0)
			if tid != 1 {
				t.Errorf("first spawned tid = %v, want 1 (lowest free tile)", tid)
			}
			th.Join(tid)
		},
		func(th *Thread, arg uint64) {
			if th.ID() != 1 {
				t.Errorf("worker id = %v", th.ID())
			}
		},
	}
	run(t, testCfg(4, 1), prog, 0)
}

func TestTileReuseAfterExit(t *testing.T) {
	// Threads are long-living but tiles free on exit; sequential spawns
	// beyond the tile count must succeed once earlier threads exit.
	prog := Program{Name: "reuse"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			for round := 0; round < 3; round++ {
				tid := th.Spawn(1, uint64(round))
				if tid == arch.InvalidThread {
					t.Errorf("round %d: no free tile despite exits", round)
					return
				}
				th.Join(tid)
			}
		},
		func(th *Thread, arg uint64) {
			th.Compute(coremodel.Arith, 10)
		},
	}
	run(t, testCfg(2, 1), prog, 0) // only one spare tile: reuse required
}

func TestOutOfOrderCoreEndToEnd(t *testing.T) {
	cfg := testCfg(2, 1)
	cfg.Core.Kind = config.CoreOutOfOrder
	cfg.Core.ROBWindow = 64
	inCfg := testCfg(2, 1)

	prog := func() Program {
		return Program{Name: "ooo", Funcs: []ThreadFunc{
			func(th *Thread, arg uint64) {
				a := th.Malloc(256 * 64)
				for i := 0; i < 256; i++ {
					th.Store64(a+arch.Addr(i*64), uint64(i))
				}
				var sum uint64
				for i := 0; i < 256; i++ {
					sum += th.Load64(a + arch.Addr(i*64))
				}
				if sum != 255*256/2 {
					t.Errorf("sum = %d", sum)
				}
			},
		}}
	}
	rsOoO, _ := run(t, cfg, prog(), 0)
	rsIn, _ := run(t, inCfg, prog(), 0)
	if rsOoO.SimulatedCycles >= rsIn.SimulatedCycles {
		t.Fatalf("OoO core (%d cycles) not faster than in-order (%d)",
			rsOoO.SimulatedCycles, rsIn.SimulatedCycles)
	}
}
