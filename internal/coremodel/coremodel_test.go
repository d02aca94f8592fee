package coremodel

import (
	"testing"
	"unsafe"

	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
)

func coreCfg() config.CoreConfig {
	return config.CoreConfig{
		Kind:      config.CoreInOrder,
		ArithCost: 1, MulCost: 3, DivCost: 18, FPCost: 2,
		BranchCost: 1, MispredictPenalty: 14,
		BranchPredictorSize: 16,
		StoreBufferSize:     2,
	}
}

func newCore(cfg config.CoreConfig) (*Core, *clock.Local) {
	var clk clock.Local
	return New(cfg, &clk, 0, 0, 0, nil), &clk
}

func TestComputeCosts(t *testing.T) {
	c, clk := newCore(coreCfg())
	c.Compute(Arith, 10)
	if clk.Now() != 10 {
		t.Fatalf("10 arith -> %d cycles", clk.Now())
	}
	c.Compute(Mul, 2)
	if clk.Now() != 16 {
		t.Fatalf("after 2 mul -> %d cycles, want 16", clk.Now())
	}
	c.Compute(Div, 1)
	if clk.Now() != 34 {
		t.Fatalf("after div -> %d, want 34", clk.Now())
	}
	c.Compute(FP, 5)
	if clk.Now() != 44 {
		t.Fatalf("after 5 fp -> %d, want 44", clk.Now())
	}
	instr, _, _, compute, _ := c.Stats()
	if instr != 18 || compute != 44 {
		t.Fatalf("stats: %d instr, %d compute cycles", instr, compute)
	}
	c.Compute(Arith, 0)
	c.Compute(Arith, -3)
	if clk.Now() != 44 {
		t.Fatal("non-positive compute changed clock")
	}
}

func TestBranchPredictorLearnsLoop(t *testing.T) {
	c, _ := newCore(coreCfg())
	// A loop branch taken 100 times: the 2-bit counter saturates quickly,
	// so mispredicts must be a small constant, not O(n).
	for i := 0; i < 100; i++ {
		c.Branch(true)
	}
	_, branches, miss, _, _ := c.Stats()
	if branches != 100 {
		t.Fatalf("branches = %d", branches)
	}
	if miss > 3 {
		t.Fatalf("predictor failed to learn: %d mispredicts", miss)
	}
}

func TestBranchAlternatingMispredicts(t *testing.T) {
	c, _ := newCore(coreCfg())
	for i := 0; i < 100; i++ {
		c.Branch(i%2 == 0)
	}
	_, _, miss, _, _ := c.Stats()
	// A 2-bit counter on alternating outcomes mispredicts roughly half.
	if miss < 30 {
		t.Fatalf("alternating pattern too predictable: %d mispredicts", miss)
	}
}

func TestMispredictPenaltyCharged(t *testing.T) {
	cfg := coreCfg()
	c, clk := newCore(cfg)
	c.Branch(true) // predictor initialized to not-taken: mispredict
	if clk.Now() != cfg.BranchCost+cfg.MispredictPenalty {
		t.Fatalf("first taken branch cost %d", clk.Now())
	}
}

func TestLoadBlocks(t *testing.T) {
	c, clk := newCore(coreCfg())
	c.Load(100)
	if clk.Now() != 100 {
		t.Fatalf("load of 100 cycles advanced clock by %d", clk.Now())
	}
	_, _, _, _, stall := c.Stats()
	if stall != 99 { // one issue cycle overlaps
		t.Fatalf("memStall = %d, want 99", stall)
	}
}

func TestStoreBufferHidesLatency(t *testing.T) {
	c, clk := newCore(coreCfg()) // buffer of 2
	c.Store(1000)
	c.Store(1000)
	if clk.Now() != 2 {
		t.Fatalf("two buffered stores advanced clock to %d, want 2", clk.Now())
	}
	// Third store must stall until the first completes (~1001).
	c.Store(1000)
	if clk.Now() < 1000 {
		t.Fatalf("full buffer did not stall: clock %d", clk.Now())
	}
}

func TestStoreBufferDrainsOverTime(t *testing.T) {
	c, clk := newCore(coreCfg())
	c.Store(100)
	c.Store(100)
	// Enough compute for both stores to complete.
	c.Compute(Arith, 500)
	before := clk.Now()
	c.Store(100) // should not stall
	if clk.Now() != before+1 {
		t.Fatalf("drained buffer stalled: %d -> %d", before, clk.Now())
	}
}

func TestNoStoreBufferBlocks(t *testing.T) {
	cfg := coreCfg()
	cfg.StoreBufferSize = 0
	c, clk := newCore(cfg)
	c.Store(100)
	if clk.Now() != 101 {
		t.Fatalf("unbuffered store advanced clock by %d, want 101", clk.Now())
	}
}

func TestInstructionFetchModeling(t *testing.T) {
	var clk clock.Local
	var fetches []arch.Addr
	fetch := func(pc arch.Addr, n int, now arch.Cycles) arch.Cycles {
		fetches = append(fetches, pc)
		return 5
	}
	// 64-byte lines, 256-byte code segment = 4 lines; 16 instrs per line.
	c := New(coreCfg(), &clk, 0x1000, 256, 64, fetch)
	c.Compute(Arith, 16) // exactly one line
	if len(fetches) != 1 || fetches[0] != 0x1000 {
		t.Fatalf("fetches = %v", fetches)
	}
	c.Compute(Arith, 16)
	if len(fetches) != 2 || fetches[1] != 0x1040 {
		t.Fatalf("fetches = %v", fetches)
	}
	// Wrap-around: two more lines finish the segment and wrap to base.
	c.Compute(Arith, 33)
	if fetches[len(fetches)-1] != 0x1000 {
		t.Fatalf("PC did not wrap: %v", fetches)
	}
}

func TestOutOfOrderHidesLoadLatency(t *testing.T) {
	cfg := coreCfg()
	cfg.Kind = config.CoreOutOfOrder
	cfg.ROBWindow = 64
	c, clk := newCore(cfg)
	c.Load(100) // 64 cycles hidden by the window
	if clk.Now() != 100-64 {
		t.Fatalf("OoO load of 100 advanced clock by %d, want 36", clk.Now())
	}
	// Short loads are fully hidden (only the issue cycle remains).
	c2, clk2 := newCore(cfg)
	c2.Load(30)
	if clk2.Now() != 1 {
		t.Fatalf("OoO short load advanced clock by %d, want 1", clk2.Now())
	}
}

func TestInOrderVsOutOfOrderOrdering(t *testing.T) {
	inCfg := coreCfg()
	ooCfg := coreCfg()
	ooCfg.Kind = config.CoreOutOfOrder
	ooCfg.ROBWindow = 32
	in, inClk := newCore(inCfg)
	oo, ooClk := newCore(ooCfg)
	for i := 0; i < 50; i++ {
		in.Load(80)
		oo.Load(80)
		in.Compute(Arith, 10)
		oo.Compute(Arith, 10)
	}
	if ooClk.Now() >= inClk.Now() {
		t.Fatalf("OoO (%d) not faster than in-order (%d)", ooClk.Now(), inClk.Now())
	}
}

func TestSpawnCost(t *testing.T) {
	c, clk := newCore(coreCfg())
	c.SpawnCost(250)
	if clk.Now() != 250 {
		t.Fatalf("spawn pseudo-instruction cost %d", clk.Now())
	}
	instr, _, _, _, _ := c.Stats()
	if instr != 1 {
		t.Fatalf("spawn not counted as instruction")
	}
}

func TestCoreFillsItsCacheLines(t *testing.T) {
	// The padding in Core is sized by hand; a new field must shrink it,
	// not push the struct into a size class that straddles cache lines
	// shared with a neighbouring tile's core.
	if size := unsafe.Sizeof(Core{}); size != 256 {
		t.Fatalf("Core is %d bytes, want 256 (adjust the padding)", size)
	}
}

// twoStepLoad and twoStepStore are Load and Store as they were when the
// issue cycle and the stall were two clock advances; the one-advance
// versions must leave the clock, the counters and the store buffer
// exactly where these do.
func twoStepLoad(c *Core, lat arch.Cycles) {
	c.advancePC(1)
	c.instructions++
	issue := c.cfg.ArithCost
	c.clk.Advance(issue)
	c.computeCyc += issue
	if c.cfg.Kind == config.CoreOutOfOrder && c.cfg.ROBWindow > 0 {
		lat -= c.cfg.ROBWindow
	}
	if lat > issue {
		stall := lat - issue
		c.clk.Advance(stall)
		c.memStallCyc += stall
	}
}

func twoStepStore(c *Core, lat arch.Cycles) {
	c.advancePC(1)
	c.instructions++
	issue := c.cfg.ArithCost
	c.clk.Advance(issue)
	c.computeCyc += issue
	now := c.clk.Now()
	if c.storeBuf == nil {
		if lat > 0 {
			c.clk.Advance(lat)
			c.memStallCyc += lat
		}
		return
	}
	free := -1
	earliest := 0
	for i, done := range c.storeBuf {
		if done <= now {
			free = i
			break
		}
		if done < c.storeBuf[earliest] {
			earliest = i
		}
	}
	if free < 0 {
		stall := c.storeBuf[earliest] - now
		c.clk.Advance(stall)
		c.memStallCyc += stall
		now += stall
		free = earliest
	}
	c.storeBuf[free] = now + lat
}

func TestRetireAdvancesLikeTwoSteps(t *testing.T) {
	for _, kind := range []config.CoreModelKind{config.CoreInOrder, config.CoreOutOfOrder} {
		for _, arith := range []arch.Cycles{-1, 0, 1, 3} {
			for _, sb := range []int{0, 1, 4} {
				cfg := coreCfg()
				cfg.Kind, cfg.ROBWindow, cfg.ArithCost, cfg.StoreBufferSize = kind, 16, arith, sb
				got, gotClk := newCore(cfg)
				want, wantClk := newCore(cfg)
				rng := uint64(arith+7)*31 + uint64(sb)
				for step := 0; step < 2000; step++ {
					rng = rng*6364136223846793005 + 1442695040888963407
					lat := arch.Cycles(rng>>33) % 200
					if rng>>20&1 == 0 {
						got.Load(lat)
						twoStepLoad(want, lat)
					} else {
						got.Store(lat)
						twoStepStore(want, lat)
					}
					if gotClk.Now() != wantClk.Now() || got.computeCyc != want.computeCyc || got.memStallCyc != want.memStallCyc {
						t.Fatalf("kind %v arith %d store buffer %d, step %d: clock/compute/stall %d/%d/%d, two-step %d/%d/%d",
							kind, arith, sb, step, gotClk.Now(), got.computeCyc, got.memStallCyc, wantClk.Now(), want.computeCyc, want.memStallCyc)
					}
					for i := range got.storeBuf {
						if got.storeBuf[i] != want.storeBuf[i] {
							t.Fatalf("kind %v arith %d store buffer %d, step %d: store buffer differs", kind, arith, sb, step)
						}
					}
				}
			}
		}
	}
}
