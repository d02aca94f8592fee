// Package coremodel implements the core performance model of paper §3.1:
// a purely modeled, in-order pipeline with an out-of-order memory system.
// It follows the producer-consumer design of the paper — the application
// (running natively) produces instruction batches, branches, and memory
// operations; the model consumes them and advances the tile's local clock.
// Store buffers, a branch predictor, instruction costs, and instruction
// fetch are all modeled and configurable.
//
// The model is driven by the tile's application thread only and is not
// safe for concurrent use (the clock it advances is).
package coremodel

import (
	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
)

// InstrKind labels the cost class of a computational instruction.
type InstrKind int

const (
	// Arith is a simple ALU operation (add, sub, logic, compare).
	Arith InstrKind = iota
	// Mul is an integer multiply.
	Mul
	// Div is an integer divide.
	Div
	// FP is a floating-point operation.
	FP
)

// FetchFunc models an instruction fetch of n bytes at pc starting at time
// now, returning its latency. The tile wires this to its L1I path.
type FetchFunc func(pc arch.Addr, n int, now arch.Cycles) arch.Cycles

// Core is the performance model of one tile's in-order core.
type Core struct {
	cfg   config.CoreConfig
	clk   *clock.Local
	fetch FetchFunc

	// Synthetic program counter for instruction-fetch modeling. It
	// advances instrBytes per instruction and wraps within the code
	// segment, approximating a loop working set.
	pc        arch.Addr
	codeBase  arch.Addr
	codeSize  int
	lineSize  int
	fetchedLn arch.Addr // current fetched line base

	// Branch predictor: 2-bit saturating counters.
	predictor []uint8
	predMask  uint64

	// Store buffer: completion times of outstanding stores.
	storeBuf []arch.Cycles

	// Statistics.
	instructions uint64
	branches     uint64
	mispredicts  uint64
	computeCyc   arch.Cycles
	memStallCyc  arch.Cycles

	// Pad to 256 bytes, a size class whose objects start on cache-line
	// boundaries: each tile's thread writes its Core on every instruction,
	// and the cores of neighbouring tiles are allocated side by side. In
	// the 240-byte class they share lines (measured: a 4-tile matmul ran
	// ~15 % slower on two workers).
	_ [16]byte
}

// instrBytes is the modeled instruction size.
const instrBytes = 4

// New builds a core model. clk is the tile's local clock; fetch may be nil
// to disable instruction-fetch modeling; codeBase/codeSize bound the
// synthetic code segment (codeSize 0 also disables fetch modeling).
func New(cfg config.CoreConfig, clk *clock.Local, codeBase arch.Addr, codeSize, lineSize int, fetch FetchFunc) *Core {
	size := cfg.BranchPredictorSize
	if size <= 0 {
		size = 1
	}
	// Round up to a power of two for cheap indexing.
	p := 1
	for p < size {
		p <<= 1
	}
	c := &Core{
		cfg:       cfg,
		clk:       clk,
		fetch:     fetch,
		codeBase:  codeBase,
		codeSize:  codeSize,
		pc:        codeBase,
		lineSize:  lineSize,
		predictor: make([]uint8, p),
		predMask:  uint64(p - 1),
		fetchedLn: ^arch.Addr(0),
	}
	if cfg.StoreBufferSize > 0 {
		c.storeBuf = make([]arch.Cycles, cfg.StoreBufferSize)
	}
	return c
}

// Now returns the core's current clock.
func (c *Core) Now() arch.Cycles { return c.clk.Now() }

func (c *Core) cost(k InstrKind) arch.Cycles {
	switch k {
	case Mul:
		return c.cfg.MulCost
	case Div:
		return c.cfg.DivCost
	case FP:
		return c.cfg.FPCost
	default:
		return c.cfg.ArithCost
	}
}

// advancePC models fetching n instructions, charging I-cache latencies
// when the synthetic PC crosses a line boundary. It strides line by line
// rather than instruction by instruction — the observable behaviour (one
// fetch per line entered, wrap at the code-segment end) is identical, but
// a large Compute batch costs O(lines crossed) instead of O(n).
func (c *Core) advancePC(n int) {
	if c.fetch == nil || c.codeSize <= 0 || c.lineSize <= 0 {
		return
	}
	end := c.codeBase + arch.Addr(c.codeSize)
	for n > 0 {
		line := c.pc &^ arch.Addr(c.lineSize-1)
		if line != c.fetchedLn {
			c.fetchedLn = line
			lat := c.fetch(line, c.lineSize, c.clk.Now())
			if lat > c.cfg.ArithCost {
				// Fetch stalls beyond the overlapped issue cycle.
				c.clk.Advance(lat - c.cfg.ArithCost)
				c.memStallCyc += lat - c.cfg.ArithCost
			}
		}
		limit := line + arch.Addr(c.lineSize)
		if limit > end {
			limit = end
		}
		// Instructions whose start lies before limit — the ceiling keeps a
		// boundary-straddling instruction in this iteration (its fetch was
		// charged to the line containing its start, as the per-instruction
		// walk did), so misaligned code bases and footprints advance
		// correctly. limit > pc always, so step >= 1 and the loop advances.
		step := int((limit - c.pc + instrBytes - 1) / instrBytes)
		if step > n {
			step = n
		}
		c.pc += arch.Addr(step * instrBytes)
		if c.pc >= end {
			c.pc = c.codeBase
		}
		n -= step
	}
}

// Compute retires n instructions of kind k.
func (c *Core) Compute(k InstrKind, n int) {
	if n <= 0 {
		return
	}
	c.advancePC(n)
	d := arch.Cycles(n) * c.cost(k)
	c.clk.Advance(d)
	c.computeCyc += d
	c.instructions += uint64(n)
}

// Branch retires one branch instruction at the current synthetic PC,
// consulting the 2-bit predictor and charging the misprediction penalty
// when it is wrong.
func (c *Core) Branch(taken bool) {
	c.advancePC(1)
	idx := (uint64(c.pc) / instrBytes) & c.predMask
	ctr := c.predictor[idx]
	predictTaken := ctr >= 2
	d := c.cfg.BranchCost
	c.branches++
	if predictTaken != taken {
		c.mispredicts++
		d += c.cfg.MispredictPenalty
	}
	if taken && ctr < 3 {
		c.predictor[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		c.predictor[idx] = ctr - 1
	}
	c.clk.Advance(d)
	c.computeCyc += d
	c.instructions++
}

// Load retires a load whose memory latency was lat. The in-order model
// blocks until the data returns; the out-of-order model overlaps up to
// ROBWindow cycles of the latency with execution (paper §3.1: core models
// may differ drastically from the in-order functional execution). The
// issue cycle and the stall reach the clock in one advance.
func (c *Core) Load(lat arch.Cycles) {
	c.advancePC(1)
	c.instructions++
	issue := c.cfg.ArithCost
	c.computeCyc += issue
	if c.cfg.Kind == config.CoreOutOfOrder && c.cfg.ROBWindow > 0 {
		lat -= c.cfg.ROBWindow
	}
	d := max(issue, 0) // the clock never runs backwards
	if lat > issue {
		stall := lat - issue
		d += stall
		c.memStallCyc += stall
	}
	c.clk.Advance(d)
}

// Store retires a store whose memory latency was lat. With a store buffer
// the latency is hidden unless the buffer is full, in which case the core
// stalls until the oldest outstanding store completes. The issue cycle
// and the stall reach the clock in one advance.
func (c *Core) Store(lat arch.Cycles) {
	c.advancePC(1)
	c.instructions++
	issue := c.cfg.ArithCost
	c.computeCyc += issue
	d := max(issue, 0) // the clock never runs backwards
	if c.storeBuf == nil {
		if lat > 0 {
			d += lat
			c.memStallCyc += lat
		}
		c.clk.Advance(d)
		return
	}
	now := c.clk.Now() + d
	// Find a free slot (completion in the past) or stall for the earliest.
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
		d += stall
		c.memStallCyc += stall
		now += stall
		free = earliest
	}
	c.storeBuf[free] = now + lat
	c.clk.Advance(d)
}

// SpawnCost charges the thread-spawn pseudo-instruction (paper §3.1).
func (c *Core) SpawnCost(d arch.Cycles) {
	c.clk.Advance(d)
	c.instructions++
}

// Stats returns the model's counters.
func (c *Core) Stats() (instructions, branches, mispredicts uint64, compute, memStall arch.Cycles) {
	return c.instructions, c.branches, c.mispredicts, c.computeCyc, c.memStallCyc
}
