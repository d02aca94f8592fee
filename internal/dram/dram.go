// Package dram models the memory controllers of the target architecture
// (paper §3.2, Table 1). The default target places one controller at every
// tile, splitting total off-chip bandwidth evenly; per-access service time
// therefore grows with the tile count, which is the effect behind the
// memory-latency saturation discussed with Figure 9.
//
// The controller also owns the functional backing store for the lines
// homed at its tile: the "DRAM contents" of that slice of the simulated
// address space. Only the home tile's memory server touches the backing
// store, so it needs no locking.
package dram

import (
	"math"

	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/queuemodel"
)

// Controller is one tile's DRAM controller.
type Controller struct {
	latency  arch.Cycles
	service  arch.Cycles // per-line service time from partitioned bandwidth
	lineSize int

	// queue is the controller's lax contention queue, guarded by
	// progress's lock; progress is nil when queue modeling is off.
	queue    queuemodel.Queue
	progress *clock.ProgressWindow

	store map[uint64][]byte // line address -> line data
	// slab carves line buffers in chunks that double from one line up to
	// dramSlabLines: a controller homing a handful of lines (the common
	// case at a thousand tiles) holds a handful of lines, a busy one
	// pays one allocation per dramSlabLines lines touched.
	slab      []byte
	slabLines int // size of the last chunk, in lines

	// Statistics.
	Reads, Writes   uint64
	TotalQueueDelay arch.Cycles
}

// dramSlabLines is the largest slab chunk, in lines.
const dramSlabLines = 256

// lineBuf carves storage for one newly touched line.
func (c *Controller) lineBuf() []byte {
	if len(c.slab) < c.lineSize {
		c.slabLines = min(max(1, 2*c.slabLines), dramSlabLines)
		c.slab = make([]byte, c.slabLines*c.lineSize)
	}
	b := c.slab[:c.lineSize:c.lineSize]
	c.slab = c.slab[c.lineSize:]
	return b
}

// New builds a controller. cfg supplies bandwidth partitioning (via the
// whole-simulation config, which knows the tile count and clock), progress
// feeds the lax queue model (may be nil to disable queue modeling).
func New(cfg *config.Config, progress *clock.ProgressWindow) *Controller {
	bytesPerCycle := cfg.BytesPerCyclePerController()
	service := arch.Cycles(math.Ceil(float64(cfg.LineSize()) / bytesPerCycle))
	c := &Controller{
		latency:  cfg.DRAM.AccessLatency,
		service:  service,
		lineSize: cfg.LineSize(),
		store:    make(map[uint64][]byte),
	}
	if cfg.DRAM.QueueModel && progress != nil {
		c.progress = progress
	}
	return c
}

// ServiceTime returns the modeled per-line service time.
func (c *Controller) ServiceTime() arch.Cycles { return c.service }

// ReadLine returns the latency of a line read beginning at time now and
// copies the line's data into dst (zeros if never written). dst must be
// lineSize bytes.
func (c *Controller) ReadLine(line uint64, dst []byte, now arch.Cycles) arch.Cycles {
	c.Reads++
	lat := c.access(now)
	if data, ok := c.store[line]; ok {
		copy(dst, data)
	} else {
		for i := range dst {
			dst[i] = 0
		}
	}
	return lat
}

// WriteLine stores a line (a writeback) and returns the modeled latency.
func (c *Controller) WriteLine(line uint64, src []byte, now arch.Cycles) arch.Cycles {
	c.Writes++
	lat := c.access(now)
	buf, ok := c.store[line]
	if !ok {
		buf = c.lineBuf()
		c.store[line] = buf
	}
	copy(buf, src)
	return lat
}

// Peek reads bytes functionally with no timing effects. It is valid only
// when no cache holds the addressed line dirty (pre-run or post-flush).
func (c *Controller) Peek(line uint64, off int, dst []byte) {
	if data, ok := c.store[line]; ok {
		copy(dst, data[off:off+len(dst)])
		return
	}
	for i := range dst {
		dst[i] = 0
	}
}

// Poke writes bytes functionally with no timing effects (same caveat as
// Peek).
func (c *Controller) Poke(line uint64, off int, src []byte) {
	buf, ok := c.store[line]
	if !ok {
		buf = c.lineBuf()
		c.store[line] = buf
	}
	copy(buf[off:], src)
}

func (c *Controller) access(now arch.Cycles) arch.Cycles {
	lat := c.latency + c.service
	if c.progress != nil {
		d := c.queue.Delay(c.progress, now, c.service)
		c.TotalQueueDelay += d
		lat += d
	}
	return lat
}

// Lines returns the number of distinct lines ever touched (diagnostics).
func (c *Controller) Lines() int { return len(c.store) }
