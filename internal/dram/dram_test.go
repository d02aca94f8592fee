package dram

import (
	"bytes"
	"testing"

	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
)

func newCtl(tiles int, queue bool) *Controller {
	cfg := config.Default()
	cfg.Tiles = tiles
	cfg.DRAM.QueueModel = queue
	return New(&cfg, clock.NewProgressWindow(tiles))
}

func TestReadUnwrittenLineIsZero(t *testing.T) {
	c := newCtl(4, false)
	dst := bytes.Repeat([]byte{0xFF}, 64)
	lat := c.ReadLine(10, dst, 0)
	if lat <= 0 {
		t.Fatalf("latency = %d", lat)
	}
	for _, b := range dst {
		if b != 0 {
			t.Fatal("unwritten DRAM not zero")
		}
	}
}

func TestWriteThenRead(t *testing.T) {
	c := newCtl(4, false)
	src := bytes.Repeat([]byte{0x5A}, 64)
	c.WriteLine(3, src, 0)
	dst := make([]byte, 64)
	c.ReadLine(3, dst, 0)
	if !bytes.Equal(dst, src) {
		t.Fatal("readback mismatch")
	}
	if c.Reads != 1 || c.Writes != 1 {
		t.Fatalf("counters: %d reads %d writes", c.Reads, c.Writes)
	}
}

func TestWriteCopiesBuffer(t *testing.T) {
	c := newCtl(4, false)
	src := make([]byte, 64)
	src[0] = 1
	c.WriteLine(0, src, 0)
	src[0] = 2
	dst := make([]byte, 64)
	c.ReadLine(0, dst, 0)
	if dst[0] != 1 {
		t.Fatal("DRAM aliased caller buffer")
	}
}

func TestServiceTimeScalesWithTiles(t *testing.T) {
	// Table 1: total bandwidth is fixed, so doubling tiles doubles the
	// per-controller service time.
	a := newCtl(16, false)
	b := newCtl(32, false)
	if b.ServiceTime() < 2*a.ServiceTime()-1 || b.ServiceTime() > 2*a.ServiceTime()+1 {
		t.Fatalf("service time 16 tiles = %d, 32 tiles = %d; want ~2x", a.ServiceTime(), b.ServiceTime())
	}
}

func TestQueueingDelayGrowsUnderLoad(t *testing.T) {
	c := newCtl(32, true)
	dst := make([]byte, 64)
	first := c.ReadLine(0, dst, 1000)
	var last arch.Cycles
	for i := 0; i < 20; i++ {
		last = c.ReadLine(uint64(i), dst, 1000)
	}
	if last <= first {
		t.Fatalf("no queueing under load: first %d, last %d", first, last)
	}
	if c.TotalQueueDelay == 0 {
		t.Fatal("queue delay not accounted")
	}
}

func TestNoQueueModelFixedLatency(t *testing.T) {
	c := newCtl(32, false)
	dst := make([]byte, 64)
	a := c.ReadLine(0, dst, 1000)
	for i := 0; i < 20; i++ {
		c.ReadLine(uint64(i), dst, 1000)
	}
	b := c.ReadLine(99, dst, 1000)
	if a != b {
		t.Fatalf("latency varied without queue model: %d vs %d", a, b)
	}
}

func TestPeekPoke(t *testing.T) {
	c := newCtl(4, false)
	c.Poke(7, 8, []byte{1, 2, 3})
	got := make([]byte, 3)
	c.Peek(7, 8, got)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("peek = %v", got)
	}
	// Peek of untouched line yields zeros.
	got2 := []byte{9, 9}
	c.Peek(100, 0, got2)
	if got2[0] != 0 || got2[1] != 0 {
		t.Fatal("peek of cold line not zero")
	}
	if c.Reads != 0 || c.Writes != 0 {
		t.Fatal("peek/poke affected timing counters")
	}
	if c.Lines() != 1 {
		t.Fatalf("Lines() = %d, want 1 (Peek must not allocate)", c.Lines())
	}
}

func TestLineStorageStartsSmallAndDoubles(t *testing.T) {
	// A controller that homes one line holds one line of slab, not
	// dramSlabLines; chunks double up to dramSlabLines and stay there.
	c := newCtl(1024, false)
	src := bytes.Repeat([]byte{0xA5}, 64)
	c.WriteLine(0, src, 0)
	if c.slabLines != 1 {
		t.Fatalf("first line took a %d-line chunk, want 1", c.slabLines)
	}
	const lines = 3 * dramSlabLines
	for l := uint64(1); l < lines; l++ {
		src[0] = byte(l)
		c.WriteLine(l, src, 0)
	}
	if c.slabLines != dramSlabLines {
		t.Fatalf("chunk size settled at %d lines, want %d", c.slabLines, dramSlabLines)
	}
	dst := make([]byte, 64)
	for l := uint64(1); l < lines; l++ {
		c.ReadLine(l, dst, 0)
		if dst[0] != byte(l) || dst[63] != 0xA5 {
			t.Fatalf("line %d read back %x..%x", l, dst[0], dst[63])
		}
	}
}
