package core_test

import (
	"encoding/binary"
	"math"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/scenario"
	"repro/internal/simtest"
	"repro/internal/workloads"
)

// TestMatmul1024Tiles runs the paper's Figure 5 shape — matmul with one
// thread on each of 1024 tiles, default lax synchronization and the mesh
// contention model — to completion under a deadline and checks the result
// against the native computation. It asserts nothing about simulated
// time: lax matmul at this size reports implausible cycle counts
// (DESIGN.md §5, ROADMAP item 1).
func TestMatmul1024Tiles(t *testing.T) {
	const tiles, scale = 1024, 32
	cfg, err := scenario.Preset("large-target") // the benchmark's tile-1024 target
	if err != nil {
		t.Fatal(err)
	}
	cfg.Tiles = tiles

	w, ok := workloads.Get("matmul")
	if !ok {
		t.Fatal("matmul not registered")
	}
	p := workloads.Params{Threads: tiles, Scale: scale}
	c, err := core.NewCluster(cfg, w.Build(p))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var rs *core.RunStats
	simtest.Deadline(t, 2*time.Minute, func() { rs, err = c.Run(0) })
	if err != nil {
		t.Fatal(err)
	}
	if rs.Totals.Instructions == 0 {
		t.Fatal("no instructions retired")
	}
	var buf [8]byte
	c.Peek(workloads.DefaultResultAddr, buf[:])
	got := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
	if want := w.Native(p); !workloads.Close(got, want) {
		t.Fatalf("checksum %v, native %v", got, want)
	}
}
