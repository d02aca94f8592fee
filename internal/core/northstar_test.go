package core_test

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mcp"
	"repro/internal/scenario"
	"repro/internal/simtest"
	"repro/internal/workloads"
)

// TestMatmul1024Tiles runs the paper's Figure 5 shape — matmul with one
// thread on each of 1024 tiles, default lax synchronization and the mesh
// contention model — to completion under a deadline and checks the result
// against the native computation. It asserts nothing about simulated
// time: lax matmul at this size reports implausible cycle counts
// (DESIGN.md §5, ROADMAP item 1). It then checkpoints the finished
// cluster: the files must stay far below what the state's capacity would
// take, and restoring them into a fresh cluster must recapture the same
// digests.
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
	prog := w.Build(p)
	c, err := core.NewCluster(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	dir := t.TempDir()
	c.SetCheckpoint(&mcp.CheckpointPolicy{Dir: dir, ConfigDigest: "test-digest"})
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

	var saved, recaptured *checkpoint.Manifest
	simtest.Deadline(t, 2*time.Minute, func() {
		if saved, err = c.CaptureState(1); err != nil {
			return
		}
		var rc *core.Cluster
		if rc, err = core.RestoreCluster(cfg, prog, dir, saved); err != nil {
			return
		}
		defer rc.Close()
		rc.SetCheckpoint(&mcp.CheckpointPolicy{Dir: t.TempDir(), ConfigDigest: "test-digest"})
		recaptured, err = rc.CaptureState(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	var size int64
	for _, mp := range saved.Procs {
		fi, err := os.Stat(filepath.Join(dir, mp.File))
		if err != nil {
			t.Fatal(err)
		}
		size += fi.Size()
	}
	t.Logf("1024-tile checkpoint: %d bytes of state files", size)
	if size > 200<<20 {
		t.Errorf("1024-tile checkpoint is %d bytes, want under 200 MB", size)
	}
	if !slices.Equal(saved.VerifyDigests(), recaptured.VerifyDigests()) {
		t.Errorf("restore is not bit-identical:\n  saved     %v\n  recapture %v", saved.VerifyDigests(), recaptured.VerifyDigests())
	}
}

// TestLaxBarrierMatmulFinishes: matmul's workers pass a message round
// their ring after every row, so under LaxBarrier a receiver blocks while
// its sender is parked at the quantum barrier. The barrier must release
// past the receiver, at 8 and 16 tiles, in one process and striped across
// two, and the product must be the one the Lax run computes.
func TestLaxBarrierMatmulFinishes(t *testing.T) {
	w, ok := workloads.Get("matmul")
	if !ok {
		t.Fatal("matmul not registered")
	}
	for _, tiles := range []int{8, 16} {
		p := workloads.Params{Threads: tiles, Scale: 16}
		checksum := func(model config.SyncModel, procs int) uint64 {
			cfg := config.Default()
			cfg.Tiles, cfg.Processes = tiles, procs
			cfg.Sync.Model = model
			c, err := core.NewCluster(cfg, w.Build(p))
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			simtest.Deadline(t, 2*time.Minute, func() { _, err = c.Run(0) })
			if err != nil {
				t.Fatalf("%d tiles, %v, %d processes: %v", tiles, model, procs, err)
			}
			var buf [8]byte
			c.Peek(workloads.DefaultResultAddr, buf[:])
			return binary.LittleEndian.Uint64(buf[:])
		}
		want := checksum(config.Lax, 1)
		for _, procs := range []int{1, 2} {
			if got := checksum(config.LaxBarrier, procs); got != want {
				t.Errorf("%d tiles, %d processes: LaxBarrier checksum %016x, Lax %016x", tiles, procs, got, want)
			}
		}
	}
}
