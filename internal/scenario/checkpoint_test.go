package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestCheckpointingLeavesRecordsUnchanged: the checkpoint policy is not
// part of the cache key, so a checkpointed run must produce the record
// of the same run without checkpoints, per-tile statistics included, up
// to its wall times. Checked in process (snapshots kept in a directory)
// and at two forked processes, against the run of the same process count.
func TestCheckpointingLeavesRecordsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("four radix runs, two of them forked")
	}
	sc := &Scenario{
		Name:      "ckpt-identity",
		Preset:    "small-cache",
		Workload:  "radix",
		Threads:   1,
		TileStats: true,
		Base: map[string]any{
			"Tiles":               4,
			"Sync.Model":          "lax_barrier",
			"Sync.BarrierQuantum": 1000,
			// One shard per process: at two, per-tile dram_queue_wait
			// varies from run to run with or without checkpoints (the
			// shared contention model, ROADMAP item 1).
			"Workers": 1,
		},
		Grids: []Grid{{}},
	}
	specs, err := sc.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2} {
		plain := specs[0]
		plain.Processes = procs
		ckpt := plain
		ckpt.Checkpoint = &CheckpointPolicy{Every: 4}
		if procs == 1 {
			ckpt.Checkpoint.Dir = t.TempDir() // in process, only a directory turns checkpoints on
		}
		want, got := Execute(&plain), Execute(&ckpt)
		if want.Error != "" || got.Error != "" {
			t.Fatalf("%d processes: runs failed: %q / %q", procs, want.Error, got.Error)
		}
		if len(got.Tiles) != 4 {
			t.Fatalf("%d processes: %d tile records, want 4", procs, len(got.Tiles))
		}
		if w, g := recordSansWall(t, &want), recordSansWall(t, &got); !bytes.Equal(w, g) {
			t.Errorf("%d processes: checkpointing changed the record\nwithout: %s\nwith:    %s", procs, w, g)
		}
	}
}

// recordSansWall marshals rec without its host wall times.
func recordSansWall(t *testing.T, rec *Record) []byte {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	delete(m, "wall_sec")
	delete(m, "proc_wall_sec")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
