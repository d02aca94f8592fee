package main

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"testing"

	"repro/internal/scenario"
)

// TestReportsTheSweepRecordsCycles: the cycle count, checksum and config
// digest graphite prints for a run are those of the run's sweep record —
// in particular the workload's region of interest, not the largest tile
// clock at teardown.
func TestReportsTheSweepRecordsCycles(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "radix", "-tiles", "4", "-threads", "1", "-scale", "8", "-seed", "5"}, &stdout, &stderr); code != 0 {
		t.Fatalf("graphite exited %d: %s", code, stderr.String())
	}

	records, err := scenario.Run(&scenario.Scenario{
		Name:     "graphite-equivalent",
		Workload: "radix",
		Threads:  1,
		Scale:    8,
		Seed:     5,
		Base:     map[string]any{"Tiles": 4},
		Grids:    []scenario.Grid{{}},
	}, scenario.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec := records[0]
	if rec.SimCycles == uint64(rec.Stats.MaxCycles) {
		t.Fatal("test premise broken: the run's region of interest ends at its largest tile clock")
	}

	for label, want := range map[string]string{
		"simulated cycles": fmt.Sprint(rec.SimCycles),
		"checksum":         fmt.Sprintf("%016x", math.Float64bits(rec.Checksum)),
		"config digest":    rec.ConfigDigest,
	} {
		m := regexp.MustCompile(`(?m)^` + label + `\s+(\S+)`).FindSubmatch(stdout.Bytes())
		if m == nil || string(m[1]) != want {
			t.Errorf("graphite printed %q for %s, the sweep record says %s\n%s", m, label, want, stdout.String())
		}
	}
}
