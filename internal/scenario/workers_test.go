package scenario_test

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// workersScenario is radix and fft at four line sizes under the three
// directory kinds, on 8 small-cache tiles with one application thread,
// the tiles in one simulated process or striped over two: runs whose
// working sets spill out of L2, so their misses reach every home, the
// DRAM queues and the contended mesh.
const workersScenario = `{
  "name": "workers",
  "preset": "small-cache",
  "size": "quick",
  "threads": 1,
  "seed": 1,
  "base": { "Tiles": 8 },
  "grids": [
    {
      "axes": [
        { "field": "workload", "values": ["radix", "fft"] },
        { "field": "line_size", "values": [16, 32, 64, 128] },
        { "field": "Coherence.Kind", "values": ["full_map", "dir_nb", "limitless"] },
        { "field": "Processes", "values": [1, 2] }
      ]
    }
  ]
}`

// TestWorkerCountKeepsResults: a single-thread run's simulated cycles and
// statistics do not depend on how many memory-server shards serve its
// tiles, nor on how its processes split them (core.HostShare: at two
// processes, Workers 1, 2 and 4 run 1+1, 1+1 and 2+2 shards). Only the
// contention model is serial across shards, and a single thread makes the
// order of its calls the same at any worker count.
func TestWorkerCountKeepsResults(t *testing.T) {
	s, err := scenario.Parse(strings.NewReader(workersScenario))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 48 {
		t.Fatalf("expanded %d specs, want 48", len(specs))
	}
	split := 0
	for _, spec := range specs {
		if spec.Config.Processes == 2 {
			split++
		}
	}
	if split != 24 {
		t.Fatalf("%d specs at two processes, want 24", split)
	}
	for i := range specs {
		var ref scenario.Record
		for _, w := range []int{1, 2, 4} {
			spec := specs[i]
			spec.Config.Workers = w
			rec := scenario.Execute(&spec)
			if rec.Error != "" {
				t.Fatalf("run %d (%v) at Workers=%d: %s", spec.Run, spec.Axes, w, rec.Error)
			}
			if w == 1 {
				ref = rec
				continue
			}
			if rec.SimCycles != ref.SimCycles || !reflect.DeepEqual(rec.Stats, ref.Stats) {
				t.Errorf("run %d (%v): Workers=%d gives %d cycles and stats %+v, Workers=1 %d cycles and %+v",
					spec.Run, spec.Axes, w, rec.SimCycles, rec.Stats, ref.SimCycles, ref.Stats)
			}
		}
	}
}
