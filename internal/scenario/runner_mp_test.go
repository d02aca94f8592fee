package scenario

import (
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core/launch"
)

// TestMain lets forked copies of this test binary serve as fabric workers
// for multi-process runs (Execute re-executes os.Executable()).
func TestMain(m *testing.M) {
	launch.MaybeWorkerProcess()
	os.Exit(m.Run())
}

// mpScenario is a small target whose timing is striping-invariant: the
// analytical (no-queue) network and DRAM models carry no per-process
// state, so an N-OS-process run must be byte-identical to the in-process
// run (DESIGN.md §12). One application thread on tile 0 still drives
// cross-process coherence traffic — tiles 1 and 3 (directory homes) live
// in the second process.
func mpScenario() *Scenario {
	return &Scenario{
		Name:     "mp-e2e",
		Preset:   "small-cache",
		Workload: "fft",
		Threads:  1,
		Scale:    4,
		Seed:     7,
		Base: map[string]any{
			"Tiles":           4,
			"MemNet.Kind":     "mesh_hop",
			"DRAM.QueueModel": false,
		},
		Grids: []Grid{{}},
	}
}

// TestMultiProcessMatchesInProcess is the correctness bar of the
// multi-process mode: a 2-OS-process TCP striped run of a spec must
// produce the same workload checksum, config digest, and stats.Totals as
// the in-process run of the identical spec and seed.
func TestMultiProcessMatchesInProcess(t *testing.T) {
	specs, err := mpScenario().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 1 {
		t.Fatalf("expanded to %d specs, want 1", len(specs))
	}
	single := Execute(&specs[0])
	if single.Error != "" {
		t.Fatalf("in-process run: %s", single.Error)
	}

	mpSpec := specs[0]
	mpSpec.Processes = 2
	mp := Execute(&mpSpec)
	if mp.Error != "" {
		t.Fatalf("multi-process run: %s", mp.Error)
	}

	if mp.Checksum != single.Checksum {
		t.Errorf("checksum: mp %v != in-process %v", mp.Checksum, single.Checksum)
	}
	if mp.ConfigDigest != single.ConfigDigest {
		t.Errorf("config digest: mp %s != in-process %s", mp.ConfigDigest, single.ConfigDigest)
	}
	if mp.SimCycles != single.SimCycles {
		t.Errorf("sim cycles: mp %d != in-process %d", mp.SimCycles, single.SimCycles)
	}
	if !reflect.DeepEqual(mp.Stats, single.Stats) {
		t.Errorf("stats diverge:\nmp:         %+v\nin-process: %+v", mp.Stats, single.Stats)
	}
	if mp.Processes != 2 {
		t.Errorf("record processes = %d, want 2", mp.Processes)
	}
	if len(mp.ProcWallSec) != 2 {
		t.Errorf("proc wall times %v, want one per process", mp.ProcWallSec)
	}
	for p, w := range mp.ProcWallSec {
		if w <= 0 {
			t.Errorf("proc %d wall time %v", p, w)
		}
	}
}

// TestProcessesIsASweepAxis: the OS process count expands like any other
// run-level field.
func TestProcessesIsASweepAxis(t *testing.T) {
	s := mpScenario()
	s.Grids = []Grid{{Axes: []Axis{{Field: "processes", Values: []any{1, 2}}}}}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 {
		t.Fatalf("expanded to %d specs, want 2", len(specs))
	}
	if specs[0].Processes != 1 || specs[1].Processes != 2 {
		t.Fatalf("processes = %d, %d; want 1, 2", specs[0].Processes, specs[1].Processes)
	}
	// Host-execution fields must not perturb the target identity: with
	// the per-run seed normalized away, the two points simulate the same
	// target and must share a digest.
	cfg := specs[1].Config
	cfg.RandSeed = specs[0].Config.RandSeed
	cfg.Processes = 2
	cfg.Workers = 3
	if Digest(&specs[0].Config) != Digest(&cfg) {
		t.Fatal("host-execution fields leaked into the config digest")
	}
}

func TestExpandRejectsBadProcesses(t *testing.T) {
	s := mpScenario()
	s.Processes = 8 // > Tiles (4)
	if _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "processes") {
		t.Fatalf("want a processes range error, got %v", err)
	}

	s = mpScenario()
	s.Processes = 2
	s.Hosts = []string{"127.0.0.1:39900"} // 1 host for 2 processes
	if _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "hosts") {
		t.Fatalf("want a hosts mismatch error, got %v", err)
	}
}

// TestNeedsSerialForPinnedHosts: multi-process runs with pinned fabric
// addresses cannot share the host-parallel pool (port collisions).
func TestNeedsSerialForPinnedHosts(t *testing.T) {
	s := mpScenario()
	s.Processes = 2
	s.Hosts = []string{"127.0.0.1:39900", "127.0.0.1:39901"}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if !NeedsSerial(s, specs) {
		t.Fatal("pinned-host multi-process scenario not forced serial")
	}
	s2 := mpScenario()
	s2.Processes = 2
	specs2, err := s2.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if NeedsSerial(s2, specs2) {
		t.Fatal("auto-port multi-process scenario needlessly serialized")
	}
}
