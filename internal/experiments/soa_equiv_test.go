package experiments

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
	"repro/internal/workloads"
)

// soaGoldenPath is the pre-refactor golden record file: one line per run of
// the determinism suite (table2 quick + line-size-sweep), captured before
// the structure-of-arrays cache/directory refactor. The equivalence test
// asserts that the refactored memory system reproduces these checksums and
// config digests byte-for-byte.
const soaGoldenPath = "testdata/soa_prerefactor.jsonl"

// soaGoldenLine is the stable subset of a Record that must survive any
// internal storage refactor: run identity, the config digest (preimage:
// config.Canonical), and the workload checksum (stored as exact float
// bits) for every run. Simulated cycles and the aggregate memory-system
// counters are included only for single-threaded runs — the configuration
// class for which the simulator is fully deterministic (see
// scenario.TestRunDeterminism); multi-threaded lax runs have
// host-scheduling-dependent timing by design (paper §3.6), so only their
// functional results are pinned.
type soaGoldenLine struct {
	Scenario     string `json:"scenario"`
	Run          int    `json:"run"`
	Workload     string `json:"workload"`
	Threads      int    `json:"threads"`
	Scale        int    `json:"scale"`
	Seed         int64  `json:"seed"`
	ConfigDigest string `json:"config_digest"`
	ChecksumBits uint64 `json:"checksum_bits"`
	SimCycles    uint64 `json:"sim_cycles"`
	L2Misses     uint64 `json:"l2_misses"`
	DirTraps     uint64 `json:"dir_traps"`
	InvSent      uint64 `json:"inv_sent"`
}

func goldenLine(r *scenario.Record) soaGoldenLine {
	ln := soaGoldenLine{
		Scenario:     r.Scenario,
		Run:          r.Run,
		Workload:     r.Workload,
		Threads:      r.Threads,
		Scale:        r.Scale,
		Seed:         r.Seed,
		ConfigDigest: r.ConfigDigest,
		ChecksumBits: math.Float64bits(r.Checksum),
	}
	if r.Threads <= 1 {
		ln.SimCycles = r.SimCycles
		ln.L2Misses = r.Stats.L2Misses
		ln.DirTraps = r.Stats.DirTraps
		ln.InvSent = r.Stats.InvSent
	}
	return ln
}

// soaSuite returns the determinism suite scenarios: the quick table2 study
// (multi-threaded SPLASH runs across 1 and 4 simulated host processes) and
// the line-size sweep (single-threaded runs, fully deterministic stats).
func soaSuite(t *testing.T) []*scenario.Scenario {
	t.Helper()
	sweep, err := scenario.Load(filepath.Join("..", "..", "examples", "scenarios", "line-size-sweep.json"))
	if err != nil {
		t.Fatalf("load line-size-sweep: %v", err)
	}
	return []*scenario.Scenario{
		Table2Scenario(Quick, workloads.SplashNames(), 8, 4),
		sweep,
	}
}

func runSoASuite(t *testing.T) []soaGoldenLine {
	t.Helper()
	var out []soaGoldenLine
	for _, sc := range soaSuite(t) {
		records := bounded(t, func() ([]scenario.Record, error) {
			records, err := scenario.Run(sc, scenario.Options{})
			if err != nil {
				err = fmt.Errorf("scenario %s: %w", sc.Name, err)
			}
			return records, err
		})
		for i := range records {
			out = append(out, goldenLine(&records[i]))
		}
	}
	return out
}

// TestSoAEquivalence runs the determinism suite and asserts every run's
// checksum, config digest, simulated cycle count, and memory-system
// counters are byte-identical to the golden values captured before the
// structure-of-arrays refactor. Regenerate (only against a known-good
// tree) with GRAPHITE_REGEN_SOA_GOLDEN=1.
func TestSoAEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("determinism suite is not -short")
	}
	got := runSoASuite(t)
	if os.Getenv("GRAPHITE_REGEN_SOA_GOLDEN") != "" {
		f, err := os.Create(soaGoldenPath)
		if err != nil {
			t.Fatal(err)
		}
		w := bufio.NewWriter(f)
		for _, ln := range got {
			b, err := json.Marshal(ln)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(w, "%s\n", b)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d lines)", soaGoldenPath, len(got))
		return
	}

	f, err := os.Open(soaGoldenPath)
	if err != nil {
		t.Fatalf("open golden (regenerate with GRAPHITE_REGEN_SOA_GOLDEN=1): %v", err)
	}
	defer f.Close()
	var want []soaGoldenLine
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ln soaGoldenLine
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			t.Fatalf("bad golden line: %v", err)
		}
		want = append(want, ln)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("suite produced %d runs, golden has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("run %d (%s/%s) diverged from pre-refactor golden:\n got  %+v\n want %+v",
				i, got[i].Scenario, got[i].Workload, got[i], want[i])
		}
	}
}
