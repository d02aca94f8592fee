package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"repro/internal/core/launch"
)

// The sessions and simulation workers the benchmark forks are copies of
// the running binary, which under go test is the test binary.
func TestMain(m *testing.M) {
	launch.MaybeWorkerProcess()
	if payload := os.Getenv(sessionEnv); payload != "" {
		os.Unsetenv(sessionEnv)
		sessionMain(payload)
	}
	os.Exit(m.Run())
}

// manifestFile is BENCHMARK.json as committed.
type manifestFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadInfo `json:"workloads"`
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readManifest(t *testing.T) (manifestFile, map[string]any) {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var mf manifestFile
	var raw map[string]any
	if err := json.Unmarshal(buf, &mf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf, &raw); err != nil {
		t.Fatal(err)
	}
	return mf, raw
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json is generated from the catalogue; this is what keeps a
// hand edit of either from drifting away from the other.
func TestManifestMatchesCatalogue(t *testing.T) {
	mf, raw := readManifest(t)
	buf, err := json.Marshal(manifest())
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]any
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(raw, want) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate it with: bash benchmark/run.sh -print-manifest > BENCHMARK.json")
	}
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range mf.Workloads {
		check(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range mf.EndToEnd {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range mf.PerLayer {
		check(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
}

// TestSmoke runs every workload at the smoke preset (tiny shapes, one
// session, a one-second window) and one traced run, and checks that each
// workload and metric BENCHMARK.json names comes out, with its unit, as a
// finite number.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	mf, _ := readManifest(t)
	cfg := runConfig{root: t.TempDir(), seed: 1, seconds: 0.5, smoke: true}
	for _, w := range mf.Workloads {
		wr, err := runWorkload(cfg, w.Name)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d notes=%v", w.Name, wr.Correct, wr.Attempted, wr.Failed, wr.Notes)
		}
		if len(wr.Metrics) != len(mf.EndToEnd) {
			t.Errorf("%s: %d metrics, BENCHMARK.json names %d", w.Name, len(wr.Metrics), len(mf.EndToEnd))
		}
		for _, m := range mf.EndToEnd {
			d, ok := wr.Metrics[m.Name]
			if !ok || d.Unit != m.Unit || math.IsNaN(d.Value) || math.IsInf(d.Value, 0) || d.Value == 0 {
				t.Errorf("%s: end-to-end metric %s = %+v (measured %v), want a finite non-zero %s", w.Name, m.Name, d, ok, m.Unit)
			}
		}
	}

	cfg.trace = true
	wr, err := runWorkload(cfg, "share-chan")
	if err != nil {
		t.Fatal(err)
	}
	if !wr.Correct || len(wr.Metrics) != len(mf.PerLayer) {
		t.Errorf("traced run: correct=%v, %d metrics of %d, notes=%v", wr.Correct, len(wr.Metrics), len(mf.PerLayer), wr.Notes)
	}
	layers := map[string]bool{}
	for _, m := range mf.PerLayer {
		d, ok := wr.Metrics[m.Name]
		if !ok || d.Unit != m.Unit || math.IsNaN(d.Value) || math.IsInf(d.Value, 0) {
			t.Errorf("per-layer metric %s = %+v (measured %v), want a finite %s", m.Name, d, ok, m.Unit)
		}
		layers[regexp.MustCompile(`[._].*`).ReplaceAllString(m.Name, "")] = true
	}
	for _, pkg := range []string{"coremodel", "cache", "memsys", "directory", "dram", "network", "transport", "synchro", "mcp",
		"core", "launch", "checkpoint", "recordcache", "scenario", "dispatch", "service", "runtime", "sim"} {
		if !layers[pkg] {
			t.Errorf("layer %s has no metric", pkg)
		}
	}
	if wr.Metrics["sim.golden_match"].Value != 1 {
		t.Errorf("the smoke sweep's simulated results differ from benchmark/golden/records.sha256")
	}
	trace, err := os.ReadFile(filepath.Join(cfg.root, "benchmark", "out", "trace-share-chan.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(trace, &doc); err != nil || len(doc.TraceEvents) == 0 {
		t.Errorf("trace file: %d events, %v", len(doc.TraceEvents), err)
	}
}
