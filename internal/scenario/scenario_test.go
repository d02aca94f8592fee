package scenario

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
)

// specLine renders the stable golden-file view of one RunSpec.
func specLine(sp *RunSpec) string {
	return fmt.Sprintf(
		"run=%d grid=%d point=%d repeat=%d wl=%s th=%d sc=%d seed=%d tiles=%d procs=%d line=%d sync=%s coher=%s",
		sp.Run, sp.Grid, sp.Point, sp.Repeat, sp.Workload, sp.Threads, sp.Scale, sp.Seed,
		sp.Config.Tiles, sp.Config.Processes, sp.Config.L2.LineSize,
		sp.Config.Sync.Model, sp.Config.Coherence.Kind)
}

func TestExpandGolden(t *testing.T) {
	s, err := Load(filepath.Join("testdata", "demo.json"))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for i := range specs {
		b.WriteString(specLine(&specs[i]))
		b.WriteByte('\n')
	}
	got := b.String()

	goldenPath := filepath.Join("testdata", "demo.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("expansion differs from golden file (rerun with UPDATE_GOLDEN=1 if intended)\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestExpandGridShape(t *testing.T) {
	s, err := Load(filepath.Join("testdata", "demo.json"))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Grid 0: 2x2 axes x 2 repeats; grid 1: single point x 2 repeats.
	if len(specs) != 10 {
		t.Fatalf("expanded %d runs, want 10", len(specs))
	}
	// Run indices are dense and seeds derive from them.
	for i := range specs {
		if specs[i].Run != i {
			t.Fatalf("spec %d has run index %d", i, specs[i].Run)
		}
		if want := s.Seed + int64(i); specs[i].Seed != want || specs[i].Config.RandSeed != want {
			t.Fatalf("spec %d seed = %d / RandSeed %d, want %d", i, specs[i].Seed, specs[i].Config.RandSeed, want)
		}
	}
	// The last axis varies fastest.
	if specs[0].Config.L2.LineSize != 32 || specs[2].Config.L2.LineSize != 64 {
		t.Fatalf("axis order wrong: lines %d, %d", specs[0].Config.L2.LineSize, specs[2].Config.L2.LineSize)
	}
	if specs[0].Config.Sync.Model != config.Lax || specs[4].Config.Sync.Model != config.LaxBarrier {
		t.Fatal("sync axis wrong")
	}
	// line_size sets every level (L1D enabled in small-cache).
	if specs[0].Config.L1D.LineSize != 32 {
		t.Fatalf("L1D line = %d, want 32", specs[0].Config.L1D.LineSize)
	}
	// Grid 1 inherits scenario defaults except where overridden.
	last := specs[len(specs)-1]
	if last.Workload != "fft" || last.Threads != 2 || last.Scale != 4 {
		t.Fatalf("grid 1 overrides not applied: %+v", last)
	}
	if last.Config.Processes != 2 || last.Config.Coherence.Kind != config.LimitedNB {
		t.Fatal("grid 1 base overrides not applied")
	}
}

func TestOverridePrecedence(t *testing.T) {
	s := &Scenario{
		Name:     "prec",
		Preset:   "small-cache", // line size 64
		Workload: "radix",
		Threads:  1,
		Scale:    6,
		Base:     map[string]any{"L2.LineSize": 32, "L1D.LineSize": 32, "Tiles": 4},
		Grids: []Grid{
			{
				Base: map[string]any{"L2.LineSize": 16, "L1D.LineSize": 16},
				Axes: []Axis{{Field: "L2.LineSize", Values: []any{128}}, {Field: "L1D.LineSize", Values: []any{128}}},
			},
			{
				Base: map[string]any{"line_size": 16},
			},
		},
	}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Axis beats grid base beats scenario base beats preset.
	if got := specs[0].Config.L2.LineSize; got != 128 {
		t.Fatalf("axis did not win: line size %d", got)
	}
	// Grid without the axis keeps the grid-base value.
	if got := specs[1].Config.L2.LineSize; got != 16 {
		t.Fatalf("grid base did not win: line size %d", got)
	}
}

func TestSameFieldLaterAxisWins(t *testing.T) {
	s := &Scenario{
		Name:     "dup",
		Preset:   "small-cache",
		Workload: "radix",
		Threads:  1,
		Scale:    6,
		Grids: []Grid{{
			Axes: []Axis{
				{Field: "Tiles", Values: []any{2}},
				{Field: "Tiles", Values: []any{4, 8}},
			},
		}},
	}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Config.Tiles != 4 || specs[1].Config.Tiles != 8 {
		t.Fatalf("later axis should win: %+v", specs)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"name":"x","grid":[]}`))
	if err == nil || !strings.Contains(err.Error(), "unknown field") {
		t.Fatalf("want unknown-field error, got %v", err)
	}
}

func TestExpandErrors(t *testing.T) {
	base := func() *Scenario {
		return &Scenario{
			Name:     "err",
			Preset:   "small-cache",
			Workload: "radix",
			Threads:  1,
			Scale:    6,
			Grids:    []Grid{{}},
		}
	}
	cases := []struct {
		name string
		mut  func(*Scenario)
		want string
	}{
		{"no name", func(s *Scenario) { s.Name = "" }, "missing name"},
		{"no grids", func(s *Scenario) { s.Grids = nil }, "no grids"},
		{"unknown preset", func(s *Scenario) { s.Preset = "bogus" }, "unknown preset"},
		{"unknown workload", func(s *Scenario) { s.Workload = "nope" }, "unknown workload"},
		{"no workload", func(s *Scenario) { s.Workload = "" }, "no workload"},
		{"unknown size", func(s *Scenario) { s.Size = "huge"; s.Scale = 0 }, "unknown size"},
		{"unknown field", func(s *Scenario) { s.Base = map[string]any{"L2.Linesize": 32} }, `no field "Linesize"`},
		{"unknown leaf parent", func(s *Scenario) { s.Base = map[string]any{"L2.LineSize.X": 1} }, "not a struct"},
		{"bad value type", func(s *Scenario) { s.Base = map[string]any{"Tiles": "many"} }, "want an integer"},
		{"bad enum", func(s *Scenario) { s.Base = map[string]any{"Sync.Model": "chaotic"} }, "unknown sync model"},
		{"composite leaf", func(s *Scenario) { s.Base = map[string]any{"L2": 1} }, "cannot set"},
		{"threads out of range", func(s *Scenario) { s.Threads = 64 }, "threads 64 out of range"},
		{"empty axis", func(s *Scenario) { s.Grids[0].Axes = []Axis{{Field: "Tiles"}} }, "no values"},
		{
			// config.Validate runs on every expanded point.
			"invalid config",
			func(s *Scenario) { s.Base = map[string]any{"line_size": 48} },
			"not a positive power of two",
		},
		{
			"validate coherence",
			func(s *Scenario) {
				s.Base = map[string]any{"Coherence.Kind": "dir_nb", "Coherence.DirPointers": 0}
			},
			"requires DirPointers",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(s)
			_, err := s.Expand()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

func TestEnumStringValues(t *testing.T) {
	s := &Scenario{
		Name:     "enums",
		Workload: "radix",
		Threads:  1,
		Scale:    6,
		Base: map[string]any{
			"Sync.Model":  "LaxP2P",
			"MemNet.Kind": "ring",
			"AppNet.Kind": "magic",
			"Core.Kind":   "out-of-order",
		},
		Grids: []Grid{{}},
	}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	cfg := &specs[0].Config
	if cfg.Sync.Model != config.LaxP2P || cfg.MemNet.Kind != config.NetRing ||
		cfg.AppNet.Kind != config.NetMagic || cfg.Core.Kind != config.CoreOutOfOrder {
		t.Fatalf("enum overrides not applied: %+v", cfg)
	}
}

func TestPresets(t *testing.T) {
	for _, name := range Presets() {
		cfg, err := Preset(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %s: %v", name, err)
		}
	}
	if _, err := Preset(""); err != nil {
		t.Errorf("empty preset should resolve to default: %v", err)
	}
}

// TestExampleScenariosExpand guards the runnable examples shipped in the
// repo: they must load, expand, and describe at least one run each; the
// acceptance example must be a >= 8-point grid.
func TestExampleScenariosExpand(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "scenarios")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no example scenarios")
	}
	for _, e := range entries {
		s, err := Load(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		specs, err := s.Expand()
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if len(specs) == 0 {
			t.Fatalf("%s: no runs", e.Name())
		}
		if e.Name() == "line-size-sweep.json" && len(specs) < 8 {
			t.Fatalf("line-size-sweep expands to %d runs, want >= 8", len(specs))
		}
	}
}

func TestDigestStable(t *testing.T) {
	a, _ := Preset("default")
	b, _ := Preset("default")
	if Digest(&a) != Digest(&b) {
		t.Fatal("identical configs digest differently")
	}
	b.Tiles++
	if Digest(&a) == Digest(&b) {
		t.Fatal("different configs digest identically")
	}
}

// TestExpandRefusesHugeScenarios: a short submission that asks for more
// than MaxRuns runs, by repeats or by the product of its axes, is refused
// before anything is allocated.
func TestExpandRefusesHugeScenarios(t *testing.T) {
	values := `[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,17,18,19,20,21,22,23,24,25,26,27,28,29,30,31,32]`
	for _, body := range []string{
		`{"name":"x","workload":"radix","repeats":1099511627776,"grids":[{}]}`,
		`{"name":"x","workload":"radix","repeats":3,"grids":[{},{"axes":[{"field":"tiles","values":` + values + `},{"field":"seed","values":` + values + `},{"field":"scale","values":` + values + `}]}]}`,
	} {
		s, err := Parse(strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		start := time.Now()
		specs, err := s.Expand()
		if err == nil || len(specs) != 0 {
			t.Errorf("%s: expanded to %d runs, want an error", body, len(specs))
		}
		if d := time.Since(start); d > time.Second {
			t.Errorf("%s: refused after %v", body, d)
		}
	}
}

// FuzzScenarioParse: Parse then Expand never panics, whatever the bytes.
func FuzzScenarioParse(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example scenarios: %v", err)
	}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if s, err := Parse(bytes.NewReader(b)); err == nil {
			s.Expand()
		}
	})
}
