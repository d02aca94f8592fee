package experiments

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/config"
	"repro/internal/simtest"
	"repro/internal/stats"
)

func TestParsePreset(t *testing.T) {
	for s, want := range map[string]Preset{"quick": Quick, "standard": Standard, "full": Full} {
		got, err := ParsePreset(s)
		if err != nil || got != want {
			t.Fatalf("ParsePreset(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParsePreset("bogus"); err == nil {
		t.Fatal("bogus preset accepted")
	}
}

func TestScaleForCoversAllWorkloadsAndPresets(t *testing.T) {
	for _, name := range []string{"fft", "lu_cont", "radix", "blackscholes", "matmul"} {
		for _, pr := range []Preset{Quick, Standard, Full} {
			if s := scaleFor(name, pr); s <= 0 {
				t.Fatalf("scaleFor(%s, %v) = %d", name, pr, s)
			}
		}
	}
}

func TestStatHelpers(t *testing.T) {
	if m := mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("mean = %v", m)
	}
	if mean(nil) != 0 {
		t.Fatal("mean(nil)")
	}
	if s := stddev([]float64{2, 4}); s < 1.41 || s > 1.42 {
		t.Fatalf("stddev = %v", s)
	}
	if stddev([]float64{5}) != 0 {
		t.Fatal("stddev of singleton")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if median(nil) != 0 {
		t.Fatal("median(nil)")
	}
}

func TestTable1Print(t *testing.T) {
	var buf bytes.Buffer
	Table1(&buf, config.Default())
	out := buf.String()
	for _, want := range []string{"1 GHz", "32 KB", "3072 KB", "full-map", "5.13 GB/s", "mesh_contention"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig4Quick(t *testing.T) {
	res := bounded(t, func() (*Fig4Result, error) { return Fig4(Quick, []string{"radix"}, []int{1, 2}) })
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].Speedup != 1.0 {
		t.Fatalf("base speedup = %v", res.Points[0].Speedup)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "radix") {
		t.Fatal("print missing benchmark")
	}
}

func TestTable2Quick(t *testing.T) {
	res := bounded(t, func() (*Table2Result, error) { return Table2(Quick, []string{"fmm", "radix"}) })
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if !r.ChecksumOK {
			t.Errorf("%s checksum mismatch between simulated and native", r.Benchmark)
		}
		if r.Slowdown1 <= 1 {
			t.Errorf("%s slowdown %v: simulation faster than native?", r.Benchmark, r.Slowdown1)
		}
	}
	if res.Median1 <= 0 || res.Mean1 <= 0 {
		t.Fatal("summary stats empty")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Median") {
		t.Fatal("print missing summary")
	}
}

func TestFig5Quick(t *testing.T) {
	res := bounded(t, func() (*Fig5Result, error) { return Fig5(Quick, []int{1, 2}) })
	if len(res.Points) != 2 || res.TargetTiles != 64 {
		t.Fatalf("unexpected result %+v", res)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "machines") {
		t.Fatal("print malformed")
	}
}

func TestTable3Quick(t *testing.T) {
	res := bounded(t, func() (*Table3Result, error) { return Table3(Quick, []string{"radix"}, 2) })
	// 1 benchmark x 3 models x 2 process counts.
	if len(res.Cells) != 6 {
		t.Fatalf("cells = %d", len(res.Cells))
	}
	for _, c := range res.Cells {
		if c.SimCyclesMean <= 0 {
			t.Fatalf("cell %+v has no simulated time", c)
		}
	}
	// LaxBarrier on 1 process is the baseline: its error must be ~0.
	for _, c := range res.Cells {
		if c.Model == config.LaxBarrier && c.Processes == 1 && c.ErrorPct > 1e-9 {
			t.Fatalf("baseline error = %v%%", c.ErrorPct)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "LaxP2P") {
		t.Fatal("print missing model")
	}
}

func TestFig7Quick(t *testing.T) {
	res := bounded(t, func() (*Fig7Result, error) { return Fig7(Quick) })
	if len(res.Traces) != 3 {
		t.Fatalf("traces = %d", len(res.Traces))
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "LaxBarrier") {
		t.Fatal("print missing model")
	}

	// The CSV is every sample under one header row.
	var csv bytes.Buffer
	if err := res.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, tr := range res.Traces {
		samples += len(tr.Samples)
	}
	lines := strings.Split(strings.TrimSuffix(csv.String(), "\n"), "\n")
	if lines[0] != "model,wall_ms,min_dev_cycles,max_dev_cycles,mean_cycles" || len(lines) != 1+samples {
		t.Fatalf("CSV has header %q and %d lines, want the five columns and 1+%d", lines[0], len(lines), samples)
	}
}

func TestFig8Quick(t *testing.T) {
	res := bounded(t, func() (*Fig8Result, error) { return Fig8(Quick, []string{"lu_cont", "radix"}, []int{32, 256}, 0) })
	if len(res.Points) != 4 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Total < 0 || p.Total > 1 {
			t.Fatalf("nonsense miss rate %v", p.Total)
		}
		var sum float64
		for _, r := range p.Rates {
			sum += r
		}
		if abs(sum-p.Total) > 1e-12 {
			t.Fatal("rates do not sum to total")
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "false%") {
		t.Fatal("print missing columns")
	}
	_ = stats.MissCold // keep import honest
}

func TestFig9Quick(t *testing.T) {
	res := bounded(t, func() (*Fig9Result, error) { return Fig9(Quick, []int{1, 4}, 0) })
	// 4 schemes x 2 tile counts.
	if len(res.Points) != 8 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Tiles == 1 && p.Speedup != 1 {
			t.Fatalf("1-tile speedup = %v", p.Speedup)
		}
		if p.SimCycles <= 0 {
			t.Fatal("no simulated cycles")
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "LimitLESS4") {
		t.Fatal("print missing scheme")
	}
}

// expDeadline bounds one experiment of a test: the slowest takes seconds,
// the 256-tile host-scaling point under the race detector a minute.
const expDeadline = 5 * time.Minute

// bounded runs one experiment — some number of simulations — under
// expDeadline, so that a wedged simulation fails its test with every
// goroutine's stack instead of idling into the package timeout. Every
// test in this package that simulates goes through it.
func bounded[T any](t *testing.T, fn func() (T, error)) T {
	t.Helper()
	var v T
	var err error
	simtest.Deadline(t, expDeadline, func() { v, err = fn() })
	if err != nil {
		t.Fatal(err)
	}
	return v
}
