package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdicts(t *testing.T) {
	lower := metricInfo{Name: "first_record_ms", Unit: "s", Better: "lower", Bound: 0.10}
	higher := metricInfo{Name: "sim_instr_per_s", Unit: "instr/s", Better: "higher", Bound: 0.10}
	tight := func(v float64) dist { return dist{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 40} }
	loose := func(v float64) dist { return dist{Value: v, Q1: v * 0.5, Q3: v * 1.5, N: 4} }
	cases := []struct {
		name string
		info metricInfo
		a, b dist
		want string
	}{
		{"same", lower, tight(1), tight(1), "ok"},
		{"slower within bound", lower, tight(1), tight(1.09), "ok"},
		{"slower beyond bound", lower, tight(1), tight(1.11), "worse"},
		{"faster", lower, tight(1), tight(0.5), "ok"},
		{"rate down beyond bound", higher, tight(100), tight(89), "worse"},
		{"rate up", higher, tight(100), tight(150), "ok"},
		{"too noisy to tell", lower, loose(1), tight(1), "unresolved"},
		{"worse wins over noisy", lower, loose(1), loose(2), "worse"},
	}
	for _, c := range cases {
		if _, got := verdict(c.info, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if delta, _ := verdict(higher, tight(100), tight(89)); !near(delta, -0.11) {
		t.Errorf("delta = %v, want -0.11 of A", delta)
	}
	if delta, _ := verdict(lower, tight(1), tight(0.5)); !near(delta, 0.5) {
		t.Errorf("a halved wall is +50%% of A, got %v", delta)
	}
}

func TestCompareFilesExitsOnWorse(t *testing.T) {
	mk := func(scale float64) *report {
		m := map[string]dist{}
		for _, info := range endToEnd {
			v := 10.0
			if info.Name == "first_record_ms" {
				v *= scale
			}
			m[info.Name] = dist{Value: v, Unit: info.Unit, Q1: v * 0.99, Q3: v * 1.01, N: 30}
		}
		return &report{Schema: reportSchema, Workloads: []workloadReport{{Workload: "hit-local", Correct: true, Attempted: 30, Metrics: m}}}
	}
	dir := t.TempDir()
	a, same, slow := filepath.Join(dir, "a.json"), filepath.Join(dir, "same.json"), filepath.Join(dir, "slow.json")
	for path, rep := range map[string]*report{a: mk(1), same: mk(1.01), slow: mk(2)} {
		if err := writeReport(path, rep); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	worse, err := compareFiles(&out, a, same)
	if err != nil || worse {
		t.Fatalf("equal reports: worse=%v err=%v\n%s", worse, err, out.String())
	}
	if rows := strings.Count(out.String(), "hit-local"); rows != len(endToEnd) {
		t.Errorf("%d rows for one workload, want one per end-to-end metric (%d)\n%s", rows, len(endToEnd), out.String())
	}
	out.Reset()
	worse, err = compareFiles(&out, a, slow)
	if err != nil || !worse || !strings.Contains(out.String(), "worse") {
		t.Fatalf("doubled wall: worse=%v err=%v\n%s", worse, err, out.String())
	}
}
