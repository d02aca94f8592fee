package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), which is how the driver computes a spread.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3}, 1.5, 5, 9.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{5, 9}, 4, 7, 10},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
	if q1, med, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(med) || !math.IsNaN(q3) {
		t.Errorf("quartiles of nothing = %v %v %v, want NaNs", q1, med, q3)
	}
}

func TestSpreadAndMapped(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := spread(xs); !near(got, 1) { // (8.25-2.75)/5.5
		t.Errorf("spread = %v, want 1", got)
	}
	walls := summarize([]float64{2, 4, 8}, "s")
	rate := walls.mapped("1/s", func(w float64) float64 { return 8 / w })
	if rate.Value != 2 || rate.Q1 != 1 || rate.Q3 != 4 || rate.N != 3 || rate.Unit != "1/s" {
		t.Errorf("a rate's quartiles must swap with the wall's: %+v from %+v", rate, walls)
	}
}

// A parent's self time is its duration minus its children's; a rep's self
// times add up to the root span's duration however deep the nesting.
func TestSpanSelfTimes(t *testing.T) {
	at := func(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }
	spans := []span{
		{Name: "rep", Layer: "benchmark", Start: at(0), End: at(100), ID: 0, Parent: -1, Rep: 1},
		{Name: "construct", Layer: "core", Start: at(5), End: at(25), ID: 1, Parent: 0, Rep: 1},
		{Name: "run", Layer: "core", Start: at(25), End: at(90), ID: 2, Parent: 0, Rep: 1},
		{Name: "inner", Layer: "memsys", Start: at(30), End: at(40), ID: 3, Parent: 2, Rep: 1},
		{Name: "rep", Layer: "benchmark", Start: at(100), End: at(130), ID: 4, Parent: -1, Rep: 2},
	}
	self := selfTimes(spans)
	want := []time.Duration{at(15), at(20), at(55), at(10), at(30)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %v, want %v", i, spans[i].Name, self[i], want[i])
		}
	}
	var sum time.Duration
	for _, s := range spans {
		if s.Rep == 1 {
			sum += self[s.ID]
		}
	}
	if sum != at(100) {
		t.Errorf("rep 1's self times sum to %v, its root span lasts 100ms", sum)
	}
}

func TestTracerNestsAndNilRecordsNothing(t *testing.T) {
	var off *tracer
	off.end(off.begin("core", "x")) // must not panic
	off.nextRep()

	tr := newTracer()
	tr.nextRep()
	root := tr.begin("benchmark", "rep")
	child := tr.begin("core", "run")
	tr.end(child)
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[child].Parent != root || tr.spans[root].Parent != -1 || tr.spans[child].Rep != 1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[child].Start < tr.spans[root].Start || tr.spans[child].End > tr.spans[root].End {
		t.Errorf("child span escapes its parent: %+v", tr.spans)
	}
}
