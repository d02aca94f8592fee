package scenario

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// sweepSpecs expands a four-run sweep (two workloads × two line sizes),
// single-threaded so records are byte-deterministic.
func sweepSpecs(t *testing.T) []RunSpec {
	t.Helper()
	s := detScenario()
	s.Workload = ""
	s.Grids[0].Axes = append([]Axis{{Field: "workload", Values: []any{"radix", "fft"}}}, s.Grids[0].Axes...)
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// waitSweep is Sweep.Wait with a deadline, so a sweep that never settles
// fails the test in seconds instead of hanging it.
func waitSweep(t *testing.T, sw *Sweep) ([]Record, error) {
	t.Helper()
	select {
	case <-sw.Done():
	case <-time.After(30 * time.Second):
		t.Fatal("sweep did not finish within 30s")
	}
	return sw.Wait()
}

// TestSweepResumeAdoptionRules: a Resume record is reused only when its
// run index, config digest and workload identity match the current
// expansion and it carries no error; everything else is re-executed.
func TestSweepResumeAdoptionRules(t *testing.T) {
	specs := sweepSpecs(t)
	cold := NewSweep(specs, SweepOptions{Verify: true})
	cold.Work(2)
	full, err := waitSweep(t, cold)
	if err != nil {
		t.Fatal(err)
	}

	// Run 0 completed cleanly, run 1 has a stale digest (config changed
	// since), run 2 is an impostor — as if the workload axis was edited
	// between runs, so the old record carries the same run index and
	// config digest (workload/threads/scale live outside config.Config)
	// but a different workload — and run 3 errored.
	partial := append([]Record(nil), full...)
	partial[1].ConfigDigest = "stale"
	partial[2].Workload = "radix"
	if partial[2].ConfigDigest != Digest(&specs[2].Config) || specs[2].Workload == "radix" {
		t.Fatal("test premise broken: impostor record must share run 2's config digest but not its workload")
	}
	partial[3].Error = "killed"

	sw := NewSweep(specs, SweepOptions{Verify: true, Resume: partial})
	if sw.Reused() != 1 {
		t.Fatalf("reused %d records, want 1 (stale digest, impostor workload and errored record must re-run)", sw.Reused())
	}
	sw.Work(2)
	records, err := waitSweep(t, sw)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Executed() != 3 {
		t.Fatalf("executed %d runs, want 3", sw.Executed())
	}
	for i := range records {
		if records[i].Workload != specs[i].Workload || records[i].SimCycles != full[i].SimCycles {
			t.Fatalf("run %d: got %s/%d cycles, want %s/%d", i, records[i].Workload, records[i].SimCycles, specs[i].Workload, full[i].SimCycles)
		}
	}
}

// TestSweepFlushesInRunOrder: record i reaches Out only once records
// 0..i are all complete, whatever order drivers complete them in.
func TestSweepFlushesInRunOrder(t *testing.T) {
	var out bytes.Buffer
	sw := NewSweep(sweepSpecs(t)[:2], SweepOptions{Out: &out})
	i0, _, _ := sw.Next()
	i1, _, _ := sw.Next()
	sw.Complete(i1, Record{SimCycles: 11})
	if out.Len() != 0 {
		t.Fatalf("run %d flushed before run %d completed: %s", i1, i0, out.Bytes())
	}
	sw.Complete(i0, Record{SimCycles: 10})
	records, err := waitSweep(t, sw)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := WriteJSONL(&want, records); err != nil {
		t.Fatal(err)
	}
	if records[0].SimCycles != 10 || records[1].SimCycles != 11 || !bytes.Equal(out.Bytes(), want.Bytes()) {
		t.Fatalf("incremental Out differs from the run-ordered records:\n got: %s\nwant: %s", out.Bytes(), want.Bytes())
	}
}

// TestSweepFailRequeuesWithBackoff: each failure of a spec re-enqueues it
// through the scheduler with that attempt's delay, not immediately, and a
// driver that then completes it leaves a clean record.
func TestSweepFailRequeuesWithBackoff(t *testing.T) {
	sw := NewSweep(sweepSpecs(t)[:1], SweepOptions{})
	var delays []time.Duration
	sw.afterFunc = func(d time.Duration, f func()) {
		delays = append(delays, d)
		f() // run immediately: the test asserts scheduling, not pacing
	}
	for a := 0; a < maxAttempts-1; a++ {
		i, _, ok := sw.Next()
		if !ok {
			t.Fatalf("attempt %d: failed spec was not requeued", a)
		}
		sw.Fail(i)
	}
	i, spec, ok := sw.Next()
	if !ok {
		t.Fatal("spec not requeued after its last allowed failure")
	}
	sw.Complete(i, Execute(spec))
	records, err := waitSweep(t, sw)
	if err != nil || len(records) != 1 || records[0].SimCycles == 0 {
		t.Fatalf("want 1 clean record, got %+v, %v", records, err)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	if len(delays) != len(want) || delays[0] != want[0] || delays[1] != want[1] {
		t.Fatalf("requeues scheduled after %v, want %v", delays, want)
	}
}

// TestSweepAbandonsPoisonSpec: a spec that fails every driver that
// touches it must not requeue forever; past maxAttempts it completes as
// an error record, like a failed run.
func TestSweepAbandonsPoisonSpec(t *testing.T) {
	sw := NewSweep(sweepSpecs(t)[:1], SweepOptions{})
	sw.afterFunc = func(_ time.Duration, f func()) { f() }
	for a := 0; a < maxAttempts; a++ {
		i, _, ok := sw.Next()
		if !ok {
			t.Fatalf("attempt %d: sweep finished early", a)
		}
		sw.Fail(i)
	}
	records, err := waitSweep(t, sw)
	if err == nil || len(records) != 1 || !strings.Contains(records[0].Error, "abandoned") {
		t.Fatalf("want 1 abandonment record and an error, got %+v, %v", records, err)
	}
	if sw.Executed() != 0 {
		t.Fatalf("executed = %d, want 0", sw.Executed())
	}
}

// TestSweepCancelIgnoresLateComplete: Cancel stamps every unfinished run
// — in flight or pending — with the reason and finishes the sweep; the
// in-flight run's record, arriving afterwards, changes nothing.
func TestSweepCancelIgnoresLateComplete(t *testing.T) {
	var out bytes.Buffer
	sw := NewSweep(sweepSpecs(t)[:2], SweepOptions{Out: &out})
	i, _, ok := sw.Next()
	if !ok {
		t.Fatal("no work handed out")
	}
	sw.Cancel("test: canceled")
	if _, _, ok := sw.Next(); ok {
		t.Fatal("canceled sweep still hands out work")
	}
	sw.Complete(i, Record{SimCycles: 99})
	sw.Fail(i)
	records, err := waitSweep(t, sw)
	if err == nil {
		t.Fatal("canceled sweep must surface the cancellation as an error")
	}
	for r := range records {
		if records[r].Run != r || records[r].Error != "test: canceled" || records[r].SimCycles != 0 {
			t.Fatalf("run %d settled as %+v, want the cancel record", r, records[r])
		}
	}
	if sw.Executed() != 0 {
		t.Fatalf("late Complete counted: executed = %d", sw.Executed())
	}
	if got := strings.Count(out.String(), "test: canceled"); got != 2 {
		t.Fatalf("Out carries %d cancel records, want 2:\n%s", got, out.String())
	}
}

// TestSweepCancelWhileWorkRunning: canceling a sweep its local driver is
// in the middle of settles it at once; the slot finishes the run it has
// in flight, finds that record ignored, and returns.
func TestSweepCancelWhileWorkRunning(t *testing.T) {
	s := detScenario()
	s.Repeats = 32
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	sw := NewSweep(specs, SweepOptions{})
	worked := make(chan struct{})
	go func() {
		defer close(worked)
		sw.Work(1)
	}()
	for sw.Executed() == 0 {
		time.Sleep(time.Millisecond)
	}
	sw.Cancel("test: canceled")
	records, err := waitSweep(t, sw)
	if err == nil {
		t.Fatal("canceled sweep must surface the cancellation as an error")
	}
	executed := sw.Executed()
	if executed == 0 || executed == len(specs) {
		t.Fatalf("cancel did not land mid-sweep: executed %d of %d", executed, len(specs))
	}
	select {
	case <-worked:
	case <-time.After(30 * time.Second):
		t.Fatal("local driver still running 30s after the cancel")
	}
	clean := 0
	for i := range records {
		if records[i].Error == "" {
			clean++
		}
	}
	if sw.Executed() != executed || clean != executed {
		t.Fatalf("in-flight run leaked in after the cancel: executed %d → %d, %d clean records", executed, sw.Executed(), clean)
	}
}
