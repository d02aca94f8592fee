package dispatch

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// testScenario is a small verified sweep: 2 workloads x 2 line sizes on a
// 4-tile target, single-threaded so records are byte-deterministic.
const testScenarioJSON = `{
  "name": "dispatch-test",
  "preset": "small-cache",
  "size": "quick",
  "threads": 1,
  "seed": 1,
  "verify": true,
  "base": { "Tiles": 4 },
  "grids": [
    {
      "axes": [
        { "field": "workload", "values": ["radix", "fft"] },
        { "field": "line_size", "values": [32, 64] }
      ]
    }
  ]
}`

func loadTestScenario(t *testing.T) (*scenario.Scenario, []scenario.RunSpec) {
	t.Helper()
	s, err := scenario.Parse(strings.NewReader(testScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	return s, specs
}

// waitAll is Coordinator.Wait with a deadline, so a sweep that never
// settles fails the test in seconds instead of hanging it.
func waitAll(t *testing.T, c *Coordinator) ([]scenario.Record, error) {
	t.Helper()
	select {
	case <-c.Done():
	case <-time.After(60 * time.Second):
		t.Fatal("sweep did not finish within 60s")
	}
	return c.Wait()
}

// TestWorkerKillMidSweep kills a worker that holds an in-flight spec; the
// coordinator must requeue it and the sweep must still complete with a
// full, correctly ordered record set.
func TestWorkerKillMidSweep(t *testing.T) {
	s, specs := loadTestScenario(t)
	var out bytes.Buffer
	c, err := NewCoordinator(specs, Options{SweepOptions: scenario.SweepOptions{Verify: s.Verify, Out: &out}})
	if err != nil {
		t.Fatal(err)
	}

	// A worker that takes one spec and dies without replying.
	conn, r, _, err := attach(c.Addr(), 5*time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	m, err := readMsg(r)
	if err != nil || m.Type != msgSpec {
		t.Fatalf("fake worker expected a spec, got %+v, %v", m, err)
	}
	killed := m.Spec.Run
	conn.Close()

	done := make(chan error, 1)
	go func() { done <- Work(c.Addr(), WorkerOptions{Parallel: 1, DialTimeout: 5 * time.Second}) }()
	records, err := waitAll(t, c)
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatalf("surviving worker: %v", werr)
	}

	if len(records) != len(specs) {
		t.Fatalf("got %d records, want %d", len(records), len(specs))
	}
	seenKilled := false
	for i := range records {
		if records[i].Run != i {
			t.Fatalf("record %d carries run %d: merge order broken", i, records[i].Run)
		}
		if records[i].Error != "" {
			t.Fatalf("run %d failed: %s", i, records[i].Error)
		}
		if records[i].SimCycles == 0 {
			t.Fatalf("run %d has no cycles: spec lost", i)
		}
		if records[i].Run == killed {
			seenKilled = true
		}
	}
	if !seenKilled {
		t.Fatalf("killed run %d missing from records", killed)
	}
	if c.Executed() != len(specs) {
		t.Fatalf("executed %d, want %d (requeued spec must be re-executed)", c.Executed(), len(specs))
	}
}

// TestPoisonSpecAbandonedAfterMaxAttempts: a spec that takes down every
// connection that touches it must not requeue forever; past maxAttempts
// it completes as an error record, like a failed run. (The engine-level
// schedule is scenario.TestSweepFailRequeuesWithBackoff; this is the wire
// half: a connection that dies with a spec in flight is a Fail.)
func TestPoisonSpecAbandonedAfterMaxAttempts(t *testing.T) {
	_, specs := loadTestScenario(t)
	c, err := NewCoordinator(specs[:1], Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Every connection takes the spec and dies without replying, until
	// the coordinator answers done instead: the sweep gave up on the spec.
	deaths := 0
	for {
		conn, r, _, err := attach(c.Addr(), 5*time.Second, true)
		if err != nil {
			t.Fatal(err)
		}
		m, err := readMsg(r)
		conn.Close()
		if err != nil {
			t.Fatalf("after %d deaths: %v", deaths, err)
		}
		if m.Type == msgDone {
			break
		}
		if deaths++; m.Type != msgSpec || deaths > 10 {
			t.Fatalf("after %d deaths: got %q, want the spec again or done", deaths, m.Type)
		}
	}
	if deaths != 3 {
		t.Fatalf("spec abandoned after %d dead connections, want 3", deaths)
	}
	records, err := waitAll(t, c)
	if err == nil {
		t.Fatal("abandoned run must surface as an error")
	}
	if len(records) != 1 || records[0].Error == "" {
		t.Fatalf("want 1 error record, got %+v", records)
	}
	if c.Executed() != 0 {
		t.Fatalf("executed = %d, want 0", c.Executed())
	}
}
