package dispatch

import (
	"testing"
	"time"

	"repro/internal/recordcache"
	"repro/internal/scenario"
)

func newMemCache(t *testing.T) *recordcache.Cache {
	t.Helper()
	c, err := recordcache.Open(recordcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestCacheNotPoisonedByFailures: neither a worker killed mid-spec nor a
// worker that reports a failed run may leave anything in the cache that
// a later sweep would mistake for a result.
func TestCacheNotPoisonedByFailures(t *testing.T) {
	_, specs := loadTestScenario(t)
	cache := newMemCache(t)
	c, err := NewCoordinator(specs, Options{SweepOptions: scenario.SweepOptions{Cache: cache}})
	if err != nil {
		t.Fatal(err)
	}

	// Worker 1 takes a spec and dies without replying (kill mid-sweep).
	conn1, r1, _, err := attach(c.Addr(), 5*time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := readMsg(r1)
	if err != nil || m1.Type != msgSpec {
		t.Fatalf("fake worker 1 expected a spec, got %+v, %v", m1, err)
	}
	killedKey := m1.Spec.CacheKey()
	conn1.Close()
	if _, ok := cache.Get(killedKey); ok {
		t.Fatal("killed worker's in-flight spec reached the cache")
	}

	// Worker 2 reports its spec as failed — an honest error record.
	conn2, r2, _, err := attach(c.Addr(), 5*time.Second, true)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := readMsg(r2)
	if err != nil || m2.Type != msgSpec {
		t.Fatalf("fake worker 2 expected a spec, got %+v, %v", m2, err)
	}
	failedKey := m2.Spec.CacheKey()
	bad := scenario.Record{Run: m2.Spec.Run, Error: "injected worker failure"}
	if err := writeMsg(conn2, &message{Type: msgRecord, Record: &bad}); err != nil {
		t.Fatal(err)
	}
	// The coordinator treats an error record as complete; drain until it
	// releases this connection (done) or hands out further specs, which
	// we refuse by closing.
	if m, err := readMsg(r2); err == nil && m.Type == msgSpec {
		conn2.Close()
	}

	// A real worker finishes the remainder (including the requeued ones).
	done := make(chan error, 1)
	go func() { done <- Work(c.Addr(), WorkerOptions{Parallel: 1, DialTimeout: 5 * time.Second}) }()
	records, err := waitAll(t, c)
	if err == nil {
		t.Fatal("sweep with an injected failure must surface the error")
	}
	if werr := <-done; werr != nil {
		t.Fatalf("surviving worker: %v", werr)
	}

	if _, ok := cache.Get(failedKey); ok {
		t.Fatal("failed run's error record poisoned the cache")
	}
	// Every error-free record — including the requeued kill victim —
	// must be in the cache, byte-faithful to what was merged.
	good := 0
	for i := range records {
		if records[i].Error != "" {
			continue
		}
		good++
		cached, ok := cache.Get(specs[i].CacheKey())
		if !ok {
			t.Fatalf("run %d executed but not cached", i)
		}
		if cached.SimCycles != records[i].SimCycles || cached.Checksum != records[i].Checksum {
			t.Fatalf("run %d cached with different results", i)
		}
	}
	if good == 0 {
		t.Fatal("test premise broken: no successful runs")
	}
	if killedKey == failedKey {
		t.Fatal("test premise broken: kill and failure hit the same spec")
	}
	// The killed spec was requeued and re-executed; its key must now hit.
	if _, ok := cache.Get(killedKey); !ok {
		t.Fatal("requeued spec's eventual record missing from cache")
	}
}
