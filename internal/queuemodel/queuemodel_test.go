package queuemodel

import (
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/clock"
)

// boundQueue is a queue with the window it is measured against, so test
// bodies read as "a packet reaches the queue".
type boundQueue struct {
	Queue
	w *clock.ProgressWindow
}

func (q *boundQueue) Delay(now, service arch.Cycles) arch.Cycles {
	return q.Queue.Delay(q.w, now, service)
}

func newQueue(windowSize int) (*boundQueue, *clock.ProgressWindow) {
	w := clock.NewProgressWindow(windowSize)
	return &boundQueue{w: w}, w
}

func TestUncontendedQueueHasNoDelay(t *testing.T) {
	q, _ := newQueue(4)
	// Packets arriving with timestamps far apart never queue behind each
	// other: the queue clock is always at/behind global progress.
	for i := 1; i <= 10; i++ {
		now := arch.Cycles(i * 1_000_000)
		if d := q.Delay(now, 10); d != 0 && i > 1 {
			t.Fatalf("packet %d saw delay %d in an idle queue", i, d)
		}
	}
}

func TestBackToBackPacketsQueue(t *testing.T) {
	q, _ := newQueue(1)
	// Same timestamp repeatedly: global progress stays at 1000 while the
	// queue clock climbs by the processing time of each packet, so packet
	// k waits (k-1)*proc cycles.
	const proc = 50
	for k := 0; k < 5; k++ {
		d := q.Delay(1000, proc)
		want := arch.Cycles(k * proc)
		if d != want {
			t.Fatalf("packet %d delay = %d, want %d", k, d, want)
		}
	}
}

func TestAggregateDelayMatchesOfferedLoad(t *testing.T) {
	// With N simultaneous packets of service time s, cumulative waiting
	// time must be s * N*(N-1)/2 — the queueing triangle — regardless of
	// processing order. This is the paper's claim that "the aggregate
	// queueing delay is correct" even though packets are seen out of
	// order.
	q, _ := newQueue(1)
	const n, s = 20, 7
	for i := 0; i < n; i++ {
		q.Delay(500, s)
	}
	_, total, busy := q.Stats()
	want := arch.Cycles(s * n * (n - 1) / 2)
	if total != want {
		t.Fatalf("aggregate delay = %d, want %d", total, want)
	}
	if busy != n*s {
		t.Fatalf("busy = %d, want %d", busy, n*s)
	}
}

func TestQueueDrainsWhenGlobalProgressPasses(t *testing.T) {
	q, _ := newQueue(1)
	q.Delay(100, 500) // queue clock -> 600
	if c := q.Clock(); c != 600 {
		t.Fatalf("queue clock = %d, want 600", c)
	}
	// A packet arriving when global progress (1_000_000) has passed the
	// queue clock sees an idle queue.
	if d := q.Delay(1_000_000, 500); d != 0 {
		t.Fatalf("drained queue gave delay %d", d)
	}
	if c := q.Clock(); c != 1_000_500 {
		t.Fatalf("queue clock after drain = %d, want 1000500", c)
	}
}

func TestNegativeProcessingClamped(t *testing.T) {
	q, _ := newQueue(1)
	if d := q.Delay(100, -5); d < 0 {
		t.Fatalf("negative delay %d", d)
	}
	if c := q.Clock(); c < 0 {
		t.Fatalf("negative queue clock %d", c)
	}
}

func TestConcurrentDelayKeepsAccounting(t *testing.T) {
	q, _ := newQueue(8)
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if d := q.Delay(1000, 3); d < 0 {
					t.Errorf("negative delay %d", d)
					return
				}
			}
		}()
	}
	wg.Wait()
	p, _, busy := q.Stats()
	if p != workers*per {
		t.Fatalf("packets = %d, want %d", p, workers*per)
	}
	if busy != arch.Cycles(workers*per*3) {
		t.Fatalf("busy = %d, want %d", busy, workers*per*3)
	}
}

func TestDelayNeverNegativeQuick(t *testing.T) {
	q, _ := newQueue(4)
	f := func(now uint32, proc uint16) bool {
		return q.Delay(arch.Cycles(now), arch.Cycles(proc)) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkQueueDelayParallel admits packets to per-goroutine queues that
// share one progress window, from GOMAXPROCS goroutines at once: the cost
// of one trip through the contention-model lock. 0 allocs/op.
func BenchmarkQueueDelayParallel(b *testing.B) {
	w := clock.NewProgressWindow(1024)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var q Queue
		var total arch.Cycles
		for now := arch.Cycles(0); pb.Next(); now += 10 {
			total += q.Delay(w, now, 3)
		}
		if total < 0 {
			b.Error("negative total delay")
		}
	})
}
