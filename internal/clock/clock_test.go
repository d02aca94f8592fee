package clock

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/arch"
)

func TestLocalAdvance(t *testing.T) {
	var c Local
	if got := c.Now(); got != 0 {
		t.Fatalf("zero-value clock reads %d, want 0", got)
	}
	if got := c.Advance(5); got != 5 {
		t.Fatalf("Advance(5) = %d, want 5", got)
	}
	if got := c.Advance(0); got != 5 {
		t.Fatalf("Advance(0) moved clock to %d", got)
	}
	if got := c.Advance(-10); got != 5 {
		t.Fatalf("negative advance moved clock to %d", got)
	}
	if got := c.Advance(3); got != 8 {
		t.Fatalf("Advance(3) = %d, want 8", got)
	}
}

func TestLocalForwardMonotonic(t *testing.T) {
	var c Local
	c.Advance(100)
	if got := c.Forward(50); got != 100 {
		t.Fatalf("Forward(50) on clock at 100 = %d, want 100 (no backwards motion)", got)
	}
	if got := c.Forward(250); got != 250 {
		t.Fatalf("Forward(250) = %d, want 250", got)
	}
	if got := c.Now(); got != 250 {
		t.Fatalf("Now() = %d after Forward(250)", got)
	}
}

func TestLocalConcurrentAdvance(t *testing.T) {
	var c Local
	const workers = 8
	const perWorker = 10_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Advance(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != workers*perWorker {
		t.Fatalf("concurrent advances lost updates: %d != %d", got, workers*perWorker)
	}
}

func TestLocalConcurrentForwardNeverRegresses(t *testing.T) {
	var c Local
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prev := arch.Cycles(0)
			for i := 0; i < 5_000; i++ {
				got := c.Forward(arch.Cycles(i * (w + 1)))
				if got < prev {
					t.Errorf("clock regressed: %d after %d", got, prev)
					return
				}
				prev = got
			}
		}(w)
	}
	wg.Wait()
}

func TestProgressWindowAverages(t *testing.T) {
	w := NewProgressWindow(4)
	if got := w.Now(); got != 0 {
		t.Fatalf("empty window reads %d", got)
	}
	w.Observe(100)
	if got := w.Now(); got != 100 {
		t.Fatalf("one sample: Now() = %d, want 100", got)
	}
	w.Observe(200)
	if got := w.Now(); got != 150 {
		t.Fatalf("two samples: Now() = %d, want 150", got)
	}
	w.Observe(300)
	w.Observe(400)
	if got := w.Now(); got != 250 {
		t.Fatalf("full window: Now() = %d, want 250", got)
	}
	// Fifth sample evicts the first.
	w.Observe(500)
	if got := w.Now(); got != (200+300+400+500)/4 {
		t.Fatalf("after eviction: Now() = %d, want %d", got, (200+300+400+500)/4)
	}
}

func TestProgressWindowIgnoresNegative(t *testing.T) {
	w := NewProgressWindow(2)
	w.Observe(-5)
	if got := w.Now(); got != 0 {
		t.Fatalf("negative observation affected window: %d", got)
	}
}

func TestProgressWindowOutlierDamping(t *testing.T) {
	// A single runaway clock in a large window must not dominate the
	// average — the reason the paper sizes the window by tile count.
	w := NewProgressWindow(64)
	for i := 0; i < 63; i++ {
		w.Observe(1000)
	}
	w.Observe(1_000_000)
	got := w.Now()
	if got > 20_000 {
		t.Fatalf("outlier dominated window average: %d", got)
	}
	if got < 1000 {
		t.Fatalf("average below all samples: %d", got)
	}
}

func TestProgressWindowConcurrent(t *testing.T) {
	// Goroutines mix the self-locking calls with multi-step transactions
	// under Lock, as tiles' servers and route walks do. No caller may see
	// progress regress, and at quiescence the running sum must equal the
	// ring it summarizes.
	w := NewProgressWindow(33)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prev := arch.Cycles(0)
			for i := 1; i <= 2_000; i++ {
				var got arch.Cycles
				if (i+g)%3 == 0 {
					w.Lock()
					for k := 0; k < 4; k++ {
						w.ObserveLocked(arch.Cycles(i))
						got = w.NowLocked()
					}
					w.Unlock()
				} else {
					w.Observe(arch.Cycles(i))
					got = w.Now()
				}
				if got < prev {
					t.Errorf("progress regressed: %d after %d", got, prev)
					return
				}
				prev = got
			}
		}(g)
	}
	wg.Wait()
	got := w.Now()
	if got <= 0 || got > 2_000 {
		t.Fatalf("window average %d outside observed range", got)
	}
	var slots int64
	for _, v := range w.slots {
		slots += v
	}
	if w.sum != slots {
		t.Fatalf("running sum %d, slots sum to %d", w.sum, slots)
	}
}

func TestProgressWindowFillsItsCacheLines(t *testing.T) {
	// The padding in ProgressWindow is sized by hand; a new field must
	// shrink it, not push the struct into a size class that straddles
	// cache lines shared with other objects.
	if size := unsafe.Sizeof(ProgressWindow{}); size != 128 {
		t.Fatalf("ProgressWindow is %d bytes, want 128 (adjust the padding)", size)
	}
}

func TestProgressWindowHugeTimestamps(t *testing.T) {
	// Beyond mulSafe the floor test by multiplication would overflow;
	// Now must fall back to the division and stay exact.
	w := NewProgressWindow(1024)
	const huge = arch.Cycles(1) << 61
	w.Observe(huge)
	if got := w.Now(); got != huge {
		t.Fatalf("one huge sample: Now() = %d, want %d", got, huge)
	}
	w.Observe(0)
	if got := w.Now(); got != huge {
		t.Fatalf("floor lost: Now() = %d, want %d", got, huge)
	}
}

func TestProgressWindowQuickBounded(t *testing.T) {
	// Property: the progress estimate is at least the minimum of the last
	// window of observations and never exceeds the largest observation
	// ever made (monotonic clamp included).
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		w := NewProgressWindow(8)
		hi := arch.Cycles(0)
		for _, v := range raw {
			w.Observe(arch.Cycles(v))
			if arch.Cycles(v) > hi {
				hi = arch.Cycles(v)
			}
		}
		start := 0
		if len(raw) > 8 {
			start = len(raw) - 8
		}
		lo := arch.Cycles(1 << 62)
		for _, v := range raw[start:] {
			if c := arch.Cycles(v); c < lo {
				lo = c
			}
		}
		got := w.Now()
		return got >= lo && got <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProgressWindowMonotonicNow(t *testing.T) {
	// Global progress must never regress, even when laggard timestamps
	// displace fast ones in the window — the divergence guard for the lax
	// queue models.
	w := NewProgressWindow(4)
	for _, v := range []arch.Cycles{1000, 2000, 3000, 4000} {
		w.Observe(v)
	}
	high := w.Now()
	for i := 0; i < 8; i++ {
		w.Observe(1) // laggard floods the window
		if got := w.Now(); got < high {
			t.Fatalf("progress regressed: %d after %d", got, high)
		}
	}
}
