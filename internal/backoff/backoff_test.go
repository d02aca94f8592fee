package backoff

import (
	"testing"
	"time"
)

// TestSchedule pins the curve on the sweep engine's requeue constants:
// doubling from 100ms, capped at 2s, and still capped after more
// doublings than a time.Duration has bits.
func TestSchedule(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Cap: 2 * time.Second}
	want := map[int]time.Duration{
		1:  100 * time.Millisecond,
		2:  200 * time.Millisecond,
		3:  400 * time.Millisecond,
		5:  1600 * time.Millisecond,
		6:  2 * time.Second,
		40: 2 * time.Second,
		70: 2 * time.Second,
	}
	for attempt := 1; attempt <= 70; attempt++ {
		got := b.Next()
		if w, ok := want[attempt]; ok && got != w {
			t.Errorf("attempt %d: delay %v, want %v", attempt, got, w)
		}
	}
	b.Reset()
	if got := b.Next(); got != 100*time.Millisecond {
		t.Errorf("after Reset: delay %v, want the base", got)
	}
}

// TestBaseAboveCap: a base larger than the cap is itself capped.
func TestBaseAboveCap(t *testing.T) {
	b := Backoff{Base: 10 * time.Second, Cap: 5 * time.Second}
	for i := 0; i < 3; i++ {
		if got := b.Next(); got != 5*time.Second {
			t.Fatalf("delay %v, want the 5s cap", got)
		}
	}
}
