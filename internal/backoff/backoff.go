// Package backoff is the repo's one capped-exponential retry schedule:
// the first delay is Base and each later one doubles, never exceeding
// Cap. Callers own the sleeping (time.Sleep, time.AfterFunc, a select
// with a context) and the give-up rule; this only produces the delays.
package backoff

import "time"

// Backoff yields Base, 2·Base, 4·Base, … capped at Cap. Not safe for
// concurrent use.
type Backoff struct {
	Base, Cap time.Duration
	next      time.Duration
}

// Next returns the delay before the coming retry and doubles the one
// after it. Doubling a value already bounded by Cap cannot overflow,
// however many times it is called.
func (b *Backoff) Next() time.Duration {
	d := b.next
	if d == 0 {
		d = b.Base
	}
	if d > b.Cap {
		d = b.Cap
	}
	b.next = 2 * d
	return d
}

// Reset restarts the schedule at Base, for a caller whose retry made
// progress.
func (b *Backoff) Reset() { b.next = 0 }
