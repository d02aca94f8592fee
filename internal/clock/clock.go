// Package clock implements the timekeeping primitives of lax
// synchronization (paper §3.6.1): per-tile local clocks that advance
// independently, and the windowed timestamp average that approximates
// global simulation progress for out-of-order queue models.
package clock

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
)

// Local is the simulated clock of one tile. It is read and advanced by the
// tile's own core model and forwarded (monotonically) by synchronization
// events carrying remote timestamps. All methods are safe for concurrent
// use; other tiles and queue models read clocks they do not own.
type Local struct {
	cycles atomic.Int64
}

// Now returns the current simulated time of this tile.
func (c *Local) Now() arch.Cycles {
	return arch.Cycles(c.cycles.Load())
}

// Advance adds d cycles to the clock and returns the new time. Negative
// advances are ignored: local time never runs backwards.
func (c *Local) Advance(d arch.Cycles) arch.Cycles {
	if d <= 0 {
		return c.Now()
	}
	return arch.Cycles(c.cycles.Add(int64(d)))
}

// Forward moves the clock to t if t is in the future, implementing the
// paper's rule that a synchronization event forwards the clock to the time
// the event occurred, and does nothing if the event is in the simulated
// past. It returns the resulting time.
func (c *Local) Forward(t arch.Cycles) arch.Cycles {
	for {
		cur := c.cycles.Load()
		if int64(t) <= cur {
			return arch.Cycles(cur)
		}
		if c.cycles.CompareAndSwap(cur, int64(t)) {
			return t
		}
	}
}

// Set unconditionally sets the clock. It exists for tests and for thread
// re-initialization; simulation code should use Advance and Forward.
func (c *Local) Set(t arch.Cycles) {
	c.cycles.Store(int64(t))
}

// ProgressWindow approximates the global simulated clock from a sliding
// window of recently observed message timestamps (paper §3.6.1). The
// window is sized on the order of the number of tiles so that a few
// outlier clocks cannot dominate the average, while frequent messages
// (every cache miss) keep it current.
//
// The implementation is a fixed ring of timestamps plus a running sum,
// all plain words behind one mutex. That mutex is the contention-model
// lock of the simulated process: it also guards every queue measured
// against this window (see internal/queuemodel), so a caller that must
// sample the window and update queues several times in a row — a packet
// walking its mesh route — takes Lock once, uses ObserveLocked/NowLocked
// inside, and calls Unlock. Observe and Now take the lock themselves and
// are safe for concurrent use from every tile of a process.
//
// Now is monotonic: global progress cannot regress. Without this clamp
// the windowed average oscillates when slow tiles' timestamps displace
// fast ones, and queue models that charge "queue clock minus global"
// diverge — a laggard sample drops the average, the resulting huge
// queueing delay inflates some tile's clock, that clock re-raises the
// average, and so on without bound. The clamp moves only when Now is
// called, so where Now is called is part of the model's behaviour.
type ProgressWindow struct {
	mu sync.Mutex
	// The floor sampler (OnFloor) shares the lock word's line, which
	// Unlock writes anyway. The rest of the line is padding: a waiter
	// spins reading the word, and on the line of the fields below every
	// read would pull the line from under the holder's next write.
	floorAt int64
	onFloor func(floor arch.Cycles) arch.Cycles
	_       [40]byte
	slots   []int64 // ring of the last len(slots) samples, zero before filled
	cur     Cursor  // sum, floor and ring position

	// mulSafe is the largest high for which (high+1)*len(slots) cannot
	// overflow, so NowLocked may test the floor by multiplication.
	mulSafe int64

	// 128 bytes in all, a size class whose objects start on cache-line
	// boundaries: every tile of the process writes the words above, and
	// in an 80-byte class they share lines with whatever the allocator
	// puts next to them (measured: a 4-tile matmul, which barely uses the
	// model, ran 13 % slower on two workers).
}

// Cursor is the part of a window's state that every sample changes: the
// running sum, the floor of Now, and the ring position. A lock holder
// that samples many times in a row — a packet admitted to each link of
// its mesh route (queuemodel.AdmitRoute) — takes it once (CursorLocked),
// carries it through Sample calls and puts it back (SetCursorLocked).
// Four words, so the compiler keeps it in registers: a hop then costs
// arithmetic, not a round trip through the window's memory for every
// word it touches.
type Cursor struct {
	sum  int64 // sum of slots
	high int64 // monotonic floor of Now
	seen int64 // samples held: min(observations, len(slots))
	next int   // slot the next sample replaces
}

// NewProgressWindow returns a window holding size samples. Size must be
// positive.
func NewProgressWindow(size int) *ProgressWindow {
	if size <= 0 {
		size = 1
	}
	return &ProgressWindow{
		floorAt: math.MaxInt64,
		slots:   make([]int64, size),
		mulSafe: math.MaxInt64/int64(size) - 1,
	}
}

// OnFloor installs f as the window's floor sampler: the lock holder
// calls f under the lock as it releases it, the first time the floor —
// the value Now last returned — has reached at; f returns the floor at
// which to call it next (MaxInt64: never). The check reads the floor
// without moving it, so a sampler changes no simulated result; without
// one it is a compare per Unlock.
func (w *ProgressWindow) OnFloor(at arch.Cycles, f func(floor arch.Cycles) (next arch.Cycles)) {
	w.mu.Lock()
	w.floorAt, w.onFloor = int64(at), f
	w.mu.Unlock()
}

// Lock acquires the contention-model lock. Hold it only for the
// ObserveLocked/NowLocked calls and queue updates of one transaction.
func (w *ProgressWindow) Lock() { w.mu.Lock() }

// Unlock releases the contention-model lock, first running the floor
// sampler if the floor has reached its next point.
func (w *ProgressWindow) Unlock() {
	if w.cur.high >= w.floorAt {
		w.floorAt = int64(w.onFloor(arch.Cycles(w.cur.high)))
	}
	w.mu.Unlock()
}

// Observe records a message timestamp.
func (w *ProgressWindow) Observe(t arch.Cycles) {
	w.mu.Lock()
	w.ObserveLocked(t)
	w.mu.Unlock()
}

// ObserveLocked is Observe for a caller holding Lock.
//
//graphite:hotpath
func (w *ProgressWindow) ObserveLocked(t arch.Cycles) { w.cur = w.observe(w.cur, t) }

// Now returns the current approximation of global progress: the average of
// the timestamps in the window, clamped to be monotonically non-decreasing
// across calls. Before any observation it returns 0.
func (w *ProgressWindow) Now() arch.Cycles {
	w.mu.Lock()
	now := w.NowLocked()
	w.Unlock()
	return now
}

// NowLocked is Now for a caller holding Lock.
//
//graphite:hotpath
func (w *ProgressWindow) NowLocked() arch.Cycles {
	var now arch.Cycles
	w.cur, now = w.now(w.cur)
	return now
}

// CursorLocked takes the window's cursor for a run of Sample calls. The
// caller holds Lock until it has put the cursor back.
func (w *ProgressWindow) CursorLocked() Cursor { return w.cur }

// SetCursorLocked puts back a cursor taken by CursorLocked.
func (w *ProgressWindow) SetCursorLocked(c Cursor) { w.cur = c }

// Sample is ObserveLocked(t) then NowLocked on a taken cursor.
//
//graphite:hotpath
func (w *ProgressWindow) Sample(c Cursor, t arch.Cycles) (Cursor, arch.Cycles) {
	return w.now(w.observe(c, t))
}

// observe records t at cursor c and returns the advanced cursor.
//
//graphite:hotpath
func (w *ProgressWindow) observe(c Cursor, t arch.Cycles) Cursor {
	if t < 0 {
		return c
	}
	i := c.next
	c.sum += int64(t) - w.slots[i]
	w.slots[i] = int64(t)
	if i++; i == len(w.slots) {
		i = 0
	}
	c.next = i
	if c.seen < int64(len(w.slots)) {
		c.seen++
	}
	return c
}

// now returns the window's progress at cursor c, moving its floor.
//
//graphite:hotpath
func (w *ProgressWindow) now(c Cursor) (Cursor, arch.Cycles) {
	n := c.seen
	if n == 0 {
		return c, 0
	}
	// Samples are non-negative, so the truncated average exceeds the floor
	// exactly when sum >= (high+1)*n. Most calls find the floor unmoved
	// and skip the division.
	if c.high <= w.mulSafe && c.sum < (c.high+1)*n {
		return c, arch.Cycles(c.high)
	}
	if avg := c.sum / n; avg > c.high {
		c.high = avg
	}
	return c, arch.Cycles(c.high)
}

// Size returns the window capacity.
func (w *ProgressWindow) Size() int { return len(w.slots) }
