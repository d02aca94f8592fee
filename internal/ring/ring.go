// Package ring is the FIFO of the simulator's queues: the transport's
// mailboxes, the network's per-class packet queues and the memory
// servers' ready lists. It is a growable ring buffer, so steady-state
// traffic recycles one allocation instead of regrowing an
// append-and-reslice queue (whose head capacity is unrecoverable, so it
// reallocates continuously under load).
//
// A Ring is not safe for concurrent use; its owners guard it with their
// own lock.
package ring

// minCap is the capacity of a ring's first buffer. Capacities are powers
// of two, so an index wraps with a mask.
const minCap = 16

// Ring is an unbounded FIFO. The zero value is an empty ring that
// allocates on its first push.
type Ring[T any] struct {
	buf     []T // len is zero or a power of two
	head, n int
}

// New returns an empty ring with room for minCap elements, so the first
// pushes do not each pay a growth step.
func New[T any]() Ring[T] { return Ring[T]{buf: make([]T, minCap)} }

// Len is the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th element from the head, 0 <= i < Len. The pointer
// is valid until the next push or removal.
func (r *Ring[T]) At(i int) *T { return &r.buf[(r.head+i)&(len(r.buf)-1)] }

// Grow makes room for k more elements.
func (r *Ring[T]) Grow(k int) {
	if r.n+k <= len(r.buf) {
		return
	}
	c := max(len(r.buf), minCap)
	for c < r.n+k {
		c *= 2
	}
	buf := make([]T, c)
	for i := 0; i < r.n; i++ {
		buf[i] = *r.At(i)
	}
	r.buf, r.head = buf, 0
}

// Push appends v at the tail.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.buf) {
		r.Grow(1)
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// PushFront puts v at the head, ahead of every queued element.
func (r *Ring[T]) PushFront(v T) {
	if r.n == len(r.buf) {
		r.Grow(1)
	}
	r.head = (r.head - 1) & (len(r.buf) - 1)
	r.buf[r.head] = v
	r.n++
}

// Pop removes and returns the head element. The ring must not be empty.
func (r *Ring[T]) Pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// Remove removes and returns the i-th element from the head, shifting
// the elements behind it forward one place, 0 <= i < Len.
func (r *Ring[T]) Remove(i int) T {
	var zero T
	v := *r.At(i)
	for j := i; j+1 < r.n; j++ {
		*r.At(j) = *r.At(j + 1)
	}
	*r.At(r.n - 1) = zero
	r.n--
	return v
}
