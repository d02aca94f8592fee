package network

import (
	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/transport"
)

// Batch accumulates outgoing packets per destination endpoint and hands
// them to the transport as coalesced batches (transport.SendBatch), so a
// burst of protocol messages costs one fabric operation per destination
// instead of one per packet.
//
// Timing is identical to Net.Send: each packet's modeled delay and arrival
// timestamp are computed at Send time from the sender's clock, and traffic
// statistics are counted immediately. Only the physical hand-off to the
// transport is deferred until Flush.
//
// A Batch is owned by a single goroutine and is not safe for concurrent
// use. Ordering caution: packets queued on a Batch are delivered when
// Flush runs, so a sender that also performs direct Net.Sends to the same
// destination (or signals another goroutine that will) must Flush first,
// or per-sender FIFO is lost. The memory server flushes before blocking
// and before waking its core thread for exactly this reason.
//
// The owner may also hold the contention-model lock across a run of its
// receives and sends (Hold): a memory server's burst then takes the
// process's progress-window lock once, where it took it for every packet
// it received, every packet it sent and every DRAM access it modeled.
// Two workers hand that lock back and forth far less often, and each
// hand-off moves the model's cache lines between their CPUs once per
// burst instead of once per packet. The order of the model's updates
// does not change, so neither does any single-worker result.
type Batch struct {
	n    *Net
	held *clock.ProgressWindow // the Net's window while the owner holds its lock
	// dests[:nd] are the destinations with queued frames, in first-queued
	// order. A burst reaches a handful of destinations, so Send finds its
	// own by a scan, which costs less than hashing into a map on every
	// packet; a slot past nd keeps its frame array for the next burst.
	dests []pendingDest
	nd    int
	arena FrameArena
	// Per-class traffic counters accumulated locally and folded into the
	// Net's shared atomics once per Flush instead of three times per Send.
	pkts, bytes [NumClasses]uint64
	delay       [NumClasses]int64
}

// pendingDest is one destination's queued frames.
type pendingDest struct {
	ep     transport.EndpointID
	frames [][]byte
}

// NewBatch creates a batching sender on this Net.
func (n *Net) NewBatch() *Batch { return &Batch{n: n} }

// Send models and queues a packet for dst, returning its simulated arrival
// time. The packet reaches the fabric at the next Flush.
func (b *Batch) Send(class Class, typ uint8, dst arch.TileID, seq uint64, payload []byte, now arch.Cycles) arch.Cycles {
	n := b.n
	p := Packet{Class: class, Type: typ, Src: n.node, Dst: dst, Seq: seq, Payload: payload}
	delay := n.models.delay(class, n.node, dst, p.Bytes(), now, b.held)
	p.Time = now + delay
	b.pkts[class]++
	b.bytes[class] += uint64(p.Bytes())
	b.delay[class] += int64(delay)
	d := b.dest(transport.EndpointID(dst))
	d.frames = append(d.frames, p.encodeInto(b.arena.alloc(p.Bytes())))
	return p.Time
}

// dest returns ep's queue, opening one after the others if ep has none.
//
//graphite:hotpath
func (b *Batch) dest(ep transport.EndpointID) *pendingDest {
	for i := b.nd - 1; i >= 0; i-- { // the latest destination is the likeliest
		if b.dests[i].ep == ep {
			return &b.dests[i]
		}
	}
	if b.nd == len(b.dests) {
		b.dests = append(b.dests, pendingDest{}) //graphite:alloc amortized: slots are kept across bursts
	}
	d := &b.dests[b.nd]
	b.nd++
	d.ep = ep
	return d
}

// Hold takes the lock of the Net's progress window for the owner's next
// RecvBurst and Send calls, and returns the window (nil when the Net has
// none: there is nothing to hold). Inside the hold the owner models
// traffic only through those two calls and through calls it passes the
// window to (dram.Controller.ReadLineHeld); any other path of the same
// window would wait for the lock forever. Release before anything that
// may wait.
func (b *Batch) Hold() *clock.ProgressWindow {
	if w := b.n.progress; w != nil {
		w.Lock()
		b.held = w
	}
	return b.held
}

// Release gives up a Hold.
func (b *Batch) Release() {
	if b.held != nil {
		b.held.Unlock()
		b.held = nil
	}
}

// RecvBurst is the Net's TryRecvBurst inside a Hold.
func (b *Batch) RecvBurst(out []Packet) (k int, open bool) {
	return b.n.tryRecvBurst(out, b.held)
}

// Len reports how many packets are queued.
func (b *Batch) Len() int {
	total := 0
	for _, d := range b.dests[:b.nd] {
		total += len(d.frames)
	}
	return total
}

// Flush hands every queued batch to the transport, one SendBatch per
// destination in first-queued order, and empties the Batch. The first
// transport error is returned; later destinations are still attempted so
// a teardown race cannot strand deliverable messages.
func (b *Batch) Flush() error {
	for c := range b.pkts {
		if b.pkts[c] != 0 {
			b.n.stats.PacketsSent[c].Add(b.pkts[c])
			b.n.stats.BytesSent[c].Add(b.bytes[c])
			b.n.stats.TotalDelay[c].Add(b.delay[c])
			b.pkts[c], b.bytes[c], b.delay[c] = 0, 0, 0
		}
	}
	var firstErr error
	for i := range b.dests[:b.nd] {
		d := &b.dests[i]
		if err := b.n.tr.SendBatch(d.ep, d.frames); err != nil && firstErr == nil {
			firstErr = err
		}
		// Drop the frame references but keep the array for the next
		// burst through this slot.
		clear(d.frames)
		d.frames = d.frames[:0]
	}
	b.nd = 0
	return firstErr
}
