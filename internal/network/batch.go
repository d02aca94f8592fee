package network

import (
	"repro/internal/arch"
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
// Send models its packet as Net.Send does, under the contention-model
// lock for that one route only: the owner's other work between sends
// (a memory server's decoding, directory steps and encoding) runs
// outside the lock, in parallel with other shards.
type Batch struct {
	n *Net
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
	delay := n.models.Delay(class, n.node, dst, p.Bytes(), now)
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
