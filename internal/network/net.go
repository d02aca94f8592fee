package network

import (
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/transport"
)

// Models bundles the per-class network models of one simulated process.
// All tiles of the process share the same model instances, so contention
// state aggregates across them.
type Models struct {
	ms [NumClasses]Model
}

// NewModels builds the three class models from the configuration.
func NewModels(cfg *config.Config, progress *clock.ProgressWindow) *Models {
	var m Models
	m.ms[ClassSystem] = NewModel(cfg.SysNet, cfg.Tiles, progress)
	m.ms[ClassMemory] = NewModel(cfg.MemNet, cfg.Tiles, progress)
	m.ms[ClassApp] = NewModel(cfg.AppNet, cfg.Tiles, progress)
	return &m
}

// Model returns the model serving a class.
func (m *Models) Model(c Class) Model { return m.ms[c] }

// Delay computes the modeled latency for one packet. Traffic to or from
// control endpoints (negative IDs) is control-plane only and has no
// modeled delay regardless of class.
func (m *Models) Delay(c Class, src, dst arch.TileID, bytes int, depart arch.Cycles) arch.Cycles {
	if src < 0 || dst < 0 {
		return 0
	}
	return m.ms[c].Delay(src, dst, bytes, depart)
}

// Stats counts traffic per class for one Net.
type Stats struct {
	PacketsSent [NumClasses]atomic.Uint64
	BytesSent   [NumClasses]atomic.Uint64
	PacketsRecv [NumClasses]atomic.Uint64
	TotalDelay  [NumClasses]atomic.Int64 // summed modeled latency of sent packets
}

// pktQueue is an unbounded FIFO of packets, stored in a ring buffer so
// steady-state traffic recycles one allocation instead of regrowing an
// append-and-reslice queue (whose head capacity is unrecoverable). The
// ring is allocated by the first put: a class that is pumped or sunk never
// queues anything, so its queue costs no packet storage.
type pktQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []Packet // ring of count packets starting at head
	head   int
	count  int
	closed bool
}

func newPktQueue() *pktQueue {
	q := &pktQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// at indexes the ring: logical position i counted from the head.
// Called with mu held.
func (q *pktQueue) at(i int) *Packet {
	return &q.buf[(q.head+i)%len(q.buf)]
}

func (q *pktQueue) put(p Packet) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.grow(1)
	*q.at(q.count) = p
	q.count++
	q.cond.Signal()
}

// grow ensures room for n more packets. Called with mu held.
func (q *pktQueue) grow(n int) {
	if q.count+n <= len(q.buf) {
		return
	}
	newCap := len(q.buf) * 2
	if newCap < 16 {
		newCap = 16
	}
	for newCap < q.count+n {
		newCap *= 2
	}
	nb := make([]Packet, newCap)
	for i := 0; i < q.count; i++ {
		nb[i] = *q.at(i)
	}
	q.buf, q.head = nb, 0
}

// pop removes and returns the head packet. Called with mu held, count > 0.
func (q *pktQueue) pop() Packet {
	p := q.buf[q.head]
	q.buf[q.head] = Packet{}
	q.head = (q.head + 1) % len(q.buf)
	q.count--
	return p
}

func (q *pktQueue) get() (Packet, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.count == 0 {
		return Packet{}, false
	}
	return q.pop(), true
}

// getMatch returns the first packet satisfying pred, buffering others in
// arrival order. It blocks until a match arrives or the queue closes.
func (q *pktQueue) getMatch(pred func(*Packet) bool) (Packet, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	scanned := 0
	for {
		for i := scanned; i < q.count; i++ {
			if pred(q.at(i)) {
				p := *q.at(i)
				// Close the gap: shift everything after i forward one slot.
				for j := i; j+1 < q.count; j++ {
					*q.at(j) = *q.at(j + 1)
				}
				*q.at(q.count - 1) = Packet{}
				q.count--
				return p, true
			}
		}
		scanned = q.count
		if q.closed {
			return Packet{}, false
		}
		q.cond.Wait()
	}
}

func (q *pktQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// Net is one node's interface to the on-chip networks: a target tile or a
// simulator control thread (MCP/LCP, which only ever uses ClassSystem).
//
// Every Net has exactly one pump: the consumer of its pump class, whose
// Recv reads the transport endpoint itself. Packets of the pump class are
// returned inline; every other class goes to that class's sink — a
// function installed with SetSink, or by default the class queue that
// Recv/RecvMatch read. Other classes are therefore delivered only while
// the pump consumer receives. The pump class is ClassSystem (the control
// endpoints receive nothing else) unless SetPrimary names another: a
// tile's memory server pumps ClassMemory, and the tile sinks its system
// traffic (see core.Tile).
type Net struct {
	node      arch.TileID // may be negative for control endpoints
	tr        transport.Transport
	ep        *transport.Endpoint
	models    *Models
	progress  *clock.ProgressWindow
	queues    [NumClasses]*pktQueue
	sinks     [NumClasses]func(pkt Packet, ok bool)
	pumped    Class
	stats     Stats
	closeOnce sync.Once // the sinks' ok == false call
}

// New creates the network interface for a node. The endpoint must already
// be registered on the transport. progress may be nil for control nodes.
func New(node arch.TileID, tr transport.Transport, ep *transport.Endpoint, models *Models, progress *clock.ProgressWindow) *Net {
	n := &Net{node: node, tr: tr, ep: ep, models: models, progress: progress, pumped: ClassSystem}
	for c := range n.queues {
		n.queues[c] = newPktQueue()
	}
	return n
}

// Node returns the node ID this Net serves.
func (n *Net) Node() arch.TileID { return n.node }

// SetPrimary makes class c the pump class: its consumer's Recv reads the
// endpoint and delivers every other class on the way. Call before the
// first Recv.
func (n *Net) SetPrimary(c Class) { n.pumped = c }

// SetSink hands class c's packets to fn instead of queueing them for
// Recv. fn runs inside the pump consumer's Recv, on its goroutine, so it
// must not block; it sees the packets in arrival order with ok == true,
// then ok == false exactly once when the endpoint closes. Call before the
// first Recv.
func (n *Net) SetSink(c Class, fn func(pkt Packet, ok bool)) { n.sinks[c] = fn }

// Start is a no-op kept because benchmark/, edited only in benchmark PRs, calls it.
func (n *Net) Start() {}

// Send models and transmits a packet, returning its simulated arrival time
// at dst. now is the sender's current clock.
func (n *Net) Send(class Class, typ uint8, dst arch.TileID, seq uint64, payload []byte, now arch.Cycles) (arch.Cycles, error) {
	return n.SendFrom(nil, class, typ, dst, seq, payload, now)
}

// SendFrom is Send with the wire frame carved from the caller-owned arena
// (nil falls back to an individual allocation). High-rate senders — the
// memory system's core context — use it to keep the per-message frame off
// the garbage collector's plate.
func (n *Net) SendFrom(ar *FrameArena, class Class, typ uint8, dst arch.TileID, seq uint64, payload []byte, now arch.Cycles) (arch.Cycles, error) {
	p := Packet{Class: class, Type: typ, Src: n.node, Dst: dst, Seq: seq, Payload: payload}
	delay := n.models.Delay(class, n.node, dst, p.Bytes(), now)
	p.Time = now + delay
	n.stats.PacketsSent[class].Add(1)
	n.stats.BytesSent[class].Add(uint64(p.Bytes()))
	n.stats.TotalDelay[class].Add(int64(delay))
	var frame []byte
	if ar != nil {
		frame = p.encodeInto(ar.alloc(p.Bytes()))
	} else {
		frame = p.Encode()
	}
	if err := n.tr.Send(transport.EndpointID(dst), frame); err != nil {
		return 0, err
	}
	return p.Time, nil
}

// recvPacket accounts one decoded inbound packet.
func (n *Net) recvPacket(pkt *Packet) {
	if n.progress != nil && pkt.Time >= 0 {
		n.progress.Observe(pkt.Time)
	}
	n.stats.PacketsRecv[pkt.Class].Add(1)
}

// pump reads transport frames from the pump consumer's context,
// returning the first pump-class packet and delivering every other class
// to its sink. ok is false once the endpoint closes.
func (n *Net) pump() (Packet, bool) {
	for {
		frame, err := n.ep.Recv()
		if err != nil {
			n.closeOnce.Do(n.closeSinks)
			return Packet{}, false
		}
		pkt, err := Decode(frame)
		if err != nil {
			// A malformed frame indicates a simulator bug; dropping it is
			// the only safe action mid-simulation.
			continue
		}
		n.recvPacket(&pkt)
		if pkt.Class == n.pumped {
			return pkt, true
		}
		n.deliver(pkt)
	}
}

// deliver hands a non-pump packet to its class's sink or queue.
func (n *Net) deliver(pkt Packet) {
	if fn := n.sinks[pkt.Class]; fn != nil {
		fn(pkt, true)
		return
	}
	n.queues[pkt.Class].put(pkt)
}

// closeSinks tells every consumer that the endpoint closed.
func (n *Net) closeSinks() {
	for c, q := range n.queues {
		q.close()
		if fn := n.sinks[c]; fn != nil {
			fn(Packet{}, false)
		}
	}
}

// Recv blocks for the next packet of a class, in arrival order: the pump
// class by reading the endpoint, any other class from its queue. ok is
// false after Close.
func (n *Net) Recv(class Class) (Packet, bool) {
	if class == n.pumped {
		return n.pump()
	}
	return n.queues[class].get()
}

// TryRecvBurst moves up to len(out) pump-class packets the transport has
// already delivered into out without blocking, delivering other classes
// on the way, and returns the count. Only the pump consumer calls it:
// server loops drain a burst this way before flushing batched replies.
func (n *Net) TryRecvBurst(out []Packet) int {
	k := 0
	for k < len(out) {
		frame, ok, err := n.ep.TryRecv()
		if err != nil || !ok {
			break
		}
		pkt, derr := Decode(frame)
		if derr != nil {
			continue
		}
		n.recvPacket(&pkt)
		if pkt.Class == n.pumped {
			out[k] = pkt
			k++
		} else {
			n.deliver(pkt)
		}
	}
	return k
}

// RecvMatch blocks for the next queued packet of a non-pump class
// satisfying pred, buffering non-matching packets for later
// Recv/RecvMatch calls.
func (n *Net) RecvMatch(class Class, pred func(*Packet) bool) (Packet, bool) {
	return n.queues[class].getMatch(pred)
}

// Delay returns the modeled network latency of a packet with the given
// payload size departing for dst now, without sending anything. The
// memory system's local-home shortcut uses it to charge exactly the
// timing a loopback message would have had.
func (n *Net) Delay(class Class, dst arch.TileID, payloadBytes int, depart arch.Cycles) arch.Cycles {
	return n.models.Delay(class, n.node, dst, headerLen+payloadBytes, depart)
}

// Observe feeds a timestamp into the process's progress window, exactly
// as receiving a packet with that timestamp would. Loopback shortcuts
// call it so the global-progress approximation sees the same sample
// stream whether or not the message physically traversed the transport.
func (n *Net) Observe(t arch.Cycles) {
	if n.progress != nil && t >= 0 {
		n.progress.Observe(t)
	}
}

// Stats exposes the traffic counters.
func (n *Net) Stats() *Stats { return &n.stats }

// Close shuts down the endpoint and the receive queues. In-flight Recv
// calls return ok == false; the pump consumer's does so once it has
// drained what the transport already delivered, and the sinks hear of
// the close from it.
func (n *Net) Close() {
	n.ep.Close()
	for _, q := range n.queues {
		q.close()
	}
}
