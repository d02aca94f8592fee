package network

import (
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/park"
	"repro/internal/ring"
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
//
//graphite:hotpath
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

// pktQueue is an unbounded FIFO of packets. Its ring is allocated by the
// first put: a class that is pumped or sunk never queues anything, so its
// queue costs no packet storage.
//
// A queue has one consumer, which waits in wait through park: by default
// defPark, a channel a plain goroutine blocks on; an application thread
// installs its coroutine (Net.SetParker). put and close wake it.
type pktQueue struct {
	mu      sync.Mutex
	pkts    ring.Ring[Packet]
	closed  bool
	park    park.Parker
	defPark park.Chan
	parked  bool // the consumer waits for a put or close
}

func newPktQueue() *pktQueue {
	q := &pktQueue{defPark: park.NewChan()}
	q.park = q.defPark
	return q
}

func (q *pktQueue) put(p Packet) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return
	}
	q.pkts.Push(p)
	q.wakeLocked()
	q.mu.Unlock()
}

// wait blocks the consumer until the next put or close. Called with mu
// held; returns with mu held.
func (q *pktQueue) wait() {
	q.parked = true
	q.mu.Unlock()
	defer q.mu.Lock() // also when a torn-down thread unwinds out of Park
	q.park.Park()
}

// wakeLocked wakes the consumer if it waits. Called with mu held.
func (q *pktQueue) wakeLocked() {
	if q.parked {
		q.parked = false
		q.park.Unpark()
	}
}

func (q *pktQueue) get() (Packet, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.pkts.Len() == 0 && !q.closed {
		q.wait()
	}
	if q.pkts.Len() == 0 {
		return Packet{}, false
	}
	return q.pkts.Pop(), true
}

// getMatch returns the first packet satisfying pred, buffering others in
// arrival order. It blocks until a match arrives or the queue closes.
func (q *pktQueue) getMatch(pred func(*Packet) bool) (Packet, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	scanned := 0
	for {
		for i := scanned; i < q.pkts.Len(); i++ {
			if pred(q.pkts.At(i)) {
				return q.pkts.Remove(i), true
			}
		}
		scanned = q.pkts.Len()
		if q.closed {
			return Packet{}, false
		}
		q.wait()
	}
}

func (q *pktQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.wakeLocked()
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
// endpoints receive nothing else) unless SetPrimary names another: the
// memory-server shard that serves a tile pumps ClassMemory with
// TryRecvBurst, and the tile sinks its system traffic (see core.Tile).
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
// Recv. fn runs inside the pump consumer's Recv or TryRecvBurst, on its
// goroutine, so it must not block; it sees the packets in arrival order
// with ok == true, then ok == false exactly once when the endpoint
// closes. Call before the first Recv.
func (n *Net) SetSink(c Class, fn func(pkt Packet, ok bool)) { n.sinks[c] = fn }

// SetParker makes p the way the one consumer of class c's queue waits in
// Recv and RecvMatch (an application thread parks its coroutine); nil
// restores the default, a blocking channel receive.
func (n *Net) SetParker(c Class, p park.Parker) {
	q := n.queues[c]
	q.mu.Lock()
	if p == nil {
		p = q.defPark
	}
	q.park, q.parked = p, false
	q.mu.Unlock()
}

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
// false after Close. A queued class has one consumer at a time.
func (n *Net) Recv(class Class) (Packet, bool) {
	if class == n.pumped {
		return n.pump()
	}
	return n.queues[class].get()
}

// SetNotify installs the endpoint's readiness callback (see
// transport.Endpoint.SetNotify): a pump consumer that serves many Nets
// from one loop drains each with TryRecvBurst when it fires, instead of
// blocking in Recv.
func (n *Net) SetNotify(fn func()) { n.ep.SetNotify(fn) }

// TryRecvBurst moves up to len(out) pump-class packets the transport has
// already delivered into out without blocking, delivering other classes
// on the way, and returns the count. open is false once the endpoint is
// closed and drained; the sinks then hear of the close, once, as from
// Recv. Only the pump consumer calls it: server loops drain a burst this
// way before flushing batched replies.
//
//graphite:hotpath
func (n *Net) TryRecvBurst(out []Packet) (k int, open bool) {
	for k < len(out) {
		frame, ok, err := n.ep.TryRecv()
		if err != nil {
			n.closeOnce.Do(n.closeSinks)
			return k, false
		}
		if !ok {
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
	return k, true
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
