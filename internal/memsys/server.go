package memsys

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/directory"
	"repro/internal/network"
	"repro/internal/park"
	"repro/internal/transport"
)

// maxDrain bounds how many queued packets a shard processes for one node
// before flushing its batched sends, waking its core and moving on, so a
// long inbound burst can starve neither them nor the shard's other nodes.
// Within the bound, replies produced while draining a burst coalesce into
// one transport operation per destination.
const maxDrain = 64

// Serve is a memory-server shard: one loop that serves every node given,
// until the networks of all of them have closed. For each node it
// processes every memory-class packet addressed to that tile — directory
// requests for lines homed there, coherence commands for lines cached
// there, and replies that complete the tile's outstanding miss. Its
// receives pump the tiles' endpoints, so they also deliver the tiles'
// other traffic classes to their sinks and queues (network.Net). It also
// runs the application threads of its tiles, as coroutines (Node.Go). A
// process runs a few shards over all of its tiles (core.Proc.Start).
//
// The shard keeps two ready lists: its nodes whose endpoints hold frames,
// in the order they became ready (the endpoints' readiness callbacks feed
// it), and its coroutines that are runnable, in turn order (Coro.Unpark
// and Node.Go feed it). It sleeps only while both are empty. It takes one
// entry at a time, a node first unless it has served a burst per node
// since a coroutine last ran. A node gets one bounded burst; a node that
// may still hold frames after a full burst goes to the back of its list,
// because its endpoint will not fire again until it has been emptied. A
// coroutine runs until it parks, steps aside (Coro.Preempt) or returns.
//
// A shard never blocks on other tiles: home transactions are a state
// machine (blocking directory with per-line pending queues), every lock a
// handler takes is held by others only for bounded, non-blocking work, and
// a thread that must wait parks its coroutine instead of blocking the
// loop. So the distributed protocol cannot deadlock even while a served
// tile's core waits on a miss, nor because one loop serves many tiles.
//
// The core context — the tile's thread — owns the tile's caches (see
// DESIGN.md §13). Inv/Wb/Flush commands are applied directly only after
// claiming the free ownership word (an idle tile); against a mid-access
// core they are published to the intervention mailbox for the core to
// drain at release. Completion replies are handed to the waiting core,
// which installs the granted line itself after ownership returns with the
// hand-off.
//
// Outgoing messages are batched per destination and flushed at the end of
// every burst — before the shard moves to its next entry or sleeps, which
// keeps the protocol live, and before the node's waiting core is woken,
// which keeps per-sender FIFO intact: a woken core may immediately send
// new messages (a miss for a line whose flush reply is still sitting in
// the batch, say) that must not overtake them.
//
// Only the contention model is serial across shards. Every model call a
// burst makes takes the process's progress-window lock for itself alone:
// one mesh route per send, one DRAM access, one observe per received
// packet. Decoding, directory steps, cache work, encoding and the
// hand-offs to the transport run outside it, in parallel with the other
// shards. The order of the model's calls is the order of the burst's
// work, so a single-thread run's results do not depend on the number of
// shards.
func Serve(nodes ...*Node) { NewShard(nodes...).Run() }

// Serve serves this node alone: a shard of one.
func (n *Node) Serve() { Serve(n) }

// Shard is one Serve loop: the nodes it serves and its ready lists.
type Shard struct {
	nodes []*Node

	mu     sync.Mutex
	cond   sync.Cond   // the loop waits here while both lists are empty
	ready  ring[*Node] // nodes whose endpoints hold frames, oldest first
	run    ring[*Coro] // runnable coroutines, in turn order
	streak int         // node bursts served since the last coroutine ran
	dead   bool        // the loop has returned; Node.Go ends new coroutines at once

	// waiting mirrors the lists for lock-free reads by a running
	// coroutine (Coro.Preempt): ready nodes in the high 32 bits, runnable
	// coroutines in the low 32.
	waiting atomic.Uint64
}

// nodeWaiting is one ready node in Shard.waiting.
const nodeWaiting = 1 << 32

// ring is a growable FIFO.
type ring[T any] struct {
	buf     []T
	head, n int
}

func (r *ring[T]) at(i int) T { return r.buf[(r.head+i)%len(r.buf)] }

func (r *ring[T]) grow() {
	if r.n < len(r.buf) {
		return
	}
	buf := make([]T, 2*len(r.buf)+1)
	for i := 0; i < r.n; i++ {
		buf[i] = r.at(i)
	}
	r.buf, r.head = buf, 0
}

func (r *ring[T]) push(v T) {
	r.grow()
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
}

func (r *ring[T]) pushFront(v T) {
	r.grow()
	r.head = (r.head + len(r.buf) - 1) % len(r.buf)
	r.buf[r.head] = v
	r.n++
}

func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v
}

// NewShard builds the shard that will serve nodes; Run serves them. Nodes
// can take coroutines (Node.Go) from here on.
func NewShard(nodes ...*Node) *Shard {
	s := &Shard{nodes: nodes}
	s.cond.L = &s.mu
	for _, n := range nodes {
		n.sh = s
		n.net.SetNotify(func() { s.readyNode(n) })
	}
	return s
}

// Run is the shard loop (see Serve). It returns once every node is down,
// after ending every coroutine still suspended on the shard.
func (s *Shard) Run() {
	var burst [maxDrain]network.Packet
	for live := len(s.nodes); live > 0; {
		n, c := s.next()
		if c != nil {
			c.resume()
			continue
		}
		if n.down {
			continue // readied by its own Close after it was torn down
		}
		k, open := n.net.TryRecvBurst(burst[:])
		var done *pendingReq
		for i := 0; i < k; i++ {
			if pr := n.dispatch(burst[i]); pr != nil {
				done = pr // at most one: the tile has one outstanding request
			}
			if burst[i].Src == n.tile {
				n.selfInflight.Add(-1)
			}
			burst[i] = network.Packet{}
		}
		n.flushSends()
		var wake park.Parker
		if done != nil {
			// The slot is the core's again the moment replied says so.
			wake = done.park
			n.replied.Store(done.seq)
		}
		switch {
		case !open:
			n.stop()
			live--
		case k == len(burst):
			s.readyNode(n)
		}
		if wake != nil {
			// A thread of this shard runs on in place of the wake.
			if c, ok := wake.(*Coro); !ok || !c.runNow() {
				wake.Unpark()
			}
		}
	}
	s.mu.Lock()
	s.dead = true
	var orphans []*Coro
	for s.run.n > 0 {
		orphans = append(orphans, s.run.pop())
	}
	s.waiting.Store(0)
	s.mu.Unlock()
	for _, c := range orphans {
		c.kill() // never resumed: their tiles went down first
	}
}

// Report writes the shard's state for a wedged-run dump (park.Report):
// its ready list, then per node the state of the tile's thread and the
// line of its outstanding miss, if any. label adds what the caller knows
// of a tile's thread.
func (s *Shard) Report(w io.Writer, label func(arch.TileID) string) {
	s.mu.Lock()
	var nodes, coros []arch.TileID
	for i := 0; i < s.ready.n; i++ {
		nodes = append(nodes, s.ready.at(i).tile)
	}
	for i := 0; i < s.run.n; i++ {
		coros = append(coros, s.run.at(i).node.tile)
	}
	s.mu.Unlock()
	fmt.Fprintf(w, "  shard of tiles %d..: ready nodes %v, runnable threads %v\n", s.nodes[0].tile, nodes, coros)
	for _, n := range s.nodes {
		c := n.coro.Load()
		if c == nil {
			continue
		}
		state := [...]string{"running", "running, woken", "parked", "runnable", "ended"}[c.state.Load()]
		n.mu.Lock()
		miss := ""
		if pr := n.pending; pr != nil {
			miss = fmt.Sprintf(", miss on line %#x", uint64(pr.line))
		}
		n.mu.Unlock()
		fmt.Fprintf(w, "    tile %d: thread %s%s%s\n", n.tile, state, miss, label(n.tile))
	}
}

// readyNode lists n unless it is already listed. It runs in endpoint
// readiness callbacks, so it never blocks beyond the shard lock.
func (s *Shard) readyNode(n *Node) {
	s.mu.Lock()
	if !n.queued {
		n.queued = true
		s.ready.push(n)
		s.waiting.Add(nodeWaiting)
		s.cond.Signal()
	}
	s.mu.Unlock()
}

// readyCoro lists a runnable coroutine: at the back of the turn order, or
// at the front for one that stepped aside only for ready nodes. It
// reports false, listing nothing, once the loop has returned.
//
//graphite:hotpath
func (s *Shard) readyCoro(c *Coro, front bool) bool {
	s.mu.Lock()
	ok := !s.dead
	if ok {
		if front {
			s.run.pushFront(c)
		} else {
			s.run.push(c)
		}
		s.waiting.Add(1)
		s.cond.Signal()
	}
	s.mu.Unlock()
	return ok
}

// next takes the next entry, sleeping while there is none: a ready node
// first, unless the shard has served a burst per node since a coroutine
// last ran and coroutines wait. A node is unlisted from here on, so
// readiness that arrives while the loop drains it lists it again.
//
//graphite:hotpath
func (s *Shard) next() (*Node, *Coro) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.ready.n == 0 && s.run.n == 0 {
		s.cond.Wait()
	}
	if s.ready.n > 0 && (s.run.n == 0 || s.streak < len(s.nodes)) {
		n := s.ready.pop()
		n.queued = false
		s.streak++
		s.waiting.Add(^uint64(nodeWaiting - 1))
		return n, nil
	}
	s.streak = 0
	s.waiting.Add(^uint64(0))
	return nil, s.run.pop()
}

// stop tears down a node whose endpoint has closed and drained, once:
// release a plain goroutine waiting on a completion that will never
// arrive, end the tile's suspended thread, and fail every request a
// still-running caller stages from here on at once, so Cluster.Close can
// wait for it. The request slot is dead from here on.
func (n *Node) stop() {
	n.down = true
	n.mu.Lock()
	pr := n.pending
	n.pending = nil
	n.replied.Store(nodeStopped)
	n.mu.Unlock()
	if c := n.coro.Load(); c != nil {
		c.kill()
	}
	if pr != nil {
		pr.park.Unpark()
	}
	close(n.stopped)
}

// flushSends pushes the server's batched messages onto the fabric.
func (n *Node) flushSends() {
	if err := n.out.Flush(); err != nil && !errors.Is(err, transport.ErrClosed) {
		panic("memsys: transport send failed: " + err.Error())
	}
}

// Stopped reports server termination (for tests and teardown).
func (n *Node) Stopped() <-chan struct{} { return n.stopped }

// dispatch decodes a packet and routes it to its domain: home-side
// messages to the home under its lock, cache commands to the
// intervention mailbox (or, while the core is parked, directly against the
// caches), and completions to the blocked core. Nothing under a lock
// blocks, so the domains cannot deadlock against the core context or each
// other.
func (n *Node) dispatch(pkt network.Packet) *pendingReq {
	switch pkt.Type {
	case msgShReq, msgExReq:
		req, err := decodeReq(pkt.Payload)
		must(err)
		n.homeEvent(n.reqEvent(pkt.Type, pkt.Src, req), pkt, nil, req.line, pkt.Time+n.cfg.Coherence.DirLatency)
	case msgEvictS:
		line, err := decodeLine(pkt.Payload)
		must(err)
		n.homeEvent(directory.Event{Kind: directory.EvictS, Src: pkt.Src}, pkt, nil, line, pkt.Time)
	case msgEvictM, msgInvRep, msgWbRep, msgFlushRep:
		p, err := decodeData(pkt.Payload)
		must(err)
		ev := directory.Event{Kind: replyKinds[pkt.Type-msgEvictM], Src: pkt.Src, Seq: pkt.Seq, Mask: p.mask, Data: p.flags&flagHasData != 0}
		if (ev.Data || pkt.Type == msgEvictM) && len(p.data) != n.lineSize {
			panic(fmt.Sprintf("memsys: %s carries %d bytes of a %d-byte line", msgName(pkt.Type), len(p.data), n.lineSize))
		}
		n.homeEvent(ev, pkt, p.data, p.line, pkt.Time)
	case msgInvReq, msgWbReq, msgFlushReq:
		n.queueIntervention(pkt)
	case msgShRep, msgExRep, msgUpgRep, msgPeekRep, msgPokeAck:
		return n.handoffCompletion(pkt)
	case msgEvictAck:
		n.wbAcked()
	case msgPeek, msgPoke:
		n.handlePeekPoke(pkt)
	case msgCkpt:
		n.runCtrl()
	}
	return nil
}

// must panics on a malformed payload: a peer that sends one is broken.
func must(err error) {
	if err != nil {
		panic("memsys: " + err.Error())
	}
}

// handoffCompletion matches a completion reply against the outstanding
// request, stores it there and returns the request, whose core the shard
// wakes after flushing the burst. For miss completions it
// also re-grants core-domain ownership (marking the word stCoreActive)
// before the reply is delivered: the core installs the line itself, and
// every intervention the server receives from this point on queues in the
// mailbox and is drained by the core after that installation — which is
// exactly arrival order, because the home serializes per line and sent
// the grant first. Stale replies (sequence mismatch) are dropped.
func (n *Node) handoffCompletion(pkt network.Packet) *pendingReq {
	n.mu.Lock()
	pr := n.pending
	if pr == nil || pr.seq != pkt.Seq {
		n.mu.Unlock()
		return nil
	}
	n.pending = nil
	if !pr.functional {
		// The word is free here: the core released it before blocking and
		// the server's own claims are transient under this mu.
		n.coreState.Store(stCoreActive)
	}
	pr.reply = pkt
	n.mu.Unlock()
	return pr
}

// dirLineSlabChunk sizes the home's dirLine slab: small enough that a
// tile homing a handful of lines (most of them, at a thousand tiles)
// wastes little, large enough to amortize the allocation.
const dirLineSlabChunk = 8

// dirLine returns the home state of line l, creating it on first use.
// Called with h.mu held.
func (h *home) dirLine(l cache.LineAddr) *dirLine {
	dl := h.lines[l]
	if dl == nil {
		if len(h.slab) == 0 {
			h.slab = make([]dirLine, dirLineSlabChunk)
		}
		dl = &h.slab[0]
		h.slab = h.slab[1:]
		dl.entry = h.store.Alloc()
		h.lines[l] = dl
	}
	return dl
}

// getTxn takes a transaction record from the free list (or allocates the
// first time). Called with h.mu held.
func (h *home) getTxn() *txn {
	if len(h.txnFree) == 0 {
		return &txn{}
	}
	tx := h.txnFree[len(h.txnFree)-1]
	h.txnFree = h.txnFree[:len(h.txnFree)-1]
	return tx
}

// putTxn recycles a completed transaction record, keeping its data buffer.
// Called with h.mu held.
func (h *home) putTxn(tx *txn) {
	buf := tx.data[:0]
	*tx = txn{data: buf}
	h.txnFree = append(h.txnFree, tx)
}

// replyKinds maps msgEvictM and the home's reply types, in message-type
// order, to their directory events.
var replyKinds = [...]directory.EventKind{msgEvictM - msgEvictM: directory.EvictM,
	msgInvRep - msgEvictM: directory.InvRep, msgWbRep - msgEvictM: directory.WbRep, msgFlushRep - msgEvictM: directory.FlushRep}

// reqEvent is the directory event of a ShReq or ExReq.
func (n *Node) reqEvent(typ uint8, src arch.TileID, req reqPayload) directory.Event {
	kind := directory.ShReq
	if typ == msgExReq {
		kind = directory.ExReq
	}
	return directory.Event{Kind: kind, Src: src, Mask: req.mask, Upgrade: req.flags&flagUpgrade != 0}
}

// homeEvent serves one home-side event under the home lock. A request or
// a writeback creates the line's home state; an eviction notice or a
// reply for a line without one is stale.
func (n *Node) homeEvent(ev directory.Event, pkt network.Packet, data []byte, line uint64, at arch.Cycles) {
	h := &n.home
	h.mu.Lock()
	dl := h.lines[cache.LineAddr(line)]
	if dl == nil && (ev.Kind <= directory.ExReq || ev.Kind == directory.EvictM) {
		dl = h.dirLine(cache.LineAddr(line))
	}
	if ev.Kind <= directory.ExReq {
		h.dirRequests++
	}
	if dl != nil {
		// The event, then the requests queued behind a transaction it
		// closed, each at its own arrival.
		n.homeStep(dl, ev, pkt, data, line, at)
		for !dl.tx.Open && len(dl.pending) > 0 {
			pkt := dl.pending[0]
			dl.pending = dl.pending[1:]
			req, _ := decodeReq(pkt.Payload) // checked when it arrived
			n.homeStep(dl, n.reqEvent(pkt.Type, pkt.Src, req), pkt, nil, req.line, pkt.Time+n.cfg.Coherence.DirLatency)
		}
	}
	h.mu.Unlock()
}

// homeStep runs one event through the line's directory step and carries
// out the actions it returns, in order: the messages, the DRAM accesses
// and their timing. data is the event's line, if it carries one.
func (n *Node) homeStep(dl *dirLine, ev directory.Event, pkt network.Packet, data []byte, line uint64, at arch.Cycles) {
	h := &n.home
	if ev.Kind <= directory.ExReq {
		ev.Seq = h.homeSeq + 1 // the number a transaction it opens takes
	}
	res := directory.Step(dl.entry, &dl.tx, ev)
	tx, t := dl.busy, at
	var grant []byte
	for _, a := range res.Actions() {
		switch a.Op {
		case directory.OpQueue:
			dl.pending = append(dl.pending, pkt)
		case directory.OpStart:
			h.homeSeq = ev.Seq
			tx = h.getTxn()
			tx.reqSeq, tx.latest = pkt.Seq, at
			dl.busy = tx
		case directory.OpJoin:
			tx.latest = max(tx.latest, at)
		case directory.OpKeep:
			tx.data = append(tx.data[:0], data...)
		case directory.OpInvAll:
			dl.entry.TakeSharers(a, func(s arch.TileID) {
				h.invSent++
				n.sendSrv(msgInvReq, s, dl.tx.Seq, encodeLine(&n.srvScratch, line), t)
			})
		case directory.OpInv, directory.OpWb, directory.OpFlush:
			typ := msgInvReq + uint8(a.Op-directory.OpInv)
			if typ == msgInvReq {
				h.invSent++
			}
			n.sendSrv(typ, a.To, dl.tx.Seq, encodeLine(&n.srvScratch, line), t)
			tx.latest = max(tx.latest, t)
		case directory.OpTrap:
			tx.trapExtra += n.cfg.Coherence.TrapLatency
			h.dirTraps++
		case directory.OpComplete:
			t = tx.latest + tx.trapExtra
			grant = tx.data
		case directory.OpReadDRAM:
			t += h.dram.ReadLine(line, n.grantBuf, t)
			grant = n.grantBuf
		case directory.OpWriteDRAM:
			h.dram.WriteLine(line, data, t)
		case directory.OpWriteBack:
			// Off the critical path: the grant does not wait for it.
			h.dram.WriteLine(line, tx.data, t)
		case directory.OpGrantSh, directory.OpGrantEx, directory.OpGrantUpg:
			typ := msgShRep + uint8(a.Op-directory.OpGrantSh)
			p := dataPayload{line: line, mask: res.WMask, writer: res.Writer}
			if typ != msgUpgRep {
				p.flags, p.data = flagHasData, grant
			}
			n.sendSrv(typ, a.To, tx.reqSeq, encodeData(&n.srvScratch, p), t)
		case directory.OpAck:
			n.sendSrv(msgEvictAck, a.To, pkt.Seq, encodeLine(&n.srvScratch, line), t)
		}
	}
	if tx != nil && !dl.tx.Open {
		dl.busy = nil
		h.putTxn(tx)
	}
}

// applyIntervention carries out the requester step of one Inv/Wb/Flush
// command against the local caches. It runs in whichever context owns
// the core domain at the time: the core context draining its mailbox
// (srv == false, immediate replies) or the server while the core is
// parked (srv == true, batched replies flushed before the core can wake).
// Called with mu held.
func (n *Node) applyIntervention(pkt network.Packet, srv bool) {
	line, err := decodeLine(pkt.Payload)
	must(err)
	l := cache.LineAddr(line)
	t := pkt.Time + n.l2.HitLatency()
	c, ln := n.copyOf(l)
	hist := c.Hist
	res := directory.CacheStep(&c, directory.CacheEvent{Kind: directory.InvReq + directory.CacheEventKind(pkt.Type-msgInvReq)})
	pay := dataPayload{line: line, writer: n.tile}
	for _, a := range res.Actions() {
		switch a {
		case directory.Drop:
			// The victim's bytes stay in the slot until the next Insert
			// in its set; the payload encoder below copies them.
			v, _ := n.l2.Invalidate(l)
			pay.mask, pay.data = v.WriteMask, v.Data
		case directory.Downgrade:
			pay.mask, pay.data = ln.WriteMask(), ln.Data()
			n.l2.Downgrade(l)
		case directory.InvL1:
			n.invL1(l)
		case directory.SendInvRep, directory.SendWbRep, directory.SendFlushRep:
			switch {
			case res.Data:
				pay.flags = flagHasData
			case res.Absent:
				pay.flags = flagNotPresent
			default:
				pay.mask, pay.data = 0, nil
			}
			typ := msgInvRep + uint8(a-directory.SendInvRep)
			if srv {
				n.sendSrv(typ, pkt.Src, pkt.Seq, encodeData(&n.srvScratch, pay), t)
			} else {
				n.send(typ, pkt.Src, pkt.Seq, encodeData(&n.coreScratch, pay), t)
			}
		}
	}
	if c.Hist != hist {
		n.lineHist[l] = c.Hist
	}
}

// applyWrite stores a write into a Modified L2 line and keeps the
// write-through L1D copy coherent. Core context only.
func (n *Node) applyWrite(ln cache.Line, line cache.LineAddr, off int, wbuf []byte, mask uint64) {
	copy(ln.Data()[off:], wbuf)
	ln.SetDirty(true)
	ln.OrWriteMask(mask)
	if n.l1d != nil {
		if l1, ok := n.l1d.Peek(line); ok {
			copy(l1.Data()[off:], wbuf)
		}
	}
}

// l1Of is the L1I or the L1D, nil if disabled.
func (n *Node) l1Of(ifetch bool) *cache.Cache {
	if ifetch {
		return n.l1i
	}
	return n.l1d
}

// processVictim carries out the requester step of an L2 eviction: L1
// inclusion and the home notification (writeback for Modified victims).
// It runs in the core context, so the notification is sent immediately —
// per-sender FIFO orders it ahead of any later miss the core issues for
// the same line. Locally homed victims are applied inline when safe
// (localEvict).
func (n *Node) processVictim(victim cache.Victim, now arch.Cycles) {
	res := directory.CacheStep(&directory.Copy{State: victim.State}, directory.CacheEvent{Kind: directory.Evict})
	for _, a := range res.Actions() {
		switch a {
		case directory.InvL1:
			n.invL1(victim.Addr)
		case directory.SendEvictS, directory.SendEvictM:
			writeback := a == directory.SendEvictM
			home := n.homeOf(victim.Addr)
			if home == n.tile && n.localEvict(victim, writeback, now) {
				continue
			}
			if writeback {
				n.outstandingWB.Add(1)
				pay := dataPayload{line: uint64(victim.Addr), mask: victim.WriteMask, writer: n.tile, flags: flagHasData, data: victim.Data}
				n.send(msgEvictM, home, 0, encodeData(&n.coreScratch, pay), now)
			} else {
				n.send(msgEvictS, home, 0, encodeLine(&n.coreScratch, uint64(victim.Addr)), now)
			}
		}
	}
}

// localEvict applies an eviction notification at the local home inline,
// skipping the loopback EvictS/EvictM (and, for writebacks, the ack that
// exists only to let FlushAll wait for remote application — a synchronous
// local writeback needs none). The modeled timing matches the messaged
// path: the notification's loopback delay is charged before the DRAM
// write and the progress window sees the same delivery samples. Bails
// (returns false) as localMiss does: while a self-directed message is in
// flight, or when the directory step refuses the Local eviction (the line
// has an open transaction). writeback selects EvictM over EvictS.
// Called in the core context without the home lock; mu may or may not
// be held (FlushAll holds it, the post-miss victim path does not) — the
// function must therefore touch only home-guarded state and the atomic
// selfInflight word, never the mailbox or the pending slot.
func (n *Node) localEvict(victim cache.Victim, writeback bool, now arch.Cycles) bool {
	if n.selfInflight.Load() != 0 {
		return false
	}
	h := &n.home
	h.mu.Lock()
	defer h.mu.Unlock()
	if !writeback {
		if dl := h.lines[victim.Addr]; dl != nil {
			if res := directory.Step(dl.entry, &dl.tx, directory.Event{Kind: directory.EvictS, Src: n.tile, Local: true}); res.Refused {
				return false
			}
		}
		n.net.Observe(now + n.net.Delay(network.ClassMemory, n.tile, linePayloadLen, now))
		return true
	}
	dl := h.dirLine(victim.Addr)
	ev := directory.Event{Kind: directory.EvictM, Src: n.tile, Mask: victim.WriteMask, Data: true, Local: true}
	if res := directory.Step(dl.entry, &dl.tx, ev); res.Refused {
		return false
	}
	// The step's actions are OpAck and OpWriteDRAM.
	arr := now + n.net.Delay(network.ClassMemory, n.tile, dataPayloadLen+len(victim.Data), now)
	n.net.Observe(arr)
	h.dram.WriteLine(uint64(victim.Addr), victim.Data, arr)
	// Mirror the EvictAck delivery the messaged path would have produced.
	n.net.Observe(arr + n.net.Delay(network.ClassMemory, n.tile, linePayloadLen, arr))
	return true
}

func (n *Node) invL1(l cache.LineAddr) {
	if n.l1i != nil {
		n.l1i.Invalidate(l)
	}
	if n.l1d != nil {
		n.l1d.Invalidate(l)
	}
}

// handlePeekPoke serves functional memory access against the home backing
// store. Valid only pre-run or post-flush (no dirty cached copies).
func (n *Node) handlePeekPoke(pkt network.Packet) {
	p, err := decodePeek(pkt.Payload)
	must(err)
	line := uint64(p.addr) >> n.lineBits
	off := int(uint64(p.addr) & (uint64(n.lineSize) - 1))
	if off+int(p.n) > n.lineSize || off+len(p.data) > n.lineSize {
		panic(fmt.Sprintf("memsys: %s of %d bytes at offset %d runs past its line", msgName(pkt.Type), max(int(p.n), len(p.data)), off))
	}
	if pkt.Type == msgPoke {
		n.home.mu.Lock()
		n.home.dram.Poke(line, off, p.data)
		n.home.mu.Unlock()
		n.sendSrv(msgPokeAck, pkt.Src, pkt.Seq, nil, pkt.Time)
		return
	}
	buf := n.grantBuf[:p.n]
	n.home.mu.Lock()
	n.home.dram.Peek(line, off, buf)
	n.home.mu.Unlock()
	n.sendSrv(msgPeekRep, pkt.Src, pkt.Seq, encodePeek(&n.srvScratch, peekPayload{addr: p.addr, n: p.n, data: buf}), pkt.Time)
}

func (n *Node) wbAcked() {
	if n.outstandingWB.Add(-1) == 0 {
		select {
		case n.wbDrained <- struct{}{}:
		default:
		}
	}
}
