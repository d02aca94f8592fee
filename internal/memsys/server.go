package memsys

import (
	"errors"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/transport"
)

// coreWake is a deferred completion of the local core's outstanding miss:
// Serve delivers the reply packet only after flushing batched sends (see
// Serve). The core context applies the completion itself on wake.
type coreWake struct {
	done chan network.Packet
	pkt  network.Packet
}

// maxDrain bounds how many queued packets Serve processes before flushing
// batched sends and waking the local core, so a long inbound burst cannot
// starve either. Within the bound, replies produced while draining a burst
// coalesce into one transport operation per destination.
const maxDrain = 64

// Serve is the tile's memory server loop. It processes every memory-class
// packet addressed to this tile — directory requests for lines homed here,
// coherence commands for lines cached here, and replies that complete the
// local core's outstanding miss. It returns when the network closes. Its
// receives pump the tile's endpoint, so they also deliver the tile's
// other traffic classes to their sinks and queues (network.Net).
//
// The server never blocks on other tiles: home transactions are a state
// machine (blocking directory with per-line pending queues), so the
// distributed protocol cannot deadlock even while this tile's own core is
// blocked on a miss.
//
// The server does not own this tile's caches: the core context does (see
// DESIGN.md §13). Inv/Wb/Flush commands are applied directly only after
// claiming the free ownership word (an idle tile); against a mid-access
// core they are published to the intervention mailbox for the core to
// drain at release. Completion replies are handed to the blocked core,
// which installs the granted line itself after ownership returns with the
// hand-off.
//
// Outgoing messages are batched per destination and flushed when the
// inbound queue is momentarily empty (or maxDrain is hit) — always before
// Serve blocks again, which keeps the protocol live, and always before a
// waiting core is woken, which keeps per-sender FIFO intact: a woken core
// may immediately send new messages (a miss for a line whose flush reply
// is still sitting in the batch, say) that must not overtake them.
func (n *Node) Serve() {
	defer func() {
		// Teardown: unblock a core waiting on a completion that will never
		// arrive, and every request a still-running thread stages from
		// here on — each finds the channel closed and returns at once, so
		// Cluster.Close can wait for the thread. The request slot is dead
		// from here on.
		n.mu.Lock()
		n.pending = nil
		close(n.reqDone)
		n.mu.Unlock()
		close(n.stopped)
	}()
	var wake []coreWake
	var burst [maxDrain]network.Packet
	for {
		pkt, ok := n.net.Recv(network.ClassMemory)
		if !ok {
			n.flushSends()
			return
		}
		if done, rep := n.dispatch(pkt); done != nil {
			wake = append(wake, coreWake{done, rep})
		}
		if pkt.Src == n.tile {
			n.selfInflight.Add(-1)
		}
		// Drain whatever else the transport already delivered before
		// flushing and waking, bounded so a long inbound stream can starve
		// neither the flush nor the waiting core.
		k := n.net.TryRecvBurst(burst[1:])
		for i := 1; i <= k; i++ {
			if done, rep := n.dispatch(burst[i]); done != nil {
				wake = append(wake, coreWake{done, rep})
			}
			if burst[i].Src == n.tile {
				n.selfInflight.Add(-1)
			}
			burst[i] = network.Packet{}
		}
		n.flushSends()
		for i := range wake {
			wake[i].done <- wake[i].pkt
			wake[i] = coreWake{}
		}
		wake = wake[:0]
	}
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
func (n *Node) dispatch(pkt network.Packet) (chan network.Packet, network.Packet) {
	switch pkt.Type {
	case msgShReq, msgExReq:
		req, err := decodeReq(pkt.Payload)
		if err != nil {
			panic("memsys: " + err.Error())
		}
		n.home.mu.Lock()
		n.handleRequest(pkt, req)
		n.home.mu.Unlock()
	case msgEvictS:
		line, err := decodeLine(pkt.Payload)
		if err != nil {
			panic("memsys: " + err.Error())
		}
		n.home.mu.Lock()
		if dl := n.home.lines[cache.LineAddr(line)]; dl != nil {
			dl.entry.RemoveSharer(pkt.Src)
		}
		n.home.mu.Unlock()
	case msgEvictM:
		p, err := decodeData(pkt.Payload)
		if err != nil {
			panic("memsys: " + err.Error())
		}
		n.home.mu.Lock()
		n.handleEvictM(pkt, p)
		n.home.mu.Unlock()
	case msgInvReq, msgWbReq, msgFlushReq:
		n.queueIntervention(pkt)
	case msgInvRep, msgWbRep, msgFlushRep:
		p, err := decodeData(pkt.Payload)
		if err != nil {
			panic("memsys: " + err.Error())
		}
		n.home.mu.Lock()
		n.handleHomeReply(pkt, p)
		n.home.mu.Unlock()
	case msgShRep, msgExRep, msgUpgRep, msgPeekRep, msgPokeAck:
		return n.handoffCompletion(pkt)
	case msgEvictAck:
		n.wbAcked()
	case msgPeek, msgPoke:
		n.handlePeekPoke(pkt)
	case msgCkpt:
		n.runCtrl()
	}
	return nil, network.Packet{}
}

// handoffCompletion matches a completion reply against the outstanding
// request and returns the core's wake channel. For miss completions it
// also re-grants core-domain ownership (marking the word stCoreActive)
// before the reply is delivered: the core installs the line itself, and
// every intervention the server receives from this point on queues in the
// mailbox and is drained by the core after that installation — which is
// exactly arrival order, because the home serializes per line and sent
// the grant first. Stale replies (sequence mismatch) are dropped.
func (n *Node) handoffCompletion(pkt network.Packet) (chan network.Packet, network.Packet) {
	n.mu.Lock()
	pr := n.pending
	if pr == nil || pr.seq != pkt.Seq {
		n.mu.Unlock()
		return nil, network.Packet{}
	}
	n.pending = nil
	if !pr.peek && !pr.poke {
		// The word is free here: the core released it before blocking and
		// the server's own claims are transient under this mu.
		n.coreState.Store(stCoreActive)
	}
	done := pr.done
	n.mu.Unlock()
	return done, pkt
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

// handleRequest is the home's entry point for ShReq/ExReq. Called with
// the home locked, like every home handler below.
func (n *Node) handleRequest(pkt network.Packet, req reqPayload) {
	n.home.dirRequests++
	dl := n.home.dirLine(cache.LineAddr(req.line))
	if dl.busy != nil {
		dl.pending = append(dl.pending, pkt)
		return
	}
	n.startTxn(dl, pkt, req)
}

func (n *Node) startTxn(dl *dirLine, pkt network.Packet, req reqPayload) {
	h := &n.home
	e := dl.entry
	t := pkt.Time + n.cfg.Coherence.DirLatency
	h.homeSeq++
	tx := h.getTxn()
	buf := tx.data[:0]
	*tx = txn{
		homeSeq:   h.homeSeq,
		reqType:   pkt.Type,
		requester: pkt.Src,
		reqSeq:    pkt.Seq,
		reqMask:   req.mask,
		upgrade:   req.flags&flagUpgrade != 0,
		ifetch:    req.flags&flagIFetch != 0,
		line:      cache.LineAddr(req.line),
		latest:    t,
		data:      buf,
	}

	if pkt.Type == msgShReq {
		if e.Owner() != arch.InvalidTile && e.Owner() != pkt.Src {
			// Downgrade the Modified owner and collect its data.
			tx.waitData = true
			tx.dataFrom = e.Owner()
			n.sendSrv(msgWbReq, e.Owner(), tx.homeSeq, n.srvEncLine(req.line), t)
			dl.busy = tx
			return
		}
		// completeTxn adds the requester to the sharer set, handling any
		// Dir_iNB pointer reclaim (which requires another invalidation
		// round before the grant).
		n.completeTxn(dl, tx, t)
		return
	}

	// ExReq.
	if e.Owner() != arch.InvalidTile && e.Owner() != pkt.Src {
		tx.waitData = true
		tx.dataFrom = e.Owner()
		n.sendSrv(msgFlushReq, e.Owner(), tx.homeSeq, n.srvEncLine(req.line), t)
		dl.busy = tx
		return
	}
	// The upgrade is only valid if the requester still holds its S copy.
	tx.upgrade = tx.upgrade && e.ContainsSharer(pkt.Src)
	if e.InvTrap() {
		tx.trapExtra += n.cfg.Coherence.TrapLatency
		h.dirTraps++
	}
	e.ForEachSharer(func(s arch.TileID) {
		if s == pkt.Src {
			return
		}
		tx.waitAcks++
		h.invSent++
		n.sendSrv(msgInvReq, s, tx.homeSeq, n.srvEncLine(req.line), t)
	})
	e.ClearSharers()
	if tx.waitAcks > 0 {
		dl.busy = tx
		return
	}
	n.completeTxn(dl, tx, t)
}

// completeTxn grants the request, replies to the requester, and recycles
// the transaction record.
func (n *Node) completeTxn(dl *dirLine, tx *txn, now arch.Cycles) {
	h := &n.home
	e := dl.entry
	t := now
	if tx.latest > t {
		t = tx.latest
	}
	t += tx.trapExtra
	payload := dataPayload{
		line:   uint64(tx.line),
		mask:   e.LastWriterMask(),
		writer: e.LastWriter(),
	}

	if tx.reqType == msgShReq {
		// Track the requester as a sharer. A limited directory (Dir_iNB)
		// may reclaim a pointer: the displaced sharer must be invalidated
		// before the grant, or it would retain a copy the directory no
		// longer knows about — unreachable by later invalidations.
		evict, trap := e.AddSharer(tx.requester)
		if trap {
			tx.trapExtra += n.cfg.Coherence.TrapLatency
			h.dirTraps++
		}
		if evict != arch.InvalidTile && evict != tx.requester {
			tx.waitAcks++
			h.invSent++
			n.sendSrv(msgInvReq, evict, tx.homeSeq, n.srvEncLine(uint64(tx.line)), t)
			tx.latest = t
			dl.busy = tx // re-enters completeTxn when the ack arrives
			return
		}
		buf := n.grantBuf
		if tx.haveData {
			// Data flushed by the former owner; it is also written back
			// so every Shared copy is clean (MSI). The writeback occupies
			// the DRAM queue but is off the critical path.
			copy(buf, tx.data)
			h.dram.WriteLine(uint64(tx.line), tx.data, t)
		} else {
			t += h.dram.ReadLine(uint64(tx.line), buf, t)
		}
		payload.flags |= flagHasData
		payload.data = buf
		n.sendSrv(msgShRep, tx.requester, tx.reqSeq, n.srvEncData(payload), t)
	} else {
		e.SetLastWriter(tx.requester)
		e.SetLastWriterMask(tx.reqMask)
		if tx.upgrade && !tx.haveData {
			e.SetOwner(tx.requester)
			n.sendSrv(msgUpgRep, tx.requester, tx.reqSeq, n.srvEncData(payload), t)
		} else {
			buf := n.grantBuf
			if tx.haveData {
				// Dirty data moves owner to owner without touching DRAM.
				copy(buf, tx.data)
			} else {
				t += h.dram.ReadLine(uint64(tx.line), buf, t)
			}
			e.SetOwner(tx.requester)
			payload.flags |= flagHasData
			payload.data = buf
			n.sendSrv(msgExRep, tx.requester, tx.reqSeq, n.srvEncData(payload), t)
		}
	}
	dl.busy = nil
	h.putTxn(tx)
	n.popPending(dl)
}

// popPending starts the next queued request for the line, if any.
func (n *Node) popPending(dl *dirLine) {
	for dl.busy == nil && len(dl.pending) > 0 {
		pkt := dl.pending[0]
		dl.pending = dl.pending[1:]
		req, err := decodeReq(pkt.Payload)
		if err != nil {
			panic("memsys: " + err.Error())
		}
		n.startTxn(dl, pkt, req)
	}
}

// handleHomeReply processes InvRep/WbRep/FlushRep for an in-flight
// transaction. Stale replies (transaction already satisfied by a crossing
// EvictM) are dropped by sequence-number mismatch.
func (n *Node) handleHomeReply(pkt network.Packet, p dataPayload) {
	dl := n.home.lines[cache.LineAddr(p.line)]
	if dl == nil || dl.busy == nil || dl.busy.homeSeq != pkt.Seq {
		return // stale reply from a completed transaction
	}
	tx := dl.busy
	if pkt.Time > tx.latest {
		tx.latest = pkt.Time
	}
	e := dl.entry
	switch pkt.Type {
	case msgInvRep:
		tx.waitAcks--
		if p.flags&flagHasData != 0 {
			// Defensive: an invalidated copy turned out Modified.
			n.home.dram.WriteLine(p.line, p.data, pkt.Time)
		}
	case msgWbRep:
		if p.flags&flagNotPresent != 0 {
			// Per-sender FIFO guarantees the owner's EvictM reaches us
			// before a not-present WbRep; this reply cannot match an
			// open transaction.
			panic("memsys: WbRep(notPresent) for open transaction")
		}
		tx.waitData = false
		tx.haveData = true
		tx.data = append(tx.data[:0], p.data...)
		tx.dataMask = p.mask
		e.SetOwner(arch.InvalidTile)
		// The former owner retains a Shared copy. An M line has no other
		// sharers, so the pointer set cannot overflow here; handle an
		// eviction anyway so a future protocol variant cannot silently
		// leak an untracked sharer.
		if evict, _ := e.AddSharer(pkt.Src); evict != arch.InvalidTile && evict != pkt.Src {
			tx.waitAcks++
			n.home.invSent++
			n.sendSrv(msgInvReq, evict, tx.homeSeq, n.srvEncLine(p.line), pkt.Time)
		}
		e.SetLastWriter(pkt.Src)
		e.SetLastWriterMask(p.mask)
	case msgFlushRep:
		if p.flags&flagNotPresent != 0 {
			panic("memsys: FlushRep(notPresent) for open transaction")
		}
		tx.waitData = false
		tx.haveData = true
		tx.data = append(tx.data[:0], p.data...)
		tx.dataMask = p.mask
		e.SetOwner(arch.InvalidTile)
		e.SetLastWriter(pkt.Src)
		e.SetLastWriterMask(p.mask)
	}
	if tx.waitAcks == 0 && !tx.waitData {
		n.completeTxn(dl, tx, tx.latest)
	}
}

// handleEvictM applies a dirty writeback. If a transaction is waiting for
// a flush from the evicting owner, the writeback doubles as the flush data
// (the owner's not-present reply that follows is dropped as stale).
func (n *Node) handleEvictM(pkt network.Packet, p dataPayload) {
	n.sendSrv(msgEvictAck, pkt.Src, pkt.Seq, n.srvEncLine(p.line), pkt.Time)
	dl := n.home.dirLine(cache.LineAddr(p.line))
	e := dl.entry
	n.home.dram.WriteLine(p.line, p.data, pkt.Time)
	if dl.busy != nil && dl.busy.waitData && dl.busy.dataFrom == pkt.Src {
		tx := dl.busy
		tx.waitData = false
		tx.haveData = true
		tx.data = append(tx.data[:0], p.data...)
		tx.dataMask = p.mask
		if pkt.Time > tx.latest {
			tx.latest = pkt.Time
		}
		e.SetOwner(arch.InvalidTile)
		e.SetLastWriter(pkt.Src)
		e.SetLastWriterMask(p.mask)
		if tx.waitAcks == 0 {
			n.completeTxn(dl, tx, tx.latest)
		}
		return
	}
	if e.Owner() == pkt.Src {
		e.SetOwner(arch.InvalidTile)
		e.SetLastWriter(pkt.Src)
		e.SetLastWriterMask(p.mask)
	}
}

// applyIntervention serves one Inv/Wb/Flush command against the local
// caches. It runs in whichever context owns the core domain at the time:
// the core context draining its mailbox (srv == false, immediate replies)
// or the server goroutine while the core is parked (srv == true, batched
// replies flushed before the core can wake). Called with mu held.
func (n *Node) applyIntervention(pkt network.Packet, srv bool) {
	line, err := decodeLine(pkt.Payload)
	if err != nil {
		panic("memsys: " + err.Error())
	}
	l := cache.LineAddr(line)
	t := pkt.Time + n.l2.HitLatency()
	pay := dataPayload{line: line, writer: n.tile}

	var typ uint8
	switch pkt.Type {
	case msgInvReq:
		typ = msgInvRep
		if v, ok := n.l2.Invalidate(l); ok {
			if v.State == cache.Modified {
				// Defensive: should have been a FlushReq.
				pay.flags |= flagHasData
				pay.mask = v.WriteMask
				pay.data = v.Data
			}
			n.invL1(l)
			n.markInvalidated(l)
		} else {
			pay.flags |= flagNotPresent
		}
	case msgWbReq:
		typ = msgWbRep
		if ln, ok := n.l2.Peek(l); ok {
			pay.flags |= flagHasData
			pay.mask = ln.WriteMask()
			pay.data = ln.Data() // copied by the payload encoder below
			n.l2.Downgrade(l)
		} else {
			pay.flags |= flagNotPresent
		}
	case msgFlushReq:
		typ = msgFlushRep
		if v, ok := n.l2.Invalidate(l); ok {
			pay.flags |= flagHasData
			pay.mask = v.WriteMask
			pay.data = v.Data
			n.invL1(l)
			n.markInvalidated(l)
		} else {
			pay.flags |= flagNotPresent
		}
	default:
		panic("memsys: unexpected intervention " + msgName(pkt.Type))
	}
	if srv {
		n.sendSrv(typ, pkt.Src, pkt.Seq, n.srvEncData(pay), t)
	} else {
		n.send(typ, pkt.Src, pkt.Seq, n.coreEncData(pay), t)
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

// fillL1 installs a freshly read line into the appropriate L1.
func (n *Node) fillL1(line cache.LineAddr, ifetch bool, data []byte) {
	if ifetch {
		if n.l1i != nil {
			n.l1i.Insert(line, cache.Shared, data)
		}
		return
	}
	if n.l1d != nil {
		n.l1d.Insert(line, cache.Shared, data)
	}
}

// classify determines the miss kind (paper §4.4 / Figure 8). writer and
// wmask are the line's last writer and its accumulated write mask as
// granted by the home.
func (n *Node) classify(line cache.LineAddr, mask uint64, writer arch.TileID, wmask uint64) stats.MissKind {
	if _, seen := n.everAccessed[line]; !seen {
		return stats.MissCold
	}
	if _, inv := n.invalidated[line]; inv {
		if writer != n.tile && writer != arch.InvalidTile && wmask&mask != 0 {
			return stats.MissTrueSharing
		}
		return stats.MissFalseSharing
	}
	return stats.MissCapacity
}

// processVictim handles an L2 eviction: L1 inclusion and the home
// notification (writeback for Modified victims). It runs in the core
// context, so the notification is sent immediately — per-sender FIFO
// orders it ahead of any later miss the core issues for the same line.
// Locally homed victims are applied inline when safe (localEvict).
func (n *Node) processVictim(victim cache.Victim, now arch.Cycles) {
	n.invL1(victim.Addr)
	home := n.homeOf(victim.Addr)
	if home == n.tile && n.localEvict(victim, now) {
		return
	}
	if victim.State == cache.Modified {
		n.outstandingWB.Add(1)
		pay := dataPayload{line: uint64(victim.Addr), mask: victim.WriteMask, writer: n.tile, flags: flagHasData, data: victim.Data}
		n.send(msgEvictM, home, 0, n.coreEncData(pay), now)
	} else {
		n.send(msgEvictS, home, 0, n.coreEncLine(uint64(victim.Addr)), now)
	}
}

// localEvict applies an eviction notification at the local home inline,
// skipping the loopback EvictS/EvictM (and, for writebacks, the ack that
// exists only to let FlushAll wait for remote application — a synchronous
// local writeback needs none). The modeled timing matches the messaged
// path: the notification's loopback delay is charged before the DRAM
// write and the progress window sees the same delivery samples. Bails
// (returns false) under the same ordering guards as localMiss: any
// self-directed message in flight, or an open transaction on the line.
// Called in the core context without the home lock; mu may or may not
// be held (FlushAll holds it, the post-miss victim path does not) — the
// function must therefore touch only home-guarded state and the atomic
// selfInflight word, never the mailbox or the pending slot.
func (n *Node) localEvict(victim cache.Victim, now arch.Cycles) bool {
	if n.selfInflight.Load() != 0 {
		return false
	}
	h := &n.home
	h.mu.Lock()
	defer h.mu.Unlock()
	if victim.State != cache.Modified {
		// Clean eviction: drop the sharer bit, as dispatch(msgEvictS) would.
		if dl := h.lines[victim.Addr]; dl != nil {
			if dl.busy != nil {
				return false
			}
			dl.entry.RemoveSharer(n.tile)
		}
		n.net.Observe(now + n.net.Delay(network.ClassMemory, n.tile, linePayloadLen, now))
		return true
	}
	dl := h.dirLine(victim.Addr)
	if dl.busy != nil {
		return false
	}
	arr := now + n.net.Delay(network.ClassMemory, n.tile, dataPayloadLen+len(victim.Data), now)
	n.net.Observe(arr)
	h.dram.WriteLine(uint64(victim.Addr), victim.Data, arr)
	e := dl.entry
	if e.Owner() == n.tile {
		e.SetOwner(arch.InvalidTile)
		e.SetLastWriter(n.tile)
		e.SetLastWriterMask(victim.WriteMask)
	}
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

func (n *Node) markInvalidated(l cache.LineAddr) {
	n.invalidated[l] = struct{}{}
}

// handlePeekPoke serves functional memory access against the home backing
// store. Valid only pre-run or post-flush (no dirty cached copies).
func (n *Node) handlePeekPoke(pkt network.Packet) {
	p, err := decodePeek(pkt.Payload)
	if err != nil {
		panic("memsys: " + err.Error())
	}
	line := uint64(p.addr) >> n.lineBits
	off := int(uint64(p.addr) & (uint64(n.lineSize) - 1))
	if pkt.Type == msgPoke {
		n.home.mu.Lock()
		n.home.dram.Poke(line, off, p.data)
		n.home.mu.Unlock()
		n.sendSrv(msgPokeAck, pkt.Src, pkt.Seq, nil, pkt.Time)
		return
	}
	buf := make([]byte, p.n)
	n.home.mu.Lock()
	n.home.dram.Peek(line, off, buf)
	n.home.mu.Unlock()
	n.sendSrv(msgPeekRep, pkt.Src, pkt.Seq, n.srvEncPeek(peekPayload{addr: p.addr, n: p.n, data: buf}), pkt.Time)
}

func (n *Node) wbAcked() {
	if n.outstandingWB.Add(-1) == 0 {
		select {
		case n.wbDrained <- struct{}{}:
		default:
		}
	}
}
