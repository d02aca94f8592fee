package memsys

import (
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/directory"
	"repro/internal/network"
)

// AccessResult reports the modeled timing of one memory reference.
type AccessResult struct {
	// Latency is the end-to-end modeled latency in cycles.
	Latency arch.Cycles
	// L2Misses counts line segments that left the tile.
	L2Misses int
}

// Read performs an application load of len(buf) bytes at addr, filling buf
// with the loaded data. now is the core's current clock. The call blocks
// until the coherence protocol delivers the data.
func (n *Node) Read(addr arch.Addr, buf []byte, now arch.Cycles) AccessResult {
	return n.access(addr, buf, false, false, now)
}

// Write performs an application store of buf at addr.
func (n *Node) Write(addr arch.Addr, buf []byte, now arch.Cycles) AccessResult {
	return n.access(addr, buf, true, false, now)
}

// Fetch models an instruction fetch of nbytes at pc through the L1I. The
// fetched bytes land in a per-node scratch buffer (their values are not
// returned): the access blocks for its duration and the core context
// issues one access at a time, so the buffer is reused across fetches.
func (n *Node) Fetch(pc arch.Addr, nbytes int, now arch.Cycles) AccessResult {
	if cap(n.fetchBuf) < nbytes {
		n.fetchBuf = make([]byte, nbytes)
	}
	return n.access(pc, n.fetchBuf[:nbytes], false, true, now)
}

// access performs a reference. Accesses contained in one cache line — all
// of the fixed-width Load64/Store64/Load32/Store32 helpers and every
// aligned instruction fetch — skip the segment-split loop entirely;
// straddling references split into per-line segments.
//
//graphite:hotpath
func (n *Node) access(addr arch.Addr, buf []byte, isWrite, ifetch bool, now arch.Cycles) AccessResult {
	if int(uint64(addr)&(uint64(n.lineSize)-1))+len(buf) <= n.lineSize {
		return n.accessLine(addr, buf, isWrite, ifetch, now)
	}
	var res AccessResult
	off := 0
	for off < len(buf) {
		lineStart := int(uint64(addr+arch.Addr(off)) & (uint64(n.lineSize) - 1))
		seg := n.lineSize - lineStart
		if seg > len(buf)-off {
			seg = len(buf) - off
		}
		r := n.accessLine(addr+arch.Addr(off), buf[off:off+seg], isWrite, ifetch, now+res.Latency)
		res.Latency += r.Latency
		res.L2Misses += r.L2Misses
		off += seg
	}
	return res
}

// accessLine performs one within-line reference. The hit path is
// lock-free: within a coroutine turn it takes no synchronization at all —
// the turn holds the tile-local ownership word — and a plain goroutine
// pays one claim CAS and one release CAS on it. Neither takes a mutex or
// shares state with the server. Misses additionally take mu to stage the
// outstanding request and to hand the domain over for the blocking wait.
//
//graphite:hotpath
func (n *Node) accessLine(addr arch.Addr, seg []byte, isWrite, ifetch bool, now arch.Cycles) AccessResult {
	if n.turn {
		return n.accessOwned(addr, seg, isWrite, ifetch, now)
	}
	n.coreClaim()
	res := n.accessOwned(addr, seg, isWrite, ifetch, now)
	n.coreRelease()
	return res
}

// accessOwned is accessLine's body, running with the core domain claimed.
//
//graphite:hotpath
func (n *Node) accessOwned(addr arch.Addr, seg []byte, isWrite, ifetch bool, now arch.Cycles) AccessResult {
	line := n.lineOf(addr)
	off := int(uint64(addr) & (uint64(n.lineSize) - 1))

	if !isWrite {
		if !ifetch {
			n.st.Loads++
		}
		// Loads: L1 first.
		l1 := n.l1d
		if ifetch {
			l1 = n.l1i
		}
		if l1 != nil {
			if ln, ok := l1.Lookup(line); ok {
				copy(seg, ln.Data()[off:off+len(seg)])
				return AccessResult{Latency: l1.HitLatency()}
			}
		}
		// L1 miss (or no L1): L2.
		if ln, ok := n.l2.Lookup(line); ok {
			copy(seg, ln.Data()[off:off+len(seg)])
			lat := n.l2.HitLatency()
			if l1 != nil {
				lat += l1.HitLatency()
				l1.Insert(line, cache.Shared, ln.Data()) // silent L1 fill
			}
			return AccessResult{Latency: lat}
		}
		// L2 miss: fetch a Shared copy from home.
		return n.miss(line, off, seg, false, ifetch, now)
	}

	// Stores: need Modified at L2 (write-through L1).
	n.st.Stores++
	if ln, ok := n.l2.Lookup(line); ok {
		if ln.State() == cache.Modified {
			n.applyWrite(ln, line, off, seg, cache.WordMask(off, len(seg), n.lineSize))
			return AccessResult{Latency: n.l2.HitLatency()}
		}
		// Shared: upgrade.
		return n.miss(line, off, seg, true, false, now)
	}
	// Write miss.
	return n.miss(line, off, seg, true, false, now)
}

// miss issues the coherence request, releases the core domain for the
// wait, and applies the reply in the core context on wake.
// Queued interventions are drained before the request leaves the tile, so
// the home observes our reply to any earlier intervention before our
// request (the ordering argument of DESIGN.md §13).
func (n *Node) miss(line cache.LineAddr, off int, seg []byte, isWrite, ifetch bool, now arch.Cycles) AccessResult {
	mask := cache.WordMask(off, len(seg), n.lineSize)

	n.mu.Lock()
	n.drainLocked(false)
	if n.pending != nil {
		n.mu.Unlock()
		panic("memsys: concurrent outstanding requests on one tile")
	}
	lookup := n.l2.HitLatency() // tag lookup before going off-tile
	if !isWrite && !ifetch && n.l1d != nil {
		lookup += n.l1d.HitLatency()
	}
	if ifetch && n.l1i != nil {
		lookup += n.l1i.HitLatency()
	}
	sendAt := now + lookup
	req := reqPayload{line: uint64(line), mask: mask}
	typ := msgShReq
	if isWrite {
		typ = msgExReq
		if ln, ok := n.l2.Peek(line); ok && ln.State() == cache.Shared {
			req.flags |= flagUpgrade
		}
	} else if ifetch {
		req.flags |= flagIFetch
	}

	if n.homeOf(line) == n.tile {
		if res, ok := n.localMiss(typ, req, off, seg, isWrite, ifetch, now, sendAt, lookup); ok {
			n.mu.Unlock()
			return res
		}
	}

	n.seq++
	// Reuse the tile's single request slot: the previous request fully
	// completed (pending was nil).
	pr := &n.reqSlot
	*pr = pendingReq{
		seq:     n.seq,
		line:    line,
		isWrite: isWrite,
		ifetch:  ifetch,
		off:     off,
		mask:    mask,
		sentAt:  sendAt,
		park:    n.park,
	}
	if isWrite {
		pr.wbuf = seg
	} else {
		pr.rbuf = seg
	}
	n.pending = pr
	// Release the core domain for the wait: the server must be able to
	// answer interventions against our caches while we are parked. The
	// server returns ownership at completion hand-off (re-marking the word
	// stCoreActive under mu) before it wakes us, so interventions arriving
	// after the grant queue behind our install. A coroutine's turn hands
	// the word over with it.
	turn := n.turn
	n.turn = false
	n.coreState.Store(0)
	home := n.homeOf(line)
	n.send(typ, home, pr.seq, encodeReq(&n.coreScratch, req), sendAt)
	n.mu.Unlock()

	if !n.await(pr) {
		// Teardown: the server stopped without the completion hand-off.
		// A request staged after the stop is still in the slot — clear
		// it, or a thread that keeps running into more accesses would
		// trip the concurrent-outstanding-requests check on a phantom
		// request. Then re-mark the word owned (the enclosing accessLine
		// or turn releases it) and report the lookup cost only.
		n.clearStaged(pr)
		n.coreState.Store(stCoreActive)
		n.turn = turn
		return AccessResult{Latency: lookup, L2Misses: 1}
	}
	// The hand-off re-granted ownership before the wake (which publishes
	// the server's writes): the core context owns the domain again and
	// applies the completion lock-free. A coroutine's turn goes on with
	// it, after the interventions that queued behind the grant.
	arrival := n.finishMiss(pr, pr.reply)
	if turn {
		n.turn = true
		if n.coreState.Load() != stCoreActive {
			n.claimSlow() // drain what queued behind the grant
		}
	}
	lat := arrival - now
	if lat < lookup {
		lat = lookup
	}
	// Fill/install cost at the end of the miss.
	lat += n.l2.HitLatency()
	return AccessResult{Latency: lat, L2Misses: 1}
}

// grantInfo is one coherence grant as the core context applies it,
// whether it arrived as a reply packet or was produced by the local-home
// shortcut.
type grantInfo struct {
	typ     uint8 // msgShRep, msgExRep, or msgUpgRep
	writer  arch.TileID
	wmask   uint64
	data    []byte
	arrival arch.Cycles
	sentAt  arch.Cycles
}

// finishMiss applies a completion reply in the core context and returns
// its arrival. It runs lock-free — ownership of the core domain returned
// with the hand-off.
func (n *Node) finishMiss(pr *pendingReq, pkt network.Packet) arch.Cycles {
	p, err := decodeData(pkt.Payload)
	must(err)
	seg := pr.rbuf
	if pr.isWrite {
		seg = pr.wbuf
	}
	n.applyGrant(pr.line, pr.off, seg, pr.mask, pr.isWrite, pr.ifetch, grantInfo{
		typ:     pkt.Type,
		writer:  p.writer,
		wmask:   p.mask,
		data:    p.data,
		arrival: pkt.Time,
		sentAt:  pr.sentAt,
	})
	return pkt.Time
}

// applyGrant installs a granted line, performs the pending operation,
// classifies the miss, and updates the core-owned statistics.
func (n *Node) applyGrant(line cache.LineAddr, off int, seg []byte, mask uint64, isWrite, ifetch bool, g grantInfo) {
	switch g.typ {
	case msgUpgRep:
		ln, ok := n.l2.Peek(line)
		if !ok {
			// Home serializes per line: nothing can invalidate our copy
			// between the upgrade grant and its arrival (an invalidation
			// racing the upgrade demotes it to a full ExRep instead).
			panic("memsys: upgrade grant for absent line")
		}
		ln.SetState(cache.Modified)
		n.applyWrite(ln, line, off, seg, mask)
		n.st.Upgrades++
	case msgShRep, msgExRep:
		st := cache.Shared
		if g.typ == msgExRep {
			st = cache.Modified
		}
		if victim, evicted := n.l2.Insert(line, st, g.data); evicted {
			n.processVictim(victim, g.arrival)
		}
		ln, _ := n.l2.Peek(line)
		if isWrite {
			n.applyWrite(ln, line, off, seg, mask)
		} else {
			copy(seg, ln.Data()[off:off+len(seg)])
			n.fillL1(line, ifetch, ln.Data())
		}
		if ifetch {
			n.st.IFetchMisses++
		} else {
			kind := n.classify(line, mask, g.writer, g.wmask)
			n.st.MissBy[kind]++
			lat := g.arrival - g.sentAt
			if lat < 0 {
				lat = 0
			}
			n.st.MemLatencyTotal += lat
			n.st.MemAccesses++
		}
		n.lineHist[line] = lineSeen
	default:
		panic("memsys: unexpected completion " + msgName(g.typ))
	}
}

// localMiss is the local-home shortcut: when this tile is the line's home,
// the request it would send (typ, req) is stepped through the directory
// and granted inline — no loopback messages, no server round trip, no
// wake — while charging exactly the modeled timing the messaged loopback
// would have had (request and reply delays, the directory latency, the
// DRAM access) and feeding the same timestamps to the progress window.
// ok is false when the messaged path must run instead: while a
// self-directed message is in flight (its ordering — an EvictM's data
// landing, an EvictS clearing a sharer bit — must not be jumped), or when
// the step refuses a Local request (directory.Event.Local).
//
// Called with mu held by the core context; takes the home lock (mu →
// home.mu nests only here and in the local evictions, never in reverse).
func (n *Node) localMiss(typ uint8, req reqPayload, off int, seg []byte, isWrite, ifetch bool, now, sendAt, lookup arch.Cycles) (AccessResult, bool) {
	if n.selfInflight.Load() != 0 {
		return AccessResult{}, false
	}
	h := &n.home
	h.mu.Lock()
	line := cache.LineAddr(req.line)
	dl := h.dirLine(line)
	ev := n.reqEvent(typ, n.tile, req)
	ev.Local = true
	res := directory.Step(dl.entry, &dl.tx, ev)
	if res.Refused {
		h.mu.Unlock()
		return AccessResult{}, false
	}

	// From here the transaction completes locally. Replicate the messaged
	// loopback timing: request delay, directory latency, DRAM, reply
	// delay — and the progress-window samples the two deliveries would
	// have contributed.
	h.dirRequests++
	reqArr := sendAt + n.net.Delay(network.ClassMemory, n.tile, reqPayloadLen, sendAt)
	n.net.Observe(reqArr)
	t := reqArr + n.cfg.Coherence.DirLatency
	g := grantInfo{writer: res.Writer, wmask: res.WMask, sentAt: sendAt}
	for _, a := range res.Actions() {
		switch a.Op {
		case directory.OpReadDRAM:
			t += h.dram.ReadLine(uint64(line), n.localGrant, t)
			g.data = n.localGrant
		case directory.OpGrantSh, directory.OpGrantEx, directory.OpGrantUpg:
			g.typ = msgShRep + uint8(a.Op-directory.OpGrantSh)
		}
	}
	repArr := t + n.net.Delay(network.ClassMemory, n.tile, dataPayloadLen+len(g.data), t)
	n.net.Observe(repArr)
	h.mu.Unlock()

	g.arrival = repArr
	n.applyGrant(line, off, seg, req.mask, isWrite, ifetch, g)
	lat := repArr - now
	if lat < lookup {
		lat = lookup
	}
	lat += n.l2.HitLatency()
	return AccessResult{Latency: lat, L2Misses: 1}, true
}

// FlushAll writes back every Modified line and drops all cached state,
// then waits until every writeback has been applied at its home. It is
// called at simulation end so that Peek observes final memory contents
// (and, like everything else here, it exercises the protocol itself).
// FlushAll runs in the core context; holding mu throughout excludes the
// server's domain claims (which also run under mu), so the ownership word
// itself need not change hands.
func (n *Node) FlushAll(now arch.Cycles) {
	n.mu.Lock()
	n.drainLocked(false)
	// Collect victims first (ForEach forbids mutation during the visit),
	// then write back and invalidate line by line. The line data is
	// encoded straight out of cache storage — the wire frame copies it —
	// so no per-line clone is needed.
	n.flushMeta = n.flushMeta[:0]
	n.l2.ForEach(func(l cache.Line) {
		n.flushMeta = append(n.flushMeta, flushVictim{addr: l.Addr(), state: l.State()})
	})
	for _, v := range n.flushMeta {
		ln, _ := n.l2.Peek(v.addr)
		n.processVictim(cache.Victim{Addr: v.addr, State: v.state, WriteMask: ln.WriteMask(), Data: ln.Data()}, now)
		n.l2.Invalidate(v.addr)
	}
	n.mu.Unlock()

	for n.outstandingWB.Load() > 0 {
		select {
		case <-n.wbDrained:
		case <-n.stopped:
			return
		}
	}
}

// Peek reads len(buf) bytes functionally (no timing, no caching) from the
// simulated address space. Valid only pre-run or post-FlushAll.
func (n *Node) Peek(addr arch.Addr, buf []byte) { n.functional(msgPeek, addr, buf) }

// Poke writes buf functionally into the simulated address space. Valid
// only pre-run or post-FlushAll.
func (n *Node) Poke(addr arch.Addr, buf []byte) { n.functional(msgPoke, addr, buf) }

// functional serves a Peek or Poke (typ) one line segment at a time.
func (n *Node) functional(typ uint8, addr arch.Addr, buf []byte) {
	for off := 0; off < len(buf); {
		a := addr + arch.Addr(off)
		seg := min(n.lineSize-int(uint64(a)&(uint64(n.lineSize)-1)), len(buf)-off)
		n.functionalLine(typ, a, buf[off:off+seg])
		off += seg
	}
}

// functionalLine waits on the pending-request slot like a miss but never
// touches the caches, so it does not transfer core-domain ownership: a
// parked tile stays parked and a running one keeps its claim.
func (n *Node) functionalLine(typ uint8, addr arch.Addr, buf []byte) {
	n.mu.Lock()
	if n.pending != nil {
		n.mu.Unlock()
		panic("memsys: " + msgName(typ) + " with outstanding request")
	}
	n.seq++
	pr := &n.reqSlot
	*pr = pendingReq{seq: n.seq, functional: true, park: n.park}
	n.pending = pr
	p := peekPayload{addr: addr, n: uint32(len(buf))}
	if typ == msgPoke {
		p.data = buf
	}
	n.send(typ, n.homeOf(n.lineOf(addr)), pr.seq, encodePeek(&n.coreScratch, p), 0)
	n.mu.Unlock()
	if !n.await(pr) {
		n.clearStaged(pr) // teardown (see the miss path)
		return
	}
	if typ == msgPeek {
		p, err := decodePeek(pr.reply.Payload)
		must(err)
		copy(buf, p.data)
	}
}

// clearStaged empties the request slot of a request the torn-down server
// will never complete.
func (n *Node) clearStaged(pr *pendingReq) {
	n.mu.Lock()
	if n.pending == pr {
		n.pending = nil
	}
	n.mu.Unlock()
}

// AddSyncWait credits stall cycles to the tile's stat record. Core context
// only (the counters are core-owned).
func (n *Node) AddSyncWait(c arch.Cycles) {
	n.st.SyncWaitCycles += c
}

// SetFinal records the tile's final clock and core-model counters into the
// stats record before collection. Core context only.
func (n *Node) SetFinal(cycles arch.Cycles, instructions, branches, mispredicts uint64, compute, memStall arch.Cycles) {
	n.st.Cycles = cycles
	n.st.Instructions = instructions
	n.st.Branches = branches
	n.st.BranchMispredict = mispredicts
	n.st.ComputeCycles = compute
	n.st.MemStallCycles = memStall
}
