package memsys

import (
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/config"
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
// lock-free: one claim CAS and one release CAS on the tile-local
// ownership word are the entire synchronization cost of an L1 or L2 hit —
// no mutex, no shared-state round trip with the server goroutine. Misses
// additionally take mu to stage the outstanding request and to hand the
// domain over for the blocking wait.
//
//graphite:hotpath
func (n *Node) accessLine(addr arch.Addr, seg []byte, isWrite, ifetch bool, now arch.Cycles) AccessResult {
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
// blocking wait, and applies the reply in the core context on wake.
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

	if n.homeOf(line) == n.tile {
		if res, ok := n.localMiss(line, off, seg, mask, isWrite, ifetch, now, sendAt, lookup); ok {
			n.mu.Unlock()
			return res
		}
	}

	n.seq++
	// Reuse the tile's single request slot and completion channel: the
	// previous request fully completed (pending was nil) and the core
	// context drained reqDone before issuing this access.
	pr := &n.reqSlot
	*pr = pendingReq{
		seq:     n.seq,
		line:    line,
		isWrite: isWrite,
		ifetch:  ifetch,
		off:     off,
		mask:    mask,
		sentAt:  sendAt,
		done:    n.reqDone,
	}
	req := reqPayload{line: uint64(line), mask: mask}
	typ := msgShReq
	if isWrite {
		typ = msgExReq
		pr.wbuf = seg
		if ln, ok := n.l2.Peek(line); ok && ln.State() == cache.Shared {
			req.flags |= flagUpgrade
		}
	} else {
		pr.rbuf = seg
		if ifetch {
			req.flags |= flagIFetch
		}
	}
	n.pending = pr
	// Release the core domain for the blocking wait: the server must be
	// able to answer interventions against our caches while we sleep. The
	// server returns ownership at completion hand-off (re-marking the word
	// stCoreActive under mu) before the reply is delivered on pr.done, so
	// interventions arriving after the grant queue behind our install.
	n.coreState.Store(0)
	home := n.homeOf(line)
	n.send(typ, home, pr.seq, n.coreEncReq(req), sendAt)
	n.mu.Unlock()

	pkt, ok := <-pr.done
	if !ok {
		// Teardown while blocked: the server exited without the completion
		// hand-off, so the staged request is still in the slot — clear it,
		// or a thread that keeps running into more accesses would trip the
		// concurrent-outstanding-requests check on a phantom request. Then
		// re-mark the word owned (the enclosing accessLine releases it) and
		// report the lookup cost only.
		n.mu.Lock()
		if n.pending == pr {
			n.pending = nil
		}
		n.mu.Unlock()
		n.coreState.Store(stCoreActive)
		return AccessResult{Latency: lookup, L2Misses: 1}
	}
	// The hand-off re-granted ownership before the channel send (which
	// publishes the server's writes): the core context owns the domain
	// again and applies the completion lock-free.
	info := n.finishMiss(pr, pkt)
	lat := info.arrival - now
	if lat < lookup {
		lat = lookup
	}
	// Fill/install cost at the end of the miss.
	lat += n.l2.HitLatency()
	return AccessResult{Latency: lat, L2Misses: 1}
}

// missInfo is finishMiss's summary of a completed miss.
type missInfo struct {
	arrival arch.Cycles
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

// finishMiss applies a completion reply in the core context. It runs
// lock-free — ownership of the core domain returned with the hand-off.
func (n *Node) finishMiss(pr *pendingReq, pkt network.Packet) missInfo {
	p, err := decodeData(pkt.Payload)
	if err != nil {
		panic("memsys: " + err.Error())
	}
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
	return missInfo{arrival: pkt.Time}
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
		delete(n.invalidated, line)
		n.everAccessed[line] = struct{}{}
	default:
		panic("memsys: unexpected completion " + msgName(g.typ))
	}
}

// localMiss is the local-home shortcut: when this tile is the line's home
// and the transaction needs nothing from other tiles, the directory is
// consulted and the grant produced inline — no loopback messages, no
// server round trip, no wake — while charging exactly the modeled timing
// the messaged loopback would have had (request and reply delays, the
// directory latency, the DRAM access) and feeding the same timestamps to
// the progress window. ok is false when the messaged path must run
// instead:
//
//   - a self-directed message is still in flight (its ordering — an
//     EvictM's data landing, an EvictS clearing a sharer bit — must not
//     be jumped);
//   - the line has an open transaction, a Modified owner, or (for
//     writes) foreign sharers to invalidate;
//   - the directory is not the full-map kind (limited directories may
//     evict pointers or trap on Add, which needs the full state machine).
//
// Called with mu held by the core context; takes the home lock (mu →
// home.mu nests only here and in the local evictions, never in reverse).
func (n *Node) localMiss(line cache.LineAddr, off int, seg []byte, mask uint64, isWrite, ifetch bool, now, sendAt, lookup arch.Cycles) (AccessResult, bool) {
	if n.selfInflight.Load() != 0 || n.cfg.Coherence.Kind != config.FullMap {
		return AccessResult{}, false
	}
	h := &n.home
	h.mu.Lock()
	dl := h.dirLine(line)
	e := dl.entry
	if dl.busy != nil || e.Owner() != arch.InvalidTile {
		h.mu.Unlock()
		return AccessResult{}, false
	}
	upgrade := false
	if isWrite {
		foreign := false
		e.ForEachSharer(func(s arch.TileID) {
			if s != n.tile {
				foreign = true
			}
		})
		if foreign {
			h.mu.Unlock()
			return AccessResult{}, false
		}
		if ln, ok := n.l2.Peek(line); ok && ln.State() == cache.Shared {
			upgrade = e.ContainsSharer(n.tile)
		}
	}

	// From here the transaction completes locally. Replicate the messaged
	// loopback timing: request delay, directory latency, DRAM, reply
	// delay — and the progress-window samples the two deliveries would
	// have contributed.
	h.dirRequests++
	reqArr := sendAt + n.net.Delay(network.ClassMemory, n.tile, reqPayloadLen, sendAt)
	n.net.Observe(reqArr)
	t := reqArr + n.cfg.Coherence.DirLatency
	writer, wmask := e.LastWriter(), e.LastWriterMask()

	g := grantInfo{writer: writer, wmask: wmask, sentAt: sendAt}
	repLen := dataPayloadLen
	if !isWrite {
		e.AddSharer(n.tile) // full map: never evicts, never traps
		t += h.dram.ReadLine(uint64(line), n.localGrant, t)
		g.typ = msgShRep
		g.data = n.localGrant
		repLen += n.lineSize
	} else {
		e.ClearSharers()
		e.SetLastWriter(n.tile)
		e.SetLastWriterMask(mask)
		if upgrade {
			g.typ = msgUpgRep
		} else {
			t += h.dram.ReadLine(uint64(line), n.localGrant, t)
			g.typ = msgExRep
			g.data = n.localGrant
			repLen += n.lineSize
		}
		e.SetOwner(n.tile)
	}
	repArr := t + n.net.Delay(network.ClassMemory, n.tile, repLen, t)
	n.net.Observe(repArr)
	h.mu.Unlock()

	g.arrival = repArr
	n.applyGrant(line, off, seg, mask, isWrite, ifetch, g)
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
		home := n.homeOf(v.addr)
		if v.state == cache.Modified {
			ln, _ := n.l2.Peek(v.addr)
			vic := cache.Victim{Addr: v.addr, State: v.state, WriteMask: ln.WriteMask(), Data: ln.Data()}
			if home != n.tile || !n.localEvict(vic, now) {
				n.outstandingWB.Add(1)
				pay := dataPayload{line: uint64(v.addr), mask: ln.WriteMask(), writer: n.tile, flags: flagHasData, data: ln.Data()}
				n.send(msgEvictM, home, 0, n.coreEncData(pay), now)
			}
		} else {
			if home != n.tile || !n.localEvict(cache.Victim{Addr: v.addr, State: v.state}, now) {
				n.send(msgEvictS, home, 0, n.coreEncLine(uint64(v.addr)), now)
			}
		}
		n.l2.Invalidate(v.addr)
		n.invL1(v.addr)
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
func (n *Node) Peek(addr arch.Addr, buf []byte) {
	off := 0
	for off < len(buf) {
		lineStart := int(uint64(addr+arch.Addr(off)) & (uint64(n.lineSize) - 1))
		seg := n.lineSize - lineStart
		if seg > len(buf)-off {
			seg = len(buf) - off
		}
		n.peekLine(addr+arch.Addr(off), buf[off:off+seg])
		off += seg
	}
}

// Poke writes buf functionally into the simulated address space. Valid
// only pre-run or post-FlushAll.
func (n *Node) Poke(addr arch.Addr, buf []byte) {
	off := 0
	for off < len(buf) {
		lineStart := int(uint64(addr+arch.Addr(off)) & (uint64(n.lineSize) - 1))
		seg := n.lineSize - lineStart
		if seg > len(buf)-off {
			seg = len(buf) - off
		}
		n.pokeLine(addr+arch.Addr(off), buf[off:off+seg])
		off += seg
	}
}

// peekLine and pokeLine block on the pending-request slot like a miss but
// never touch the caches, so they do not transfer core-domain ownership:
// a parked tile stays parked and a running one keeps its claim.
func (n *Node) peekLine(addr arch.Addr, buf []byte) {
	n.mu.Lock()
	if n.pending != nil {
		n.mu.Unlock()
		panic("memsys: Peek with outstanding request")
	}
	n.seq++
	pr := &n.reqSlot
	*pr = pendingReq{seq: n.seq, peek: true, done: n.reqDone}
	n.pending = pr
	home := n.homeOf(n.lineOf(addr))
	n.send(msgPeek, home, pr.seq, n.coreEncPeek(peekPayload{addr: addr, n: uint32(len(buf))}), 0)
	n.mu.Unlock()
	pkt, ok := <-pr.done
	if !ok {
		// Teardown: clear the staged request (see the miss path).
		n.mu.Lock()
		if n.pending == pr {
			n.pending = nil
		}
		n.mu.Unlock()
		return
	}
	p, err := decodePeek(pkt.Payload)
	if err != nil {
		panic("memsys: " + err.Error())
	}
	copy(buf, p.data)
}

func (n *Node) pokeLine(addr arch.Addr, buf []byte) {
	n.mu.Lock()
	if n.pending != nil {
		n.mu.Unlock()
		panic("memsys: Poke with outstanding request")
	}
	n.seq++
	pr := &n.reqSlot
	*pr = pendingReq{seq: n.seq, poke: true, done: n.reqDone}
	n.pending = pr
	home := n.homeOf(n.lineOf(addr))
	n.send(msgPoke, home, pr.seq, n.coreEncPeek(peekPayload{addr: addr, n: uint32(len(buf)), data: buf}), 0)
	n.mu.Unlock()
	if _, ok := <-pr.done; !ok {
		// Teardown: clear the staged request (see the miss path).
		n.mu.Lock()
		if n.pending == pr {
			n.pending = nil
		}
		n.mu.Unlock()
	}
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
