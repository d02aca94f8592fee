package memsys

// Checkpoint support. A tile's memory state is captured and restored by
// its own server (the shard serving it): the control plane queues a
// function with EnqueueCtrl and pokes the server with a CtrlMsg packet,
// so the snapshot is serialized with message dispatch exactly like any
// protocol message. The happens-before chain to the parked core context — the
// thread's last cache writes precede its barrier park, which precedes the
// MCP's decision to checkpoint, which precedes the control packet's
// delivery here — makes the core-domain reads race-free; the ownership
// word is still claimed, as an idle-tile intervention would, to assert
// the tile really is quiesced.

import (
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/directory"
)

// CtrlMsg is the ClassMemory message type that pokes a tile's memory
// server to run its queued control functions. It must be sent from a
// control endpoint (negative ID), never tile-to-tile: the server
// unconditionally balances selfInflight for packets whose Src is the tile
// itself, and a control packet must not participate in that accounting.
const CtrlMsg = msgCkpt

// EnqueueCtrl queues fn to run in the node's server. fn must not block:
// the shard serves other tiles too. The caller must then send a CtrlMsg
// packet to this tile from a control endpoint; the server runs every
// queued function when the packet arrives.
func (n *Node) EnqueueCtrl(fn func()) {
	n.ctrlMu.Lock()
	n.ctrlQ = append(n.ctrlQ, fn)
	n.ctrlMu.Unlock()
}

func (n *Node) runCtrl() {
	n.ctrlMu.Lock()
	q := n.ctrlQ
	n.ctrlQ = nil
	n.ctrlMu.Unlock()
	for _, fn := range q {
		fn()
	}
}

// Quiesced reports whether the tile's memory subsystem is at rest: core
// domain free, no queued interventions, no outstanding request or
// writeback, and no self-directed message in flight. Every field read is
// atomic or mutex-guarded, so any goroutine may probe. A true result is
// only meaningful combined with the MCP's global traffic-stability check
// (DESIGN.md §18) — locally idle tiles can still have packets inbound.
func (n *Node) Quiesced() bool {
	if n.coreState.Load() != 0 || n.outstandingWB.Load() != 0 || n.selfInflight.Load() != 0 {
		return false
	}
	n.mu.Lock()
	idle := len(n.intvQ) == 0 && n.pending == nil
	n.mu.Unlock()
	return idle
}

// Capture fills ts with the node's complete memory state. It must run in
// the node's server (via EnqueueCtrl) on a quiesced, drained tile; it
// errors rather than snapshotting a tile that still has protocol work in
// flight.
func (n *Node) Capture(ts *checkpoint.TileState) error {
	n.mu.Lock()
	if !n.coreState.CompareAndSwap(0, stSrvBusy) {
		n.mu.Unlock()
		return fmt.Errorf("memsys: tile %d not quiesced at capture (core active)", n.tile)
	}
	if n.pending != nil || len(n.intvQ) != 0 {
		n.coreState.Store(0)
		n.mu.Unlock()
		return fmt.Errorf("memsys: tile %d not quiesced at capture (outstanding request)", n.tile)
	}
	if n.l1i != nil {
		ts.L1I = n.l1i.Capture()
	}
	if n.l1d != nil {
		ts.L1D = n.l1d.Capture()
	}
	ts.L2 = n.l2.Capture()
	ts.ReqSeq = n.seq
	ts.EverAccessed = sortedLines(n.lineHist, directory.Seen)
	ts.Invalidated = sortedLines(n.lineHist, directory.Invalidated)
	ts.Stats = n.st
	n.coreState.Store(0)
	n.mu.Unlock()

	h := &n.home
	h.mu.Lock()
	defer h.mu.Unlock()
	hs := &ts.Home
	hs.HomeSeq = h.homeSeq
	hs.DirRequests = h.dirRequests
	hs.DirTraps = h.dirTraps
	hs.InvSent = h.invSent
	//graphite:maporder entries are sorted by arena index below, so iteration order never reaches the snapshot
	for line, dl := range h.lines {
		if dl.busy != nil || len(dl.pending) > 0 {
			return fmt.Errorf("memsys: tile %d not quiesced at capture (open transaction on line %#x)", n.tile, uint64(line))
		}
		e := dl.entry
		es := checkpoint.DirEntryState{
			Index:          int32(e.Index()),
			Line:           uint64(line),
			Owner:          int32(e.Owner()),
			LastWriter:     int32(e.LastWriter()),
			LastWriterMask: e.LastWriterMask(),
			Cursor:         e.Cursor(),
		}
		e.ForEachSharer(func(t arch.TileID) {
			es.Sharers = append(es.Sharers, int32(t))
		})
		hs.Entries = append(hs.Entries, es)
	}
	sort.Slice(hs.Entries, func(a, b int) bool { return hs.Entries[a].Index < hs.Entries[b].Index })
	hs.DRAM = *h.dram.Capture()
	return nil
}

// Restore overwrites the node's memory state from a snapshot taken by
// Capture on an identically configured tile. Like Capture it must run in
// the server of a quiesced node — in practice a freshly
// constructed cluster before any thread has started.
func (n *Node) Restore(ts *checkpoint.TileState) error {
	if arch.TileID(ts.Tile) != n.tile {
		return fmt.Errorf("memsys: restoring tile %d state into tile %d", ts.Tile, n.tile)
	}
	if (ts.L1I != nil) != (n.l1i != nil) || (ts.L1D != nil) != (n.l1d != nil) || ts.L2 == nil {
		return fmt.Errorf("memsys: tile %d restore cache-hierarchy shape mismatch", n.tile)
	}

	n.mu.Lock()
	if !n.coreState.CompareAndSwap(0, stSrvBusy) {
		n.mu.Unlock()
		return fmt.Errorf("memsys: tile %d not quiesced at restore", n.tile)
	}
	var err error
	if ts.L1I != nil {
		err = n.l1i.Restore(ts.L1I)
	}
	if err == nil && ts.L1D != nil {
		err = n.l1d.Restore(ts.L1D)
	}
	if err == nil {
		err = n.l2.Restore(ts.L2)
	}
	if err != nil {
		n.coreState.Store(0)
		n.mu.Unlock()
		return err
	}
	n.seq = ts.ReqSeq
	n.lineHist = make(map[cache.LineAddr]directory.Hist, len(ts.EverAccessed))
	for _, l := range ts.EverAccessed {
		n.lineHist[cache.LineAddr(l)] |= directory.Seen
	}
	for _, l := range ts.Invalidated {
		n.lineHist[cache.LineAddr(l)] |= directory.Invalidated
	}
	n.st = ts.Stats
	n.st.TileID = n.tile
	n.coreState.Store(0)
	n.mu.Unlock()

	h := &n.home
	hs := &ts.Home
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.lines) != 0 {
		return fmt.Errorf("memsys: tile %d home not empty at restore", n.tile)
	}
	// Entries are re-allocated in arena-index order into the empty store,
	// so every Ref lands at its original index; sharers are re-added in
	// captured (canonical) order, which reproduces pointer-slot layout
	// exactly.
	for idx, es := range hs.Entries {
		if int(es.Index) != idx {
			return fmt.Errorf("memsys: tile %d home entry order broken at %d (index %d)", n.tile, idx, es.Index)
		}
		e := h.dirLine(cache.LineAddr(es.Line)).entry
		if e.Index() != idx {
			return fmt.Errorf("memsys: tile %d home arena index drift at %d", n.tile, idx)
		}
		for _, t := range es.Sharers {
			e.AddSharer(arch.TileID(t))
		}
		e.SetOwner(arch.TileID(es.Owner))
		e.SetLastWriter(arch.TileID(es.LastWriter))
		e.SetLastWriterMask(es.LastWriterMask)
		e.SetCursor(es.Cursor)
	}
	h.homeSeq = hs.HomeSeq
	h.dirRequests = hs.DirRequests
	h.dirTraps = hs.DirTraps
	h.invSent = hs.InvSent
	h.dram.Restore(&hs.DRAM)
	return nil
}

// sortedLines flattens the lines of m with bit set into a sorted slice
// (canonical encoding for the checkpoint).
func sortedLines(m map[cache.LineAddr]directory.Hist, bit directory.Hist) []uint64 {
	var out []uint64
	//graphite:maporder the slice is sorted below, so iteration order never reaches the snapshot
	for l, hist := range m {
		if hist&bit != 0 {
			out = append(out, uint64(l))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
