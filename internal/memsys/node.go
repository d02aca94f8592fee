package memsys

import (
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/directory"
	"repro/internal/dram"
	"repro/internal/network"
	"repro/internal/park"
	"repro/internal/stats"
	"repro/internal/transport"
)

// pendingReq is the tile's single outstanding memory request. The server
// stores the completing reply packet in reply and wakes park; the core
// context applies it (installs the line, performs the operation) on wake.
type pendingReq struct {
	seq     uint64
	line    cache.LineAddr
	isWrite bool
	ifetch  bool
	// functional marks a Peek or Poke, which does not touch the caches.
	functional bool
	off        int    // byte offset within the line
	buf        []byte // the bytes a store writes, or a load's destination
	mask       uint64 // accessed-words mask
	sentAt     arch.Cycles
	park       park.Parker
	reply      network.Packet
}

// dirLine is the home-side state of one line: a handle into the home's
// directory-entry arena, the decision state of its transaction, the
// timing and data of the transaction while it is open, and requests
// queued behind it. Entry state lives in the home's structure-of-arrays
// Store (one bulk allocation per growth step, contiguous sharer words)
// rather than embedded per line.
type dirLine struct {
	entry   directory.Ref
	tx      directory.Txn
	busy    *txn
	pending []network.Packet
}

// home is the tile's home role as one lock-guarded unit: the directory
// state of every line homed here and the DRAM controller behind it (paper
// §3.2: one directory and one memory controller per tile). Only two
// goroutines ever take mu — the shard serving the tile, for every home
// message, and the goroutine driving the tile's core, in the local-home
// shortcuts (localMiss, localEvict, FlushAll) — so one lock costs nothing
// a finer split would save.
type home struct {
	mu    sync.Mutex
	lines map[cache.LineAddr]*dirLine
	// store is the directory-entry arena (structure-of-arrays);
	// dirLine.entry handles index into it.
	store *directory.Store
	// homeSeq numbers the home's transactions; their sub-requests
	// (Inv/Wb/Flush) carry it, and the replies carry it back.
	homeSeq uint64
	// txnFree recycles transaction records (and their flush-data buffers):
	// one transaction begins per home request, so pooling them removes a
	// steady per-miss allocation.
	txnFree []*txn
	// slab carves dirLine records in chunks: one allocation per chunk
	// instead of one per line ever homed here. Records are pointed into
	// and never move (the spent chunk is dropped, not regrown).
	slab []dirLine
	dram *dram.Controller
	// Home-side stat counters, aggregated by Stats().
	dirRequests, dirTraps, invSent uint64
}

// txn is the timing and data of an open home transaction; its decisions
// are the line's directory.Txn.
type txn struct {
	reqSeq    uint64      // requester's sequence number, echoed in the grant
	latest    arch.Cycles // the latest arrival the transaction waited for
	trapExtra arch.Cycles // LimitLESS software trap cycles to charge
	// data holds flushed owner data in a buffer owned by the transaction
	// record; reset (not reallocated) when the record is recycled.
	data []byte
}

// coreState values. The word is the entire fast-path synchronization
// protocol — a biased, single-writer ownership token over the core domain
// (see DESIGN.md §13). It is set whenever the core context may touch the
// caches: for a turn of the tile's thread coroutine (turnClaim to
// turnRelease), or for one access of a plain goroutine driving the node.
//
//	0            free: no one is touching the caches. A coroutine claims
//	             with one CAS when its shard resumes it, a plain goroutine
//	             with one CAS per access; the server claims transiently
//	             (under mu) to apply an intervention against an idle tile.
//	stCoreActive the core context holds the domain lock-free: a coroutine
//	             turn is open, or a plain goroutine is inside an access,
//	             or a miss completion has handed the domain back to the
//	             waiting core.
//	stSrvBusy    the server owns the domain (idle tile) and is
//	             applying interventions. Set and cleared only under mu.
//	stPending    ORed onto stCoreActive by the server: interventions are
//	             queued in the mailbox. The core's release CAS fails on it
//	             and drains the backlog before going idle, so intervention
//	             latency is bounded by the current access — or, for a
//	             coroutine, by the miss whose hand-off let them queue.
const (
	stCoreActive = 1 << 0
	stSrvBusy    = 1 << 1
	stPending    = 1 << 2
)

// Node is one tile's memory subsystem. Its state is split into ownership
// domains so the hot path — an L1/L2 hit — takes no locks at all:
//
//   - the core domain: caches, miss-classification state, and the hot
//     statistics counters. Single-writer: it is mutated by the core
//     context (the goroutine driving Read/Write/Fetch) while the tile is
//     unparked, and by its server (the shard serving the tile) only while
//     the tile is parked. The coreState word plus mu mediate every
//     ownership transfer.
//   - the home domain: directory state for lines homed here and the DRAM
//     controller, under home.mu.
//
// The server takes exactly one domain lock per message; the
// only nesting is the core context's mu → home.mu in the local-home
// shortcuts, never the reverse.
type Node struct {
	tile arch.TileID
	cfg  *config.Config
	net  *network.Net

	// Cache hierarchy — core domain (see above). L1s may be nil (disabled).
	l1i *cache.Cache
	l1d *cache.Cache
	l2  *cache.Cache

	// coreState is the fast path's only synchronization: the biased
	// ownership token over the core domain (values above). A coroutine
	// thread's hits cost nothing on it — its turn holds the word — and a
	// plain goroutine's one claim CAS and one release CAS.
	coreState atomic.Uint32

	// turn is set while a coroutine turn holds coreState (core domain:
	// written by the shard at the turn's ends and by the thread around a
	// miss's wait, which run one at a time). accessLine skips its
	// per-access claim while it is set.
	turn bool

	// mu guards the intervention mailbox, the pending-request slot, and
	// the slow-path coreState transitions (server claims, drains,
	// completion hand-off). It is NOT the cache lock: the hit path never
	// takes it.
	mu    sync.Mutex
	intvQ []network.Packet

	// home is the tile's directory and DRAM controller.
	home home

	// out batches the server's outgoing protocol messages per
	// destination; Serve flushes it at the end of every burst, before
	// waking the local core. Owned by the server.
	out *network.Batch

	// Single outstanding core request, guarded by mu. reqSlot backs
	// every request: with one outstanding request per tile, the record is
	// reused instead of allocated per miss. replied is the sequence
	// number of the last request the shard completed, or nodeStopped
	// once the node is down; the waiting core re-checks it after every
	// wake (await).
	pending *pendingReq
	reqSlot pendingReq
	seq     uint64
	replied atomic.Uint64

	// park is how the core context waits for a completion: by default
	// defPark, a channel a plain goroutine blocks on; an application
	// thread installs its coroutine (SetParker).
	park    park.Parker
	defPark park.Chan

	// Miss classification state — core domain: the history half of each
	// line's directory.Copy, kept for every line ever granted.
	lineHist map[cache.LineAddr]directory.Hist

	// Outstanding modified-line writebacks (for FlushAll).
	outstandingWB atomic.Int64
	wbDrained     chan struct{} // signaled when outstandingWB may be zero

	// selfInflight counts this tile's own memory-class messages to itself
	// that have been sent but not yet dispatched (evictions to the local
	// home, replies to local-home interventions, and their acks). The
	// local-home miss shortcut requires it to be zero: a self-directed
	// message still in flight carries ordering the shortcut would jump
	// (an EvictM whose data must land before a re-read, an EvictS that
	// must clear the sharer bit before it is re-added). Incremented by
	// the sending contexts, decremented by the server after dispatch.
	selfInflight atomic.Int64

	// localGrant is the core context's line buffer for shortcut grants.
	localGrant []byte

	// Statistics — core domain, written lock-free by the core context.
	// Home-side and DRAM counters live in home; Stats() aggregates both.
	st stats.Tile

	// Payload scratch buffers: an encoded payload lives only until the
	// next Send (which copies it into the wire frame), so each sending
	// context recycles one buffer. coreScratch belongs to the core
	// context; srvScratch and grantBuf belong to the server.
	coreScratch []byte
	srvScratch  []byte
	grantBuf    []byte

	// coreArena carves wire frames for the core context's immediate sends
	// (the server's batch has its own arena inside network.Batch).
	coreArena network.FrameArena

	// fetchBuf backs instruction fetches: the fetched bytes are consumed
	// before Fetch returns and the core context issues one access at a
	// time, so one buffer per node replaces a per-fetch allocation (the
	// same argument as Thread.scratch).
	fetchBuf []byte

	// flushLines is FlushAll's reusable line list.
	flushLines []cache.LineAddr

	// ctrlQ holds control functions (checkpoint capture/restore) queued
	// by EnqueueCtrl for the server to run on the next msgCkpt
	// packet, serialized with dispatch like any other message.
	ctrlMu sync.Mutex
	ctrlQ  []func()

	lineBits uint
	lineSize int

	// sh is the shard serving the node, set before it runs. queued marks
	// the node as on its shard's ready list (guarded by the shard's lock);
	// down is set by the shard when it tears the node down (shard
	// goroutine only). coro is the thread coroutine running on the tile
	// once the shard has first resumed it (written by the shard only).
	sh     *Shard
	queued bool
	down   bool
	coro   atomic.Pointer[Coro]

	stopped chan struct{}
}

// NewNode builds the memory subsystem of one tile. progress feeds the DRAM
// queue model; net must be the tile's network interface.
func NewNode(tile arch.TileID, cfg *config.Config, net *network.Net, progress *clock.ProgressWindow) *Node {
	n := &Node{
		tile: tile,
		cfg:  cfg,
		net:  net,
		home: home{
			lines: make(map[cache.LineAddr]*dirLine),
			store: directory.NewStore(cfg.Coherence, cfg.Tiles, 0),
			dram:  dram.New(cfg, progress),
		},
		out:       net.NewBatch(),
		lineHist:  make(map[cache.LineAddr]directory.Hist),
		wbDrained: make(chan struct{}, 1),
		defPark:   park.NewChan(),
		lineSize:  cfg.LineSize(),
		stopped:   make(chan struct{}),
	}
	n.park = n.defPark
	n.grantBuf = make([]byte, n.lineSize)
	n.fetchBuf = make([]byte, n.lineSize)
	n.localGrant = make([]byte, n.lineSize)
	n.st.TileID = tile
	if cfg.L1I.Enabled {
		n.l1i = cache.New(cfg.L1I)
	}
	if cfg.L1D.Enabled {
		n.l1d = cache.New(cfg.L1D)
	}
	n.l2 = cache.New(cfg.L2)
	n.lineBits = n.l2.LineBits()
	return n
}

// nodeStopped is Node.replied once the node is down.
const nodeStopped = ^uint64(0)

// SetParker installs how the core context waits for its misses, peeks
// and pokes; nil restores the default, a blocking channel receive. Core
// context only, between accesses.
func (n *Node) SetParker(p park.Parker) {
	if p == nil {
		p = n.defPark
	}
	n.park = p
}

// await parks the core context until the shard has completed request pr
// (true) or torn the node down (false). Called without mu.
//
//graphite:hotpath
func (n *Node) await(pr *pendingReq) bool {
	for {
		switch n.replied.Load() {
		case pr.seq:
			return true
		case nodeStopped:
			return false
		}
		pr.park.Park()
	}
}

// Tile returns the tile this node belongs to.
func (n *Node) Tile() arch.TileID { return n.tile }

// ReleaseCaches returns the node's cache line arrays to their geometry
// pools. Valid only after the server has stopped (Stopped closed) and no
// core context will access the node again; Stats is invalid afterwards.
func (n *Node) ReleaseCaches() {
	if n.l1i != nil {
		n.l1i.Release()
	}
	if n.l1d != nil {
		n.l1d.Release()
	}
	n.l2.Release()
}

// LineSize returns the coherence line size.
func (n *Node) LineSize() int { return n.lineSize }

func (n *Node) lineOf(a arch.Addr) cache.LineAddr {
	return cache.LineAddr(uint64(a) >> n.lineBits)
}

func (n *Node) homeOf(l cache.LineAddr) arch.TileID {
	return arch.TileID(uint64(l) % uint64(n.cfg.Tiles))
}

// coreClaim takes single-writer ownership of the core domain for one
// access of a plain goroutine. The uncontended case — the overwhelmingly
// common one — is a single CAS on a core-local word; contention means the
// server is mid-intervention on this idle-until-now tile, and the claim
// waits for it under mu.
func (n *Node) coreClaim() {
	if n.coreState.CompareAndSwap(0, stCoreActive) {
		return
	}
	n.claimSlow()
}

func (n *Node) claimSlow() {
	// The word was not free: the server holds it (stSrvBusy, only ever set
	// with mu held), or — for a turn going on after a miss — the hand-off
	// left interventions pending. Taking mu waits the server out; the
	// backlog is drained before the claim.
	n.mu.Lock()
	n.drainLocked(false)
	n.coreState.Store(stCoreActive)
	n.mu.Unlock()
}

// coreRelease returns the domain to the free state at the end of an
// access or a turn. If the server queued interventions while the domain
// was held (the release CAS fails on stPending), the core drains them —
// in arrival order, with immediate replies — before going idle, so
// intervention latency is bounded by one access.
func (n *Node) coreRelease() {
	if n.coreState.CompareAndSwap(stCoreActive, 0) {
		return
	}
	n.mu.Lock()
	n.drainLocked(false)
	n.coreState.Store(0)
	n.mu.Unlock()
}

// turnClaim opens a turn of the tile's thread coroutine: the core domain
// is the thread's until turnRelease, so its hits claim nothing. The word
// is free, or already the core's: a miss completion handed it back to
// the thread that waited (handoffCompletion), and interventions queued
// behind that hand-off are the thread's to drain once it has installed
// the line (miss). Shard only, as it resumes the coroutine.
//
//graphite:hotpath
func (n *Node) turnClaim() {
	if !n.coreState.CompareAndSwap(0, stCoreActive) && n.coreState.Load()&stCoreActive == 0 {
		n.claimSlow()
	}
	n.turn = true
}

// turnRelease ends the turn as the coroutine suspends or ends, so the
// server answers interventions against the tile while the thread is set
// aside. A turn whose thread waits on a miss has handed the word over
// already. Shard only.
//
//graphite:hotpath
func (n *Node) turnRelease() {
	if n.turn {
		n.turn = false
		n.coreRelease()
	}
}

// drainLocked applies every queued intervention in arrival order. srv
// selects the sending context for replies (server batch vs. immediate
// core send). Called with mu held by whichever context owns the domain.
func (n *Node) drainLocked(srv bool) {
	for i := 0; i < len(n.intvQ); i++ {
		pkt := n.intvQ[i]
		n.intvQ[i] = network.Packet{}
		n.applyIntervention(pkt, srv)
	}
	n.intvQ = n.intvQ[:0]
}

// queueIntervention publishes a home-initiated cache command (Inv/Wb/
// Flush) to the core domain. An idle tile (word free) is served by the
// server on the spot — it claims the word, applies, and releases — so a
// tile whose thread is blocked, napping, computing natively, or long gone
// can never stall the protocol. A tile whose core is mid-access gets the
// command queued in the mailbox, flagged by stPending; the core's release
// CAS observes the flag and drains. Called by the server only.
func (n *Node) queueIntervention(pkt network.Packet) {
	n.mu.Lock()
	n.intvQ = append(n.intvQ, pkt)
	for {
		s := n.coreState.Load()
		if s == 0 {
			if n.coreState.CompareAndSwap(0, stSrvBusy) {
				n.drainLocked(true)
				n.coreState.Store(0)
				break
			}
			continue // the core just claimed; flag it instead
		}
		if n.coreState.CompareAndSwap(s, s|stPending) {
			break
		}
	}
	n.mu.Unlock()
}

// Stats snapshots the tile's statistics. The core-domain counters are
// read without synchronization, so callers must either be the tile's own
// core context or observe the tile quiesced (thread exited or parked, as
// at collection time); home and DRAM counters take the home lock.
func (n *Node) Stats() stats.Tile {
	st := n.st
	if n.l1i != nil {
		st.L1IHits, st.L1IMisses = n.l1i.Hits, n.l1i.Misses
	}
	if n.l1d != nil {
		st.L1DHits, st.L1DMisses = n.l1d.Hits, n.l1d.Misses
	}
	st.L2Hits, st.L2Misses = n.l2.Hits, n.l2.Misses
	st.L2Evictions = n.l2.Evictions
	st.L2Writebacks = n.l2.Writebacks
	h := &n.home
	h.mu.Lock()
	st.DirRequests += h.dirRequests
	st.DirTraps += h.dirTraps
	st.InvSent += h.invSent
	st.DRAMReads, st.DRAMWrites = h.dram.Reads, h.dram.Writes
	st.DRAMQueueWait = h.dram.TotalQueueDelay
	h.mu.Unlock()
	ns := n.net.Stats()
	for c := network.Class(0); c < network.NumClasses; c++ {
		st.NetPacketsSent += ns.PacketsSent[c].Load()
		st.NetBytesSent += ns.BytesSent[c].Load()
		st.NetPacketsRecv += ns.PacketsRecv[c].Load()
	}
	return st
}

// send transmits a memory-class packet immediately. It is the core-context
// path (miss requests, drain replies, FlushAll writebacks, peek/poke).
// Sends racing simulation teardown (transport already closed) are dropped
// silently — the receiver is gone; any other transport failure is
// unrecoverable simulator state.
func (n *Node) send(typ uint8, dst arch.TileID, seq uint64, payload []byte, now arch.Cycles) arch.Cycles {
	if dst == n.tile {
		n.selfInflight.Add(1)
	}
	arrival, err := n.net.SendFrom(&n.coreArena, network.ClassMemory, typ, dst, seq, payload, now)
	if err != nil {
		if errors.Is(err, transport.ErrClosed) {
			return now
		}
		panic("memsys: transport send failed: " + err.Error())
	}
	return arrival
}

// sendSrv queues a memory-class packet on the server's batch; Serve
// flushes it at the end of the burst, before waking the local core, which
// preserves per-sender FIFO against the core context's immediate sends.
// Only the server may call it.
func (n *Node) sendSrv(typ uint8, dst arch.TileID, seq uint64, payload []byte, now arch.Cycles) arch.Cycles {
	if dst == n.tile {
		n.selfInflight.Add(1)
	}
	return n.out.Send(network.ClassMemory, typ, dst, seq, payload, now)
}
