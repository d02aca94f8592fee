package synchro

import (
	"sync"

	"repro/internal/arch"
)

// EpochWait is one tile's pending LaxBarrier wait: the tile and the epoch
// its clock has reached. Epoch -1 reports instead that the tile's thread
// is blocked in an application receive (see Ledger).
type EpochWait struct {
	Tile  arch.TileID
	Epoch int64
}

// Ledger aggregates the LaxBarrier waits of one host process's tiles into
// batches. Without it, every thread crossing a quantum boundary performs
// its own RPC to the MCP's simulation-barrier service — at a thousand
// tiles, a thousand control-plane round trips per quantum, all landing on
// one server goroutine. The ledger instead parks waiting threads locally
// and forwards their waits to the MCP in one batch message per process
// once every local thread has stopped: a quantum then costs roughly one
// sync message per worker process, not one per tile.
//
// Correctness does not move here. The MCP remains the sole authority on
// when an epoch releases (every running, non-service-blocked thread
// waiting — see mcp.Server.recheckSimBarrier); the ledger only decides
// when waits are *transported* to it. A batch is flushed as soon as no
// local thread can produce further waits for the current round: every
// locally active thread is either parked at the ledger or blocked in a
// control-plane RPC / application receive (rpcBlocked). Holding waits
// while some local thread still runs delays nothing, because the MCP
// cannot release while that thread is counted active anyway; and every
// local transition that could complete the round — a new wait, a thread
// blocking, a thread exiting — re-evaluates the flush condition, so no
// wait is held once the round is quiescent. See DESIGN.md §16 for the
// full ordering argument.
//
// A thread blocked in an MCP service is known to the MCP already; one
// blocked in an application receive is not, and the MCP would count it
// active and never release the epoch its sender is parked at. So the
// batch that completes a round also reports each receive-blocked tile,
// once per blocking episode, as an EpochWait with Epoch -1.
type Ledger struct {
	// flush transports one batch of waits to the MCP. It is called outside
	// the ledger lock; per-tile ordering is still serial because a tile
	// cannot register a new wait until its previous one was released.
	flush func([]EpochWait)

	mu sync.Mutex
	// cond signals epoch releases and Close to parked threads. One
	// condition shared by every slot keeps the steady-state wait path
	// allocation-free (a per-wait channel would be one allocation per
	// tile per quantum); stragglers woken by a foreign epoch's broadcast
	// re-check their slot and park again.
	cond   sync.Cond
	slots  map[arch.TileID]*ledgerSlot
	closed bool
}

// ledgerSlot tracks one local tile's thread.
type ledgerSlot struct {
	active  bool // thread running on this tile
	blocked bool // blocked in a control-plane RPC or app receive
	recv    bool // blocked in an app receive not yet reported to the MCP
	waiting bool // parked at a barrier epoch
	flushed bool // current wait already transported to the MCP
	epoch   int64
}

// NewLedger builds a ledger whose batches are delivered by flush
// (typically a system-class send from the process's LCP endpoint to the
// MCP).
func NewLedger(flush func([]EpochWait)) *Ledger {
	l := &Ledger{flush: flush, slots: make(map[arch.TileID]*ledgerSlot)}
	l.cond.L = &l.mu
	return l
}

func (l *Ledger) slot(tile arch.TileID) *ledgerSlot {
	s := l.slots[tile]
	if s == nil {
		s = &ledgerSlot{}
		l.slots[tile] = s
	}
	return s
}

// ThreadStarted records that an application thread now runs on tile.
func (l *Ledger) ThreadStarted(tile arch.TileID) {
	l.mu.Lock()
	s := l.slot(tile)
	s.active = true
	s.blocked = false
	s.waiting = false
	l.mu.Unlock()
}

// ThreadExited records that tile's thread returned, and flushes any round
// its exit completes.
func (l *Ledger) ThreadExited(tile arch.TileID) {
	l.mu.Lock()
	s := l.slot(tile)
	s.active = false
	batch := l.takeBatchLocked()
	l.mu.Unlock()
	l.send(batch)
}

// SetBlocked records a tile's rpcBlocked transition; recv marks a block
// in an application receive. Entering the blocked state can complete a
// round (the tile can produce no wait until it returns), so it may
// trigger a flush; leaving it never does.
func (l *Ledger) SetBlocked(tile arch.TileID, blocked, recv bool) {
	l.mu.Lock()
	s := l.slot(tile)
	s.blocked = blocked
	s.recv = blocked && recv
	var batch []EpochWait
	if blocked {
		batch = l.takeBatchLocked()
	}
	l.mu.Unlock()
	l.send(batch)
}

// Wait parks the calling thread at the given barrier epoch until the MCP
// releases that epoch (via Release) or the ledger closes. It registers
// the wait, flushes the batch if this wait completes the local round, and
// blocks.
//
//graphite:hotpath
func (l *Ledger) Wait(tile arch.TileID, epoch int64) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return
	}
	s := l.slot(tile)
	s.waiting = true
	s.flushed = false
	s.epoch = epoch
	if batch := l.takeBatchLocked(); batch != nil {
		// Flush outside the lock; a release racing this window just
		// clears s.waiting before we re-park, and the loop below exits.
		l.mu.Unlock()
		l.send(batch)
		l.mu.Lock()
	}
	for s.waiting && !l.closed {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// Release wakes every local thread parked at exactly the given epoch (the
// MCP releases one epoch — the minimum pending — at a time; higher-epoch
// waiters stay parked).
func (l *Ledger) Release(epoch int64) {
	l.mu.Lock()
	woke := false
	//graphite:maporder commutative flag clears on disjoint slots; wakeup order is the scheduler's regardless
	for _, s := range l.slots {
		if s.waiting && s.epoch == epoch {
			s.waiting = false
			s.flushed = false
			woke = true
		}
	}
	if woke {
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// Close wakes every parked thread and makes all future Waits return
// immediately (simulation teardown).
func (l *Ledger) Close() {
	l.mu.Lock()
	l.closed = true
	//graphite:maporder commutative flag clears on disjoint slots during teardown
	for _, s := range l.slots {
		s.waiting = false
	}
	l.cond.Broadcast()
	l.mu.Unlock()
}

// takeBatchLocked returns the unflushed waits and unreported receive
// blocks if the local round is complete — every active tile parked or
// blocked — and nil otherwise. Caller holds l.mu.
func (l *Ledger) takeBatchLocked() []EpochWait {
	if l.closed {
		return nil
	}
	pending := 0
	//graphite:maporder commutative count/any-still-running scan over disjoint slots
	for _, s := range l.slots {
		if !s.active {
			continue
		}
		if !s.waiting && !s.blocked {
			return nil // a local thread still runs: it decides this round
		}
		if s.waiting && !s.flushed || s.recv {
			pending++
		}
	}
	if pending == 0 {
		return nil
	}
	batch := make([]EpochWait, 0, pending)
	//graphite:maporder the batch is a set: the MCP keys each wait by tile (Server.simWaits), so entry order never reaches a result or an output byte
	for tile, s := range l.slots {
		switch {
		case !s.active:
		case s.waiting && !s.flushed:
			s.flushed = true
			batch = append(batch, EpochWait{Tile: tile, Epoch: s.epoch})
		case s.recv:
			s.recv = false
			batch = append(batch, EpochWait{Tile: tile, Epoch: -1})
		}
	}
	return batch
}

func (l *Ledger) send(batch []EpochWait) {
	if len(batch) > 0 && l.flush != nil {
		l.flush(batch)
	}
}
