package synchro

import (
	"fmt"
	"io"
	"sync"

	"repro/internal/arch"
	"repro/internal/park"
)

// EpochWait is one tile's pending LaxBarrier wait: the tile and the epoch
// its clock has reached. Epoch -1 reports instead that the tile's thread
// is blocked in an application receive (see Ledger).
type EpochWait struct {
	Tile  arch.TileID
	Epoch int64
}

// Ledger parks the LaxBarrier waits of one host process's threads and
// forwards them to the MCP in one batch per round, so a quantum costs one
// sync message per process instead of one RPC per tile. It applies the
// MCP's Round rule over its own tiles: a batch leaves once no local thread
// runs, and every transition that can complete the round (a wait, a
// block, an exit) re-evaluates it. Holding a wait while a local thread
// runs delays nothing, since the MCP cannot release while that thread
// runs. A thread blocked in an application receive rides the batch that
// completes its round as Epoch -1, because the MCP would otherwise count
// it running. See DESIGN.md §16.
type Ledger struct {
	// flush transports one batch to the MCP, outside the ledger lock: a
	// tile registers no new wait until its previous one was released.
	flush func([]EpochWait)

	mu    sync.Mutex
	round Round
	// park[t] is how tile t's thread waits in Wait: by default a channel
	// that a plain goroutine blocks on; an application thread installs its
	// coroutine (SetParker).
	park   []park.Parker
	closed bool
}

// NewLedger builds a ledger whose batches flush delivers to the MCP.
func NewLedger(flush func([]EpochWait)) *Ledger {
	return &Ledger{flush: flush}
}

func (l *Ledger) parker(tile arch.TileID) park.Parker {
	for int(tile) >= len(l.park) {
		l.park = append(l.park, park.NewChan())
	}
	return l.park[tile]
}

// SetParker makes p the way tile's thread waits in Wait (an application
// thread parks its coroutine); nil restores the default, a blocking
// channel receive.
func (l *Ledger) SetParker(tile arch.TileID, p park.Parker) {
	if p == nil {
		p = park.NewChan()
	}
	l.mu.Lock()
	l.parker(tile) // grows the table to tile
	l.park[tile] = p
	l.mu.Unlock()
}

// ThreadStarted records that an application thread now runs on tile.
func (l *Ledger) ThreadStarted(tile arch.TileID) { l.step(tile, Started, 0) }

// ThreadExited records that tile's thread returned, and flushes any round
// its exit completes.
func (l *Ledger) ThreadExited(tile arch.TileID) { l.step(tile, Exited, 0) }

// SetBlocked records that tile's thread blocks in a control-plane call or,
// with recv, in an application receive, or runs again; a block may
// complete the round.
func (l *Ledger) SetBlocked(tile arch.TileID, blocked, recv bool) {
	switch {
	case !blocked:
		l.step(tile, Resume, 0)
	case recv:
		l.step(tile, Recv, 0)
	default:
		l.step(tile, Block, 0)
	}
}

// step applies e to tile and flushes the batch, if any, it completes.
func (l *Ledger) step(tile arch.TileID, e Event, epoch int64) {
	l.mu.Lock()
	l.round.Step(tile, e, epoch)
	var batch []EpochWait
	if !l.closed {
		batch = l.round.Batch()
	}
	l.mu.Unlock()
	if len(batch) > 0 && l.flush != nil {
		l.flush(batch)
	}
}

// Wait parks the calling thread at epoch until the MCP releases it
// (Release) or the ledger closes, flushing the batch the wait completes.
// A release that races the flush runs the tile before it parks.
//
//graphite:hotpath
func (l *Ledger) Wait(tile arch.TileID, epoch int64) {
	l.step(tile, Waited, epoch)
	l.mu.Lock()
	for l.round.State(tile) == Waiting && !l.closed {
		p := l.parker(tile)
		l.mu.Unlock()
		p.Park()
		l.mu.Lock()
	}
	l.mu.Unlock()
}

// Release wakes every local thread parked at exactly the given epoch (the
// MCP releases one epoch — the minimum pending — at a time; higher-epoch
// waiters stay parked).
func (l *Ledger) Release(epoch int64) {
	l.mu.Lock()
	l.round.Release(epoch, func(t arch.TileID) { l.parker(t).Unpark() })
	l.mu.Unlock()
}

// Close wakes every parked thread and makes all future Waits return
// immediately (simulation teardown).
func (l *Ledger) Close() {
	l.mu.Lock()
	l.closed = true
	for _, p := range l.park {
		p.Unpark()
	}
	l.mu.Unlock()
}

// Report writes the ledger's round for a wedged-run dump (park.Report).
func (l *Ledger) Report(w io.Writer) {
	l.mu.Lock()
	defer l.mu.Unlock()
	fmt.Fprintf(w, "  ledger: %v\n", &l.round)
}
