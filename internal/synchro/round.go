package synchro

import (
	"fmt"
	"math"

	"repro/internal/arch"
)

// TileState is where a tile stands in a LaxBarrier round.
type TileState uint8

const (
	Idle      TileState = iota // no thread: never started, or exited
	Running                    // its thread runs, so it may still wait this round
	Waiting                    // parked at an epoch until that epoch is released
	Blocked                    // in a control-plane call
	Receiving                  // in an application receive
	numStates
)

// Event is a change in a tile's thread that a round hears of.
type Event uint8

const (
	Started Event = iota // a thread starts on the tile
	Exited               // the thread returns
	Waited               // it waits at an epoch
	Recv                 // it blocks in an application receive
	Block                // it blocks in a control-plane call
	Resume               // it runs again: a reply, a message, or any packet the MCP hears from it
	numEvents
)

// next is the rule, one row per event: a tile in state s moves to
// next[e][s] on e, and an event its state does not expect leaves it put.
// That is how stale reports are dropped: they reach the MCP on their
// process's control endpoint, so they can trail the tile's own messages.
//   - A wait counts only from Running, Receiving or Waiting. A tile in a
//     call or gone has moved past the wait's release, since a tile parked
//     at its ledger sends nothing.
//   - A receive report counts only from Running.
//   - A block replaces a stale wait: with one state, no tile is counted
//     twice.
//
// Release is the seventh row: a tile Waiting at the released epoch runs.
// Columns: Idle, Running, Waiting, Blocked, Receiving.
var next = [numEvents][numStates]TileState{
	Started: {Running, Running, Running, Running, Running},
	Exited:  {Idle, Idle, Idle, Idle, Idle},
	Waited:  {Idle, Waiting, Waiting, Blocked, Waiting},
	Recv:    {Idle, Receiving, Waiting, Blocked, Receiving},
	Block:   {Idle, Blocked, Blocked, Blocked, Blocked},
	Resume:  {Idle, Running, Waiting, Running, Running},
}

// Round is the LaxBarrier rule over a set of tiles, applied by a process's
// Ledger over its tiles (when a batch leaves) and by the MCP over all of
// them (when an epoch releases). The round is complete when no tile is
// Running: no thread can then reach a wait before a release. The zero
// Round grows to the highest tile stepped. It is not safe for concurrent
// use.
type Round struct {
	tiles []roundTile
	count [numStates]int
}

type roundTile struct {
	state TileState
	sent  bool  // the Waiting or Receiving state went out in a Batch
	epoch int64 // the epoch a Waiting tile waits at
}

// NewRound returns a round over tiles 0 to n-1, all Idle.
func NewRound(n int) *Round {
	r := &Round{}
	r.grow(arch.TileID(n - 1))
	return r
}

func (r *Round) grow(tile arch.TileID) {
	if n := int(tile) + 1 - len(r.tiles); n > 0 {
		r.tiles = append(r.tiles, make([]roundTile, n)...)
		r.count[Idle] += n
	}
}

// Step applies e to tile; epoch is the epoch of a Waited event.
func (r *Round) Step(tile arch.TileID, e Event, epoch int64) {
	r.grow(tile)
	t := &r.tiles[tile]
	to := next[e][t.state]
	if e == Waited && to == Waiting {
		t.epoch = epoch
	} else if to == t.state {
		return
	}
	r.set(t, to)
}

func (r *Round) set(t *roundTile, to TileState) {
	r.count[t.state]--
	r.count[to]++
	t.state, t.sent = to, false
}

// State returns tile's state.
func (r *Round) State(tile arch.TileID) TileState {
	if tile < 0 || int(tile) >= len(r.tiles) {
		return Idle
	}
	return r.tiles[tile].state
}

// Count returns the number of tiles in state s.
func (r *Round) Count(s TileState) int { return r.count[s] }

// Live returns the number of tiles with a thread.
func (r *Round) Live() int { return len(r.tiles) - r.count[Idle] }

// Next is the MCP's release decision: once no tile runs, the lowest epoch
// a tile waits at.
func (r *Round) Next() (int64, bool) {
	if r.count[Running] > 0 || r.count[Waiting] == 0 {
		return 0, false
	}
	low := int64(math.MaxInt64)
	for _, t := range r.tiles {
		if t.state == Waiting && t.epoch < low {
			low = t.epoch
		}
	}
	return low, true
}

// Release runs again every tile waiting at exactly epoch, and calls woke
// for each, in tile order.
func (r *Round) Release(epoch int64, woke func(arch.TileID)) {
	for i := range r.tiles {
		if t := &r.tiles[i]; t.state == Waiting && t.epoch == epoch {
			r.set(t, Running)
			woke(arch.TileID(i))
		}
	}
}

// Batch is a ledger's flush decision: once no tile runs, every wait and
// receive not yet sent, in tile order, a receive as epoch -1; nil
// otherwise. Each state a tile enters is sent at most once.
func (r *Round) Batch() []EpochWait {
	if r.count[Running] > 0 {
		return nil
	}
	var b []EpochWait
	for i := range r.tiles {
		t := &r.tiles[i]
		if t.sent || t.state != Waiting && t.state != Receiving {
			continue
		}
		if b == nil {
			b = make([]EpochWait, 0, r.count[Waiting]+r.count[Receiving])
		}
		t.sent = true
		w := EpochWait{Tile: arch.TileID(i), Epoch: -1}
		if t.state == Waiting {
			w.Epoch = t.epoch
		}
		b = append(b, w)
	}
	return b
}

// String describes the round for a wedged-run dump (park.Report): the
// running count, then each tile that waits, is blocked or receives.
func (r *Round) String() string {
	s := fmt.Sprintf("active %d", r.count[Running])
	for i, t := range r.tiles {
		switch t.state {
		case Waiting:
			s += fmt.Sprintf("; %d waiting@%d", i, t.epoch)
		case Blocked:
			s += fmt.Sprintf("; %d blocked in a call", i)
		case Receiving:
			s += fmt.Sprintf("; %d receiving", i)
		}
		if t.sent {
			s += " (sent)"
		}
	}
	return s
}
