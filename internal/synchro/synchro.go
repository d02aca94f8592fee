// Package synchro implements Graphite's simulation synchronization models
// (paper §3.6): Lax (free-running clocks synchronized only by application
// events), LaxBarrier (a global barrier every quantum of simulated cycles,
// the accuracy baseline), and LaxP2P (random point-to-point clock
// comparison where a tile that runs ahead of its partner by more than the
// slack sleeps in real time until the partner catches up).
//
// A model's Tick is invoked by the thread runtime after every application
// event. Models gate wall-clock execution only; they never advance
// simulated clocks. Lax has no Model: the runtime skips Tick under it.
package synchro

import (
	"time"

	"repro/internal/arch"
	"repro/internal/config"
)

// prng is a splitmix64 generator owned by one model. LaxP2P previously
// drew partner picks from a math/rand.Rand per model; splitmix64 keeps
// the per-model ownership (no locks, no shared global source) in eight
// lines of arithmetic, and its full-period 64-bit state cannot degenerate
// for any seed — including zero.
type prng struct{ state uint64 }

func newPRNG(seed int64) *prng { return &prng{state: uint64(seed)} }

func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a value in [0, n). Partner selection needs uniformity only
// to balance probe load, so the negligible modulo bias (n is a tile
// count, far below 2^63) is acceptable.
func (p *prng) intn(n int) int { return int(p.next() % uint64(n)) }

// Model is one synchronization scheme, owned by a single thread.
type Model interface {
	// Tick is called with the tile's current simulated clock. It may
	// park the thread (at a barrier, or held on a LaxP2P partner).
	Tick(now arch.Cycles)
}

// barrier implements LaxBarrier via a wait function provided by the
// runtime (a wait at the process's Ledger).
type barrier struct {
	quantum arch.Cycles
	epoch   int64
	wait    func(epoch int64)
}

// NewBarrier returns a LaxBarrier model. wait blocks until every active,
// unblocked thread has reached the given epoch.
func NewBarrier(quantum arch.Cycles, wait func(epoch int64)) Model {
	if quantum <= 0 {
		quantum = 1
	}
	return &barrier{quantum: quantum, wait: wait}
}

// Tick implements Model: the thread stops at the quantum boundary its
// clock has reached. A synchronization event can jump a clock across many
// quanta at once (a barrier release or message receive); the thread then
// waits at its new epoch directly — the barrier service releases the
// lowest pending epoch, so stragglers catch up boundary by boundary while
// jumped threads wait, and no thread can run more than one quantum past
// the slowest active one.
func (b *barrier) Tick(now arch.Cycles) {
	target := int64(now / b.quantum)
	if target > b.epoch {
		b.epoch = target
		b.wait(target)
	}
}

// ProbeFunc asks a tile for its current clock. ok is false if the probe
// could not be answered (teardown).
type ProbeFunc func(target arch.TileID) (arch.Cycles, bool)

// p2p implements LaxP2P.
type p2p struct {
	cfg   config.SyncConfig
	self  arch.TileID
	tiles int
	rng   *prng
	probe ProbeFunc
	wait  func(time.Duration)
	last  arch.Cycles
}

// NewP2P returns a LaxP2P model for one tile. probe reads a random
// partner's clock; wait holds the thread until the partner it last probed
// may have caught up, and must not be nil. wait's Duration argument is
// unused (always 0): the hold is in simulated time, and the parameter
// stays for callers written against the earlier wall-clock nap.
func NewP2P(cfg config.SyncConfig, self arch.TileID, tiles int, seed int64, probe ProbeFunc, wait func(time.Duration)) Model {
	return &p2p{
		cfg:   cfg,
		self:  self,
		tiles: tiles,
		rng:   newPRNG(seed ^ int64(self)*0x5851F42D4C957F2D),
		probe: probe,
		wait:  wait,
	}
}

// Tick implements Model: every P2PInterval simulated cycles the tile
// synchronizes with one random partner. While this tile is ahead by more
// than the slack, it is held: it waits, then probes the same partner
// again, until the partner is within the slack or no longer running
// (paper §3.6.3 naps c/r seconds of real time instead; see DESIGN §6).
func (p *p2p) Tick(now arch.Cycles) {
	if p.tiles < 2 || now-p.last < p.cfg.P2PInterval {
		return
	}
	p.last = now
	target := arch.TileID(p.rng.intn(p.tiles - 1))
	if target >= p.self {
		target++
	}
	for {
		theirs, ok := p.probe(target)
		if !ok || now-theirs <= p.cfg.P2PSlack {
			return
		}
		p.wait(0)
	}
}
