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
	// block (barrier) or sleep (P2P) in real time.
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
	sleep func(time.Duration)
	// start/base anchor the rate measurement: the wall-clock time and the
	// tile's simulated clock at the first Tick. Anchoring the wall clock
	// alone at construction mis-scales the rate of a thread spawned
	// mid-simulation: its clock starts at a large inherited value, so
	// cycles it never executed are divided by only its own wall time —
	// an overstated rate, naps far too short to let partners catch up
	// (and, had construction preceded the thread's start by long enough,
	// the opposite error). Both anchors must open at the same event.
	start  time.Time
	base   arch.Cycles
	nowFn  func() time.Time
	last   arch.Cycles
	maxNap time.Duration
}

// NewP2P returns a LaxP2P model for one tile. probe reads a random
// partner's clock; sleep is time.Sleep (injectable for tests).
//
//graphite:wallclock LaxP2P pacing (paper §3.6.3): the wall clock and sleep only throttle host execution speed; naps never advance or feed a simulated clock, so results are unaffected
func NewP2P(cfg config.SyncConfig, self arch.TileID, tiles int, seed int64, probe ProbeFunc, sleep func(time.Duration)) Model {
	if sleep == nil {
		sleep = time.Sleep
	}
	return &p2p{
		cfg:    cfg,
		self:   self,
		tiles:  tiles,
		rng:    newPRNG(seed ^ int64(self)*0x5851F42D4C957F2D),
		probe:  probe,
		sleep:  sleep,
		nowFn:  time.Now,
		maxNap: 10 * time.Millisecond,
	}
}

// Tick implements Model: every P2PInterval simulated cycles the tile
// synchronizes with one random partner. If this tile is ahead by more than
// the slack, it naps for s = c/r real seconds, where c is the clock
// difference and r the tile's real-time simulation rate, so the partner
// has caught up when it wakes (paper §3.6.3).
func (p *p2p) Tick(now arch.Cycles) {
	if p.start.IsZero() {
		// Lazy anchor: the rate window opens at the thread's first event,
		// not at model construction (see the field comment).
		p.start = p.nowFn()
		p.base = now
	}
	if p.tiles < 2 || now-p.last < p.cfg.P2PInterval {
		return
	}
	p.last = now
	target := arch.TileID(p.rng.intn(p.tiles - 1))
	if target >= p.self {
		target++
	}
	theirs, ok := p.probe(target)
	if !ok {
		return
	}
	c := now - theirs
	if c <= p.cfg.P2PSlack {
		return
	}
	elapsed := p.nowFn().Sub(p.start).Seconds()
	if elapsed <= 0 {
		return
	}
	rate := float64(now-p.base) / elapsed // simulated cycles per real second
	if rate <= 0 {
		return
	}
	nap := napFor(c, rate)
	if nap > p.maxNap {
		nap = p.maxNap
	}
	if nap > 0 {
		p.sleep(nap)
	}
}

// napFor is the P2P sleep computation: given a clock lead c and rate r
// (cycles/sec), the nap is c/r seconds.
func napFor(c arch.Cycles, rate float64) time.Duration {
	if rate <= 0 || c <= 0 {
		return 0
	}
	return time.Duration(float64(c) / rate * float64(time.Second))
}
