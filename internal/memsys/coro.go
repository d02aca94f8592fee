package memsys

import (
	"iter"
	"sync/atomic"

	"repro/internal/park"
)

// Coro is an application thread run as a coroutine of the shard that
// serves its tile (Node.Go). The shard resumes it from its loop; the
// thread runs on the shard's behalf until it parks, yields its turn or
// returns, so a tile's thread and its memory server never run at the same
// time and never bounce the tile's state between host CPUs. Coro is the
// thread's park.Parker: every blocking call parks it, and whoever
// satisfies the wait — the shard handing over a miss completion or a
// reply, an application message, a ledger release — calls Unpark, which
// puts it back on the shard's ready list.
type Coro struct {
	sh    *Shard
	node  *Node
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	exit  func()
	state atomic.Uint32
	// events counts the events since Preempt last looked at the shard,
	// waited the events other coroutines have waited for this one's
	// turn to end. Both belong to the coroutine.
	events, waited int
}

// Coroutine states. A coroutine is running while the shard resumes it;
// woken records an Unpark that came while it was running, so its next
// Park returns at once; parked is suspended in Park; queued is on the
// ready list; dead has ended or is unwinding at teardown.
const (
	coroRunning uint32 = iota
	coroWoken
	coroParked
	coroQueued
	coroDead
)

// nodeSlice is how many events a coroutine runs between looks at its
// shard; coroSlice how many, while other coroutines wait, make its turn.
// A turn of a computing thread lasts a few milliseconds, like a Go
// scheduler time slice: each switch moves the host caches to another
// tile's state. Frames of a ready node may be what threads of this shard
// and others wait on, so they are served within nodeSlice events.
const (
	nodeSlice = 64
	coroSlice = 1 << 16
)

// Go starts body as a coroutine of the shard serving n, behind the
// coroutines runnable there already. exit runs once the coroutine has
// ended — body returned, body unwound through a park.TornDown panic
// (recovered here, the coroutine's top frame), or the tile went down
// before the coroutine first ran (body never runs) — on the shard, or in
// Go when the shard has already returned. Any other panic propagates out
// of the shard loop. Go may be called from any goroutine.
func (n *Node) Go(body func(c *Coro), exit func()) {
	if n.sh == nil {
		panic("memsys: Go on a node no shard serves")
	}
	c := &Coro{sh: n.sh, node: n, exit: exit}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(park.TornDown); !ok {
					panic(r)
				}
			}
		}()
		c.yield = yield
		body(c)
	})
	c.state.Store(coroQueued)
	if !n.sh.readyCoro(c, false) {
		c.kill() // the shard has returned
	}
}

// resume runs the coroutine until it parks, yields or ends. Shard only.
//
//graphite:hotpath
func (c *Coro) resume() {
	if c.state.Load() == coroDead {
		return // killed while listed
	}
	if c.node.down {
		c.kill() // its tile went down before it first ran
		return
	}
	if c.node.coro.Load() != c {
		c.node.coro.Store(c)
	}
	c.state.Store(coroRunning)
	c.events = 0
	// The turn holds the tile's core domain (DESIGN.md §13): the thread's
	// hits claim nothing, and the server finds the domain free again once
	// the thread has parked, stepped aside or ended.
	c.node.turnClaim()
	_, more := c.next()
	c.node.turnRelease()
	if !more {
		c.end()
	}
}

// runNow resumes a parked coroutine on the spot, as if Unpark had listed
// it and the loop had reached it. It reports false, doing nothing, unless
// the coroutine is parked. Shard only.
//
//graphite:hotpath
func (c *Coro) runNow() bool {
	if !c.state.CompareAndSwap(coroParked, coroQueued) {
		return false
	}
	c.resume()
	return true
}

// kill ends a suspended or never-run coroutine, once: a suspended one
// unwinds from its Park through park.TornDown. Shard only (or after it
// returned).
func (c *Coro) kill() {
	if c.exit == nil {
		return // ended already
	}
	c.state.Store(coroDead)
	c.stop()
	c.end()
}

func (c *Coro) end() {
	c.sh.mu.Lock()
	if c.sh.held == c {
		c.sh.held = nil
	}
	c.sh.mu.Unlock()
	c.state.Store(coroDead)
	c.node.coro.CompareAndSwap(c, nil)
	exit := c.exit
	c.exit = nil
	exit()
}

// Park suspends the coroutine until Unpark; a wake that came first makes
// it return at once. At teardown it panics with park.TornDown.
//
//graphite:hotpath
func (c *Coro) Park() {
	for {
		switch s := c.state.Load(); s {
		case coroWoken:
			if c.state.CompareAndSwap(s, coroRunning) {
				return
			}
		case coroRunning:
			if c.state.CompareAndSwap(s, coroParked) {
				c.waited = 0 // a wait ends the turn
				c.suspend()
				return
			}
		default:
			c.suspend() // dead: stop has been called, so this panics
		}
	}
}

// Hold makes the coroutine's next wait hold its shard: until the
// coroutine is runnable again, the shard serves its node alone, so no
// other thread runs and no other tile's burst is served meanwhile. It is
// for a wait that no thread gates (a spawn's reply): the wait is short,
// and what the shard's other threads do during it is not left to host
// scheduling. The coroutine must park next.
func (c *Coro) Hold() {
	c.sh.mu.Lock()
	c.sh.held = c
	c.sh.mu.Unlock()
}

// Unpark makes the coroutine runnable, from any goroutine.
//
//graphite:hotpath
func (c *Coro) Unpark() {
	for {
		switch s := c.state.Load(); s {
		case coroRunning:
			if c.state.CompareAndSwap(s, coroWoken) {
				return
			}
		case coroParked:
			if c.state.CompareAndSwap(s, coroQueued) {
				c.sh.readyCoro(c, false)
				return
			}
		default:
			return // already woken or listed, or dead
		}
	}
}

// Preempt steps the coroutine aside when its shard has other work. Every
// nodeSlice events it looks at the shard — one atomic load; otherwise it
// costs a counter increment. A ready node makes it step aside at once,
// keeping its turn: it runs again as soon as the shard has served the
// nodes. Other runnable coroutines end its turn after coroSlice events,
// and it goes to the back of the turn order. The thread runtime calls
// Preempt at every application event, so a thread that only hits in its
// caches cannot starve the homes and the threads its peers wait on, and a
// spin on simulated memory cannot deadlock its shard.
//
//graphite:hotpath
func (c *Coro) Preempt() {
	if c.events++; c.events < nodeSlice {
		return
	}
	c.events = 0
	w := c.sh.waiting.Load()
	if uint32(w) != 0 {
		c.waited += nodeSlice
	} else {
		c.waited = 0
	}
	turnOver := c.waited >= coroSlice
	if w < nodeWaiting && !turnOver {
		return
	}
	for {
		switch s := c.state.Load(); s {
		case coroRunning, coroWoken:
			if c.state.CompareAndSwap(s, coroQueued) {
				// Stepping aside only for ready nodes keeps the turn.
				if turnOver {
					c.waited = 0
				}
				c.sh.readyCoro(c, !turnOver)
				c.suspend()
				return
			}
		default:
			return // unwinding at teardown
		}
	}
}

// suspend switches back to the shard loop; it panics with park.TornDown
// when the coroutine is being stopped.
//
//graphite:hotpath
func (c *Coro) suspend() {
	if !c.yield(struct{}{}) {
		panic(park.TornDown("a blocking call")) //graphite:alloc teardown only: a constant boxed once per stopped thread
	}
}
