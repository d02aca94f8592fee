// Package park is the one wait/wake seam of the simulator's blocking
// primitives: a memory node's miss, a tile's application receive, and a
// LaxBarrier wait at the process ledger. Each primitive decides under its
// own lock whether to wait and who wakes it; only the wait itself goes
// through a Parker. A plain goroutine — a test, or a benchmark fixture
// driving a memory node directly — parks by blocking. An application
// thread is a coroutine of the memory-server shard that serves its tile
// (memsys.Coro): it parks by yielding to that shard, which resumes it once
// it is woken.
package park

import (
	"fmt"
	"io"
	"slices"
	"sync"
)

// Parker blocks and wakes one context.
type Parker interface {
	// Park blocks the calling context until Unpark is called. A wake that
	// arrives before Park is not lost: Park then returns at once. Park
	// may also return without a matching Unpark, so every caller
	// re-checks its own condition in a loop.
	Park()
	// Unpark wakes the context, from any goroutine. It never blocks.
	Unpark()
}

// Chan is the Parker of a plain goroutine: a one-slot token channel.
type Chan chan struct{}

// NewChan returns a Chan with no wake pending.
func NewChan() Chan { return make(Chan, 1) }

// Park receives the token.
func (c Chan) Park() { <-c }

// Unpark leaves the token unless one is already waiting.
func (c Chan) Unpark() {
	select {
	case c <- struct{}{}:
	default:
	}
}

// TornDown is the panic value a blocking call throws in an application
// thread when the simulation is dismantled under it: teardown of a wedged
// or recovering run closes the transport and stops suspended threads,
// whose wait can then never complete. The thread's coroutine recovers
// exactly this type in its top frame and ends quietly; any other panic is
// an application or simulator bug and propagates.
type TornDown string

func (e TornDown) Error() string {
	return "graphite: simulation torn down during " + string(e)
}

// Who waits for what is model state no goroutine stack shows once
// threads are coroutines. Every live simulation registers a reporter that
// writes it (core.Cluster); a wedged test prints them all (simtest).
var reporters struct {
	mu   sync.Mutex
	next int
	fns  map[int]func(io.Writer)
}

// Watch registers fn to describe a live simulation's waits; the returned
// function unregisters it.
func Watch(fn func(w io.Writer)) (unwatch func()) {
	reporters.mu.Lock()
	defer reporters.mu.Unlock()
	if reporters.fns == nil {
		reporters.fns = make(map[int]func(io.Writer))
	}
	id := reporters.next
	reporters.next++
	reporters.fns[id] = fn
	return func() {
		reporters.mu.Lock()
		delete(reporters.fns, id)
		reporters.mu.Unlock()
	}
}

// Report writes what every watched simulation waits for, oldest first.
func Report(w io.Writer) {
	reporters.mu.Lock()
	ids := make([]int, 0, len(reporters.fns))
	//graphite:maporder the ids are sorted before use
	for id := range reporters.fns {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	fns := make([]func(io.Writer), len(ids))
	for i, id := range ids {
		fns[i] = reporters.fns[id]
	}
	reporters.mu.Unlock()
	for i, fn := range fns {
		fmt.Fprintf(w, "simulation %d:\n", i)
		fn(w)
	}
}
