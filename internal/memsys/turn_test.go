package memsys

import (
	"encoding/binary"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/checkpoint"
	"repro/internal/simtest"
)

// goThread runs body as a thread coroutine of node n, parking its misses
// on the coroutine as core.Proc does, and returns a channel closed once
// the coroutine has ended.
func goThread(n *Node, body func(c *Coro)) <-chan struct{} {
	done := make(chan struct{})
	n.Go(func(c *Coro) {
		n.SetParker(c)
		body(c)
	}, func() {
		n.SetParker(nil)
		close(done)
	})
	return done
}

// spinUntilSet reads the word at addr on node n until it is nonzero,
// stepping aside at every read as a thread does at every event, and
// returns the value and the number of reads.
func spinUntilSet(n *Node, co *Coro, addr arch.Addr) (v uint64, reads int) {
	buf := make([]byte, 8)
	for v == 0 {
		reads++
		n.Read(addr, buf, arch.Cycles(reads))
		v = binary.LittleEndian.Uint64(buf)
		co.Preempt()
	}
	return v, reads
}

// writeOne stores 1 at addr from node n.
func writeOne(n *Node, addr arch.Addr) {
	v := make([]byte, 8)
	binary.LittleEndian.PutUint64(v, 1)
	n.Write(addr, v, 0)
}

// TestTurnSetAsideServesInterventions: one shard serves every tile. A
// thread on tile 0 caches a line homed at tile 2, starts a writer on tile
// 1 and spins on hits; the writer's store needs tile 0's copy
// invalidated. The spinner's turn holds tile 0's core domain, so the
// invalidation can only be applied while the spinner is stepped aside at
// Preempt: if the turn kept the word there, the invalidation would wait
// in the mailbox behind a thread that never misses, and the spin would
// never see the new value.
func TestTurnSetAsideServesInterventions(t *testing.T) {
	c := newShardedCluster(t, testConfig(3), 1)
	const addr = arch.Addr(2 * 64) // line 2, homed at tile 2
	n0, n1 := c.nodes[0], c.nodes[1]
	var got uint64
	var reads int
	var wrote <-chan struct{}
	spun := goThread(n0, func(co *Coro) {
		n0.Read(addr, make([]byte, 8), 0) // cold miss: the line is Shared here now
		wrote = goThread(n1, func(*Coro) { writeOne(n1, addr) })
		got, reads = spinUntilSet(n0, co, addr)
	})
	simtest.Deadline(t, 30*time.Second, func() {
		<-spun
		<-wrote
	})
	if got != 1 || reads < 2 {
		t.Fatalf("spinner read %d after %d reads, want 1 after spinning on hits", got, reads)
	}
	if !n0.Quiesced() || !n1.Quiesced() {
		t.Fatal("a tile's word is still held after its thread ended")
	}
}

// TestTurnDrainsWhatQueuedBehindItsMiss: tiles 0 and 2 share a shard,
// the line's home, tile 1, has the other. The home is held in a control
// function until the spinner's read (tile 0) and the writer's store
// (tile 2) both wait on it, so it grants the spinner its copy and
// invalidates that copy in one burst, and both reach tile 0 in one burst
// too: the invalidation queues behind the miss's hand-off. The spinner's
// turn then goes on with no node ready and no thread runnable, so it
// never steps aside: unless the miss drains what queued behind its grant,
// the spinner hits on its stale copy for ever.
func TestTurnDrainsWhatQueuedBehindItsMiss(t *testing.T) {
	c := newShardedCluster(t, testConfig(4), 2)
	const addr = arch.Addr(1 * 64) // line 1, homed at tile 1
	n0, home, n2 := c.nodes[0], c.nodes[1], c.nodes[2]
	held, release := make(chan struct{}), make(chan struct{})
	if err := home.EnqueueCtrl(func() {
		close(held)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	staged := func(n *Node) bool {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.pending != nil // sent under mu, so it is in the home's endpoint
	}

	var got uint64
	simtest.Deadline(t, 30*time.Second, func() {
		<-held
		spun := goThread(n0, func(co *Coro) { got, _ = spinUntilSet(n0, co, addr) })
		wrote := goThread(n2, func(*Coro) { writeOne(n2, addr) })
		for !staged(n0) || !staged(n2) {
			time.Sleep(time.Millisecond)
		}
		close(release)
		<-spun
		<-wrote
	})
	if got != 1 {
		t.Fatalf("spinner read %d, want 1", got)
	}
}

// TestCaptureFindsTurnHeld: the word is set whenever the core context may
// touch the caches. A thread's turn holds it between accesses too, so a
// capture attempted while the turn is open finds the tile not quiesced,
// though the thread's last access was a hit long done. A plain goroutine
// driving a node holds the word for an access only.
func TestCaptureFindsTurnHeld(t *testing.T) {
	c := newShardedCluster(t, testConfig(2), 1)
	n0, n1 := c.nodes[0], c.nodes[1]
	buf := make([]byte, 8)
	n1.Write(0x40, buf, 0)
	n1.Read(0x40, buf, 10) // a hit, by a plain goroutine
	if !n1.Quiesced() {
		t.Fatal("a plain goroutine's access left the word held")
	}

	var capErr error
	var quiesced bool
	done := goThread(n0, func(*Coro) {
		n0.Write(0x80, buf, 0)
		n0.Read(0x80, buf, 10) // a hit
		quiesced = n0.Quiesced()
		capErr = n0.Capture(&checkpoint.TileState{})
	})
	simtest.Deadline(t, 30*time.Second, func() { <-done })
	if quiesced {
		t.Error("Quiesced reported a tile at rest while its thread's turn was open")
	}
	if capErr == nil || !strings.Contains(capErr.Error(), "core active") {
		t.Errorf("capture during the turn: %v, want the core-active error", capErr)
	}
	if !n0.Quiesced() {
		t.Error("the word is still held after the thread ended")
	}
}

// TestHoldServesTheHoldersNodeAlone: one shard serves every tile. While
// a thread on tile 0 waits holding the shard, neither a thread started on
// tile 1 nor a control function queued there runs; a control function on
// tile 0 does, and waking the holder ends the hold. Then the shard goes
// on in its usual order: the ready node, then the threads in the order
// they became runnable.
func TestHoldServesTheHoldersNodeAlone(t *testing.T) {
	c := newShardedCluster(t, testConfig(2), 1)
	var mu sync.Mutex
	var order []string
	note := func(s string) {
		mu.Lock()
		order = append(order, s)
		mu.Unlock()
	}
	ran := func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), order...)
	}
	holding := make(chan *Coro, 1)
	simtest.Deadline(t, 30*time.Second, func() {
		holderDone := goThread(c.nodes[0], func(co *Coro) {
			co.Hold()
			holding <- co
			co.Park()
			note("holder")
		})
		holder := <-holding
		otherDone := goThread(c.nodes[1], func(*Coro) { note("thread 1") })
		if err := c.nodes[1].EnqueueCtrl(func() { note("ctrl 1") }); err != nil {
			t.Error(err)
		}
		time.Sleep(20 * time.Millisecond)
		if got := ran(); len(got) != 0 {
			t.Errorf("during the hold %v ran, want nothing", got)
		}
		if err := c.nodes[0].EnqueueCtrl(func() {
			note("ctrl 0")
			holder.Unpark()
		}); err != nil {
			t.Error(err)
		}
		<-holderDone
		<-otherDone
	})
	if got, want := strings.Join(ran(), ", "), "ctrl 0, ctrl 1, thread 1, holder"; got != want {
		t.Fatalf("ran %s, want %s", got, want)
	}
}
