package synchro

import (
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/simtest"
)

// batchRecorder captures flushed batches.
type batchRecorder struct {
	mu      sync.Mutex
	batches [][]EpochWait
}

func (r *batchRecorder) flush(ws []EpochWait) {
	r.mu.Lock()
	cp := append([]EpochWait(nil), ws...)
	r.batches = append(r.batches, cp)
	r.mu.Unlock()
}

func (r *batchRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.batches)
}

func (r *batchRecorder) last() []EpochWait {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.batches) == 0 {
		return nil
	}
	cp := append([]EpochWait(nil), r.batches[len(r.batches)-1]...)
	sort.Slice(cp, func(i, j int) bool { return cp[i].Tile < cp[j].Tile })
	return cp
}

// wait runs l.Wait on its own goroutine and returns a channel closed when
// it returns.
func wait(l *Ledger, tile arch.TileID, epoch int64) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		l.Wait(tile, epoch)
		close(done)
	}()
	return done
}

func settle() { time.Sleep(10 * time.Millisecond) }

func TestLedgerFlushesWhenAllActiveWait(t *testing.T) {
	rec := &batchRecorder{}
	l := NewLedger(rec.flush)
	l.ThreadStarted(0)
	l.ThreadStarted(1)

	d0 := wait(l, 0, 3)
	settle()
	// Tile 1 still runs: tile 0's wait must be held locally.
	if rec.count() != 0 {
		t.Fatalf("flushed with a thread running: %v", rec.batches)
	}
	d1 := wait(l, 1, 3)
	settle()
	if rec.count() != 1 {
		t.Fatalf("flush count %d, want 1", rec.count())
	}
	got := rec.last()
	want := []EpochWait{{Tile: 0, Epoch: 3}, {Tile: 1, Epoch: 3}}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("batch %v, want %v", got, want)
	}

	l.Release(3)
	<-d0
	<-d1
}

func TestLedgerBlockedThreadCompletesRound(t *testing.T) {
	rec := &batchRecorder{}
	l := NewLedger(rec.flush)
	l.ThreadStarted(0)
	l.ThreadStarted(1)

	d0 := wait(l, 0, 1)
	settle()
	if rec.count() != 0 {
		t.Fatal("premature flush")
	}
	// Tile 1 blocks in a control-plane RPC: it cannot wait this round, so
	// the ledger must forward tile 0's wait now (the MCP excludes blocked
	// threads from its release condition).
	l.SetBlocked(1, true, false)
	settle()
	if rec.count() != 1 {
		t.Fatalf("flush count %d after block, want 1", rec.count())
	}
	if got := rec.last(); len(got) != 1 || got[0] != (EpochWait{Tile: 0, Epoch: 1}) {
		t.Fatalf("batch %v", got)
	}
	// Unblocking must not re-send anything.
	l.SetBlocked(1, false, false)
	settle()
	if rec.count() != 1 {
		t.Fatal("unblock triggered a flush")
	}
	// Tile 1 reaches the barrier later: a second batch with only its wait.
	d1 := wait(l, 1, 1)
	settle()
	if rec.count() != 2 {
		t.Fatalf("flush count %d, want 2", rec.count())
	}
	if got := rec.last(); len(got) != 1 || got[0] != (EpochWait{Tile: 1, Epoch: 1}) {
		t.Fatalf("batch %v", got)
	}

	l.Release(1)
	<-d0
	<-d1
}

// TestLedgerReportsReceiveOncePerEpisode: a thread blocked in an
// application receive completes the round, and the batch that completes
// it carries the tile once, as Epoch -1 — the MCP cannot otherwise tell it
// from a running thread. Later rounds during the same receive do not
// repeat it; the next receive does.
func TestLedgerReportsReceiveOncePerEpisode(t *testing.T) {
	simtest.Deadline(t, time.Minute, func() {
		rec := &batchRecorder{}
		l := NewLedger(rec.flush)
		for tile := arch.TileID(0); tile < 3; tile++ {
			l.ThreadStarted(tile)
		}
		check := func(step string, count int, want ...EpochWait) {
			settle()
			if rec.count() != count {
				t.Errorf("%s: %d batches, want %d", step, rec.count(), count)
				return
			}
			if got := rec.last(); len(want) > 0 && !slices.Equal(got, want) {
				t.Errorf("%s: batch %v, want %v", step, got, want)
			}
		}

		d0 := wait(l, 0, 2)
		l.SetBlocked(1, true, true)
		check("tile 2 still runs", 0)
		d2 := wait(l, 2, 2)
		check("round complete", 1, EpochWait{0, 2}, EpochWait{1, -1}, EpochWait{2, 2})

		l.Release(2)
		<-d0
		<-d2
		d0, d2 = wait(l, 0, 3), wait(l, 2, 3)
		check("same receive, next round", 2, EpochWait{0, 3}, EpochWait{2, 3})

		l.SetBlocked(1, false, false)
		check("receive ends", 2)
		l.SetBlocked(1, true, true)
		check("next receive", 3, EpochWait{1, -1})

		l.Release(3)
		<-d0
		<-d2
	})
}

func TestLedgerReleaseWakesExactEpochOnly(t *testing.T) {
	rec := &batchRecorder{}
	l := NewLedger(rec.flush)
	l.ThreadStarted(0)
	l.ThreadStarted(1)

	d0 := wait(l, 0, 2) // straggler epoch
	d1 := wait(l, 1, 5) // jumped ahead
	settle()
	l.Release(2)
	<-d0
	select {
	case <-d1:
		t.Fatal("epoch-5 waiter woken by epoch-2 release")
	case <-time.After(10 * time.Millisecond):
	}
	l.Release(5)
	<-d1
}

func TestLedgerThreadExitCompletesRound(t *testing.T) {
	rec := &batchRecorder{}
	l := NewLedger(rec.flush)
	l.ThreadStarted(0)
	l.ThreadStarted(1)

	d0 := wait(l, 0, 1)
	settle()
	if rec.count() != 0 {
		t.Fatal("premature flush")
	}
	l.ThreadExited(1)
	settle()
	if rec.count() != 1 {
		t.Fatalf("flush count %d after exit, want 1", rec.count())
	}
	l.Release(1)
	<-d0
}

func TestLedgerCloseWakesAndDisables(t *testing.T) {
	rec := &batchRecorder{}
	l := NewLedger(rec.flush)
	l.ThreadStarted(0)
	l.ThreadStarted(1)
	d0 := wait(l, 0, 1)
	l.Close()
	select {
	case <-d0:
	case <-time.After(time.Second):
		t.Fatal("Close did not wake parked waiter")
	}
	// Post-close waits return immediately instead of parking forever.
	done := wait(l, 1, 2)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("post-close Wait parked")
	}
}
