package network

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/transport"
)

// holdWorld is a 16-tile contention mesh, its progress window and the
// Nets of tiles 0 and 15.
type holdWorld struct {
	prog     *clock.ProgressWindow
	mesh     *Mesh
	src, dst *Net
}

func newHoldWorld(t *testing.T) *holdWorld {
	t.Helper()
	cfg := config.Default()
	cfg.Tiles = 16
	cfg.MemNet.Kind = config.NetMeshContention
	w := &holdWorld{prog: clock.NewProgressWindow(16)}
	models := NewModels(&cfg, w.prog)
	w.mesh = models.Model(ClassMemory).(*Mesh)
	fab := transport.NewChannelFabric(transport.StripedRoute(1))
	t.Cleanup(func() { fab.Close() })
	tr := fab.Process(0)
	net := func(tile arch.TileID) *Net {
		ep, err := tr.Register(transport.TileEndpoint(tile))
		if err != nil {
			t.Fatal(err)
		}
		n := New(tile, tr, ep, models, w.prog)
		n.SetPrimary(ClassMemory)
		return n
	}
	w.src, w.dst = net(0), net(15)
	return w
}

// burst sends a burst of memory packets from src to dst through a Batch
// — inside a Hold when hold is set — and receives it at dst the same way.
// It returns the arrival times the sends modeled and the packets' times as
// received.
func (w *holdWorld) burst(t *testing.T, hold bool) (sent, got []arch.Cycles) {
	t.Helper()
	b := w.src.NewBatch()
	if hold {
		if b.Hold() != w.prog {
			t.Fatal("Hold did not take the Net's window")
		}
	}
	for i := 0; i < 8; i++ {
		sent = append(sent, b.Send(ClassMemory, 0, 15, uint64(i), make([]byte, 64), arch.Cycles(100+i*7)))
	}
	b.Release()
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	r := w.dst.NewBatch()
	if hold {
		r.Hold()
	}
	var out [16]Packet
	k, _ := r.RecvBurst(out[:])
	r.Release()
	for _, p := range out[:k] {
		got = append(got, p.Time)
	}
	return sent, got
}

// TestBatchHoldModelsAsUnheld: a burst sent and received inside a Hold is
// modeled exactly as one outside it — the same arrival times, the same
// window samples, the same link queues.
func TestBatchHoldModelsAsUnheld(t *testing.T) {
	a, b := newHoldWorld(t), newHoldWorld(t)
	for round := 0; round < 3; round++ {
		sentA, gotA := a.burst(t, false)
		sentB, gotB := b.burst(t, true)
		if len(gotA) != 8 || len(gotB) != 8 {
			t.Fatalf("round %d: received %d and %d packets, want 8", round, len(gotA), len(gotB))
		}
		for i := range sentA {
			if sentA[i] != sentB[i] || gotA[i] != gotB[i] || gotA[i] != sentA[i] {
				t.Fatalf("round %d, packet %d: unheld sent %d received %d, held sent %d received %d",
					round, i, sentA[i], gotA[i], sentB[i], gotB[i])
			}
		}
		if na, nb := a.prog.Now(), b.prog.Now(); na != nb {
			t.Fatalf("round %d: window at %d unheld, %d held", round, na, nb)
		}
		pa, da := a.mesh.contentionStats()
		pb, db := b.mesh.contentionStats()
		if pa != pb || da != db {
			t.Fatalf("round %d: links saw %d packets / %d cycles unheld, %d / %d held", round, pa, da, pb, db)
		}
	}
}

// TestBatchHoldRunsSinksOutside: a sink runs outside the hold, so one that
// sends — a LaxP2P clock probe's reply does — does not wait for the lock
// its own burst holds.
func TestBatchHoldRunsSinksOutside(t *testing.T) {
	w := newHoldWorld(t)
	replied := 0
	w.dst.SetSink(ClassSystem, func(p Packet, ok bool) {
		if ok {
			w.dst.Send(ClassMemory, 0, 0, p.Seq, nil, p.Time)
			replied++
		}
	})
	w.src.Send(ClassSystem, 0, 15, 1, nil, 10)
	w.src.Send(ClassMemory, 0, 15, 2, nil, 20)
	r := w.dst.NewBatch()
	r.Hold()
	var out [4]Packet
	k, open := r.RecvBurst(out[:])
	r.Release()
	if k != 1 || !open || replied != 1 {
		t.Fatalf("RecvBurst = %d packets, open %v, %d sink replies; want 1, true, 1", k, open, replied)
	}
}
