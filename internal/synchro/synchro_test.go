package synchro

import (
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
)

func TestBarrierWaitsAtQuantumBoundaries(t *testing.T) {
	var epochs []int64
	m := NewBarrier(1000, func(e int64) { epochs = append(epochs, e) })
	m.Tick(500) // before first boundary: no wait
	if len(epochs) != 0 {
		t.Fatalf("waited before quantum: %v", epochs)
	}
	m.Tick(1000) // boundary 1
	m.Tick(3500) // clock jumped to epoch 3: waits there directly
	want := []int64{1, 3}
	if len(epochs) != len(want) {
		t.Fatalf("epochs = %v, want %v", epochs, want)
	}
	for i := range want {
		if epochs[i] != want[i] {
			t.Fatalf("epochs = %v, want %v", epochs, want)
		}
	}
	// No re-wait within an already-reached epoch.
	m.Tick(3600)
	if len(epochs) != 2 {
		t.Fatalf("re-waited: %v", epochs)
	}
	// Monotonic progress: steady ticking waits at each new boundary.
	m.Tick(4000)
	m.Tick(5000)
	if epochs[len(epochs)-1] != 5 || len(epochs) != 4 {
		t.Fatalf("epochs = %v", epochs)
	}
}

func TestBarrierZeroQuantumSafe(t *testing.T) {
	m := NewBarrier(0, func(int64) {})
	m.Tick(5) // must not divide by zero or loop forever
}

// newTestP2P builds a LaxP2P model whose partners all read the clocks
// in partner, one per probe, the last repeating; waits counts the holds'
// waits.
func newTestP2P(self arch.TileID, tiles int, partner []arch.Cycles, probed *[]arch.TileID, waits *int) *p2p {
	cfg := config.SyncConfig{P2PSlack: 1000, P2PInterval: 100}
	return NewP2P(cfg, self, tiles, 42,
		func(target arch.TileID) (arch.Cycles, bool) {
			*probed = append(*probed, target)
			c := partner[0]
			if len(partner) > 1 {
				partner = partner[1:]
			}
			return c, true
		},
		func(time.Duration) { *waits++ },
	).(*p2p)
}

// TestP2PHoldsUntilPartnerCatchesUp: a partner that is within the slack
// after k waits causes exactly k waits, each followed by a probe of the
// same partner.
func TestP2PHoldsUntilPartnerCatchesUp(t *testing.T) {
	for k := 1; k <= 4; k++ {
		var probed []arch.TileID
		waits := 0
		// We are at 100k; the partner reads 1k, then creeps up, and is
		// within the slack (99k) from probe k+1 on.
		clocks := make([]arch.Cycles, 0, k+1)
		for i := 0; i < k; i++ {
			clocks = append(clocks, arch.Cycles(1000+i*1000))
		}
		clocks = append(clocks, 99_000)
		m := newTestP2P(0, 4, clocks, &probed, &waits)
		m.Tick(100_000)
		if waits != k {
			t.Fatalf("k=%d: %d waits", k, waits)
		}
		if len(probed) != k+1 {
			t.Fatalf("k=%d: %d probes, want %d", k, len(probed), k+1)
		}
		for _, p := range probed {
			if p != probed[0] {
				t.Fatalf("k=%d: hold probed %v, not one partner", k, probed)
			}
		}
	}
}

// TestP2PHoldEndsWhenPartnerStops: a probe that is not ok (the partner
// waits, or has no thread) ends the hold.
func TestP2PHoldEndsWhenPartnerStops(t *testing.T) {
	probes, waits := 0, 0
	cfg := config.SyncConfig{P2PSlack: 1000, P2PInterval: 100}
	m := NewP2P(cfg, 0, 4, 42,
		func(arch.TileID) (arch.Cycles, bool) {
			probes++
			return 0, probes < 3 // behind twice, then not running
		},
		func(time.Duration) { waits++ },
	)
	m.Tick(100_000)
	if probes != 3 || waits != 2 {
		t.Fatalf("%d probes and %d waits, want 3 and 2", probes, waits)
	}
}

func TestP2PNoSleepWithinSlack(t *testing.T) {
	var probed []arch.TileID
	waits := 0
	m := newTestP2P(0, 4, []arch.Cycles{99_000}, &probed, &waits)
	m.Tick(100_000) // exactly the slack ahead
	if waits != 0 || len(probed) != 1 {
		t.Fatalf("%d waits and %d probes within the slack, want 0 and 1", waits, len(probed))
	}
}

func TestP2PNoSleepWhenBehind(t *testing.T) {
	var probed []arch.TileID
	waits := 0
	m := newTestP2P(0, 4, []arch.Cycles{10_000_000}, &probed, &waits)
	m.Tick(100_000)
	if waits != 0 {
		t.Fatalf("held while behind: %d waits", waits)
	}
}

func TestP2PRespectsInterval(t *testing.T) {
	var probed []arch.TileID
	waits := 0
	m := newTestP2P(0, 4, []arch.Cycles{0}, &probed, &waits)
	m.Tick(100)
	m.Tick(150) // within interval of the last probe
	if len(probed) != 1 {
		t.Fatalf("probed %d times, want 1", len(probed))
	}
	m.Tick(250)
	if len(probed) != 2 {
		t.Fatalf("probed %d times, want 2", len(probed))
	}
}

func TestP2PNeverProbesSelf(t *testing.T) {
	var probed []arch.TileID
	waits := 0
	m := newTestP2P(2, 8, []arch.Cycles{1 << 40}, &probed, &waits)
	for i := 1; i <= 200; i++ {
		m.Tick(arch.Cycles(i * 100))
	}
	for _, p := range probed {
		if p == 2 {
			t.Fatal("tile probed itself")
		}
		if p < 0 || p >= 8 {
			t.Fatalf("probe target %v out of range", p)
		}
	}
	if len(probed) == 0 {
		t.Fatal("no probes")
	}
}

func TestP2PSingleTileNoop(t *testing.T) {
	var probed []arch.TileID
	waits := 0
	m := newTestP2P(0, 1, []arch.Cycles{0}, &probed, &waits)
	m.Tick(1_000_000)
	if len(probed) != 0 {
		t.Fatal("single-tile simulation probed")
	}
}
