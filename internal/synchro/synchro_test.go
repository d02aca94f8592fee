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

func newTestP2P(self arch.TileID, tiles int, partnerClock arch.Cycles, probed *[]arch.TileID, naps *[]time.Duration) *p2p {
	cfg := config.SyncConfig{P2PSlack: 1000, P2PInterval: 100}
	m := NewP2P(cfg, self, tiles, 42,
		func(target arch.TileID) (arch.Cycles, bool) {
			*probed = append(*probed, target)
			return partnerClock, true
		},
		func(d time.Duration) { *naps = append(*naps, d) },
	).(*p2p)
	// Deterministic wall clock: 1 second since start.
	start := time.Now()
	m.start = start
	m.nowFn = func() time.Time { return start.Add(time.Second) }
	return m
}

func TestP2PSleepsWhenAhead(t *testing.T) {
	var probed []arch.TileID
	var naps []time.Duration
	m := newTestP2P(0, 4, 1000, &probed, &naps)
	m.Tick(100_000) // we are at 100k, partner at 1k: 99k ahead >> slack
	if len(probed) != 1 {
		t.Fatalf("probes = %v", probed)
	}
	if len(naps) != 1 {
		t.Fatal("no nap despite being far ahead")
	}
	// rate = 100_000 cycles/sec, lead = 99_000 -> nap 0.99 s, capped at
	// maxNap (100 ms).
	if naps[0] != m.maxNap {
		t.Fatalf("nap = %v, want cap %v", naps[0], m.maxNap)
	}
}

func TestP2PNoSleepWithinSlack(t *testing.T) {
	var probed []arch.TileID
	var naps []time.Duration
	m := newTestP2P(0, 4, 99_500, &probed, &naps)
	m.Tick(100_000) // only 500 ahead, slack is 1000
	if len(naps) != 0 {
		t.Fatalf("napped within slack: %v", naps)
	}
}

func TestP2PNoSleepWhenBehind(t *testing.T) {
	var probed []arch.TileID
	var naps []time.Duration
	m := newTestP2P(0, 4, 10_000_000, &probed, &naps)
	m.Tick(100_000)
	if len(naps) != 0 {
		t.Fatalf("napped while behind: %v", naps)
	}
}

func TestP2PRespectsInterval(t *testing.T) {
	var probed []arch.TileID
	var naps []time.Duration
	m := newTestP2P(0, 4, 0, &probed, &naps)
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
	var naps []time.Duration
	m := newTestP2P(2, 8, 0, &probed, &naps)
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
	var naps []time.Duration
	m := newTestP2P(0, 1, 0, &probed, &naps)
	m.Tick(1_000_000)
	if len(probed) != 0 {
		t.Fatal("single-tile simulation probed")
	}
}

func TestNapFor(t *testing.T) {
	if d := napFor(1000, 1000); d != time.Second {
		t.Fatalf("napFor(1000 cycles, 1000 cyc/s) = %v, want 1s", d)
	}
	if d := napFor(500, 1000); d != 500*time.Millisecond {
		t.Fatalf("NapFor = %v", d)
	}
	if napFor(-5, 1000) != 0 || napFor(100, 0) != 0 {
		t.Fatal("degenerate inputs must nap 0")
	}
}

func TestP2PRateAnchorsAtFirstTick(t *testing.T) {
	var naps []time.Duration
	cfg := config.SyncConfig{P2PSlack: 1000, P2PInterval: 100}
	m := NewP2P(cfg, 0, 2, 7,
		func(arch.TileID) (arch.Cycles, bool) { return 0, true }, // partner far behind
		func(d time.Duration) { naps = append(naps, d) },
	).(*p2p)
	now := time.Unix(1000, 0)
	m.nowFn = func() time.Time { return now }
	m.maxNap = time.Hour // expose the raw nap computation

	// A thread spawned mid-simulation inherits a clock of 1M cycles. Its
	// first Tick must open the rate-measurement window here — zero elapsed
	// wall time, 1M-cycle baseline — so no rate exists yet and no nap is
	// taken even though the partner is far behind.
	m.Tick(1_000_000)
	if len(naps) != 0 {
		t.Fatalf("napped on the anchoring tick: %v", naps)
	}

	// One real second later it has executed 100k further cycles: the rate
	// is 100k cycles/sec measured from the first Tick. The old
	// construction-time anchor folded the inherited 1M cycles into the
	// rate (1.1M cyc/s here — 11x overstated), cutting naps to a
	// fraction of what the partner needs to catch up.
	now = now.Add(time.Second)
	m.Tick(1_100_000)
	if len(naps) != 1 {
		t.Fatalf("naps = %v, want exactly one", naps)
	}
	if want := napFor(1_100_000, 100_000); naps[0] != want {
		t.Fatalf("nap = %v, want %v (rate measured from first tick)", naps[0], want)
	}
}
