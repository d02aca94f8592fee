// Ablation benches for the design choices called out in DESIGN.md, and
// throughput benches that keep the simulator's own allocation behaviour
// visible (the Go-GC concern). The paper's tables and figures are
// cmd/graphite-sweep -exp; internal/experiments tests each at its Quick
// preset.
package graphite_test

import (
	"testing"

	graphite "repro"
	"repro/internal/config"
	"repro/internal/workloads"
)

// runBench executes one workload under cfg once per iteration.
func runBench(b *testing.B, name string, threads, scale int, cfg graphite.Config) *graphite.RunStats {
	b.Helper()
	w, ok := workloads.Get(name)
	if !ok {
		b.Fatalf("unknown workload %s", name)
	}
	var last *graphite.RunStats
	for i := 0; i < b.N; i++ {
		rs, err := graphite.Run(cfg, w.Build(workloads.Params{Threads: threads, Scale: scale}), 0)
		if err != nil {
			b.Fatal(err)
		}
		last = rs
	}
	return last
}

func quickCfg(tiles int) graphite.Config {
	cfg := graphite.DefaultConfig()
	cfg.Tiles = tiles
	cfg.L1I = graphite.CacheConfig{Enabled: false}
	cfg.L1D = graphite.CacheConfig{Enabled: true, Size: 16 << 10, Assoc: 8, LineSize: 64, HitLatency: 1}
	cfg.L2 = graphite.CacheConfig{Enabled: true, Size: 256 << 10, Assoc: 8, LineSize: 64, HitLatency: 8}
	return cfg
}

// BenchmarkAblationContentionModel compares the mesh network with and
// without the analytical contention model (DESIGN.md decision 5): the
// contention model must raise modeled memory latency under load without
// wrecking simulator throughput.
func BenchmarkAblationContentionModel(b *testing.B) {
	for _, kind := range []struct {
		name string
		k    config.NetworkModelKind
	}{{"hop", config.NetMeshHop}, {"contention", config.NetMeshContention}} {
		b.Run(kind.name, func(b *testing.B) {
			cfg := quickCfg(8)
			cfg.MemNet.Kind = kind.k
			rs := runBench(b, "ocean_cont", 8, 24, cfg)
			b.ReportMetric(rs.Totals.AvgMemLatency(), "avg-mem-latency-cycles")
		})
	}
}

// BenchmarkAblationStoreBuffer compares store-buffer sizes (paper §3.1's
// configurable store buffers): without one, store latency lands on the
// critical path and simulated cycles rise.
func BenchmarkAblationStoreBuffer(b *testing.B) {
	for _, sb := range []int{0, 8} {
		b.Run(map[int]string{0: "disabled", 8: "size8"}[sb], func(b *testing.B) {
			cfg := quickCfg(8)
			cfg.Core.StoreBufferSize = sb
			rs := runBench(b, "radix", 8, 9, cfg)
			b.ReportMetric(float64(rs.SimulatedCycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationP2PSlack sweeps the LaxP2P slack (paper §4.3 notes the
// accuracy/performance trade-off is tunable).
func BenchmarkAblationP2PSlack(b *testing.B) {
	for _, slack := range []graphite.Cycles{1_000, 100_000} {
		b.Run(map[graphite.Cycles]string{1_000: "slack1k", 100_000: "slack100k"}[slack], func(b *testing.B) {
			cfg := quickCfg(8)
			cfg.Sync.Model = graphite.LaxP2P
			cfg.Sync.P2PSlack = slack
			cfg.Sync.P2PInterval = 1_000
			rs := runBench(b, "ocean_cont", 8, 24, cfg)
			b.ReportMetric(float64(rs.SimulatedCycles), "sim-cycles")
		})
	}
}

// BenchmarkAblationProgressWindow sweeps the global-progress window size
// (paper §3.6.1: sized on the order of the tile count to damp outliers).
func BenchmarkAblationProgressWindow(b *testing.B) {
	for _, win := range []int{1, 32} {
		b.Run(map[int]string{1: "win1", 32: "win32"}[win], func(b *testing.B) {
			cfg := quickCfg(8)
			cfg.ProgressWindow = win
			rs := runBench(b, "radix", 8, 9, cfg)
			b.ReportMetric(rs.Totals.AvgMemLatency(), "avg-mem-latency-cycles")
		})
	}
}

// BenchmarkAblationCoreModel compares the in-order and out-of-order core
// models (paper §3.1: swappable core models over the same functional
// execution): the OoO window hides load latency, so simulated cycles drop.
func BenchmarkAblationCoreModel(b *testing.B) {
	for _, kind := range []struct {
		name string
		k    config.CoreModelKind
	}{{"inorder", config.CoreInOrder}, {"ooo", config.CoreOutOfOrder}} {
		b.Run(kind.name, func(b *testing.B) {
			cfg := quickCfg(8)
			cfg.Core.Kind = kind.k
			cfg.Core.ROBWindow = 64
			rs := runBench(b, "ocean_cont", 8, 24, cfg)
			b.ReportMetric(float64(rs.SimulatedCycles), "sim-cycles")
		})
	}
}

// BenchmarkSimThroughputRadix measures end-to-end simulator throughput on
// one representative kernel (simulated instructions per wall second and
// allocations — the GC-pressure watchdog).
func BenchmarkSimThroughputRadix(b *testing.B) {
	b.ReportAllocs()
	cfg := quickCfg(8)
	rs := runBench(b, "radix", 8, 9, cfg)
	b.ReportMetric(float64(rs.Totals.Instructions)/rs.Wall.Seconds(), "sim-instr/sec")
}

// BenchmarkSimThroughputMatmul is the compute-heavy counterpart.
func BenchmarkSimThroughputMatmul(b *testing.B) {
	b.ReportAllocs()
	cfg := quickCfg(4)
	rs := runBench(b, "matmul", 4, 16, cfg)
	b.ReportMetric(float64(rs.Totals.Instructions)/rs.Wall.Seconds(), "sim-instr/sec")
}
