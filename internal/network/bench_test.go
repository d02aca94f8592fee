package network

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
)

var sinkCycles arch.Cycles

// BenchmarkMeshDelayContention times one packet's route through the
// contention model on the paper's Fig 5 mesh (32x32): the 62-hop
// corner-to-corner route and seeded random pairs (about 21 hops on
// average), from one goroutine and from GOMAXPROCS at once — the shape a
// multi-worker simulation gives the shared model. 0 allocs/op.
func BenchmarkMeshDelayContention(b *testing.B) {
	const tiles = 1024
	pairs := make([][2]arch.TileID, 4096)
	rng := rand.New(rand.NewSource(1))
	for i := range pairs {
		pairs[i] = [2]arch.TileID{arch.TileID(rng.Intn(tiles)), arch.TileID(rng.Intn(tiles))}
	}
	routes := []struct {
		name string
		pair func(i int) (src, dst arch.TileID)
	}{
		{"corner", func(int) (arch.TileID, arch.TileID) { return 0, tiles - 1 }},
		{"random", func(i int) (arch.TileID, arch.TileID) { p := pairs[i%len(pairs)]; return p[0], p[1] }},
	}
	for _, r := range routes {
		b.Run(r.name+"/sequential", func(b *testing.B) {
			m := newMesh(meshCfg(config.NetMeshContention), tiles, clock.NewProgressWindow(tiles))
			b.ReportAllocs()
			b.ResetTimer()
			var d arch.Cycles
			for i := 0; i < b.N; i++ {
				src, dst := r.pair(i)
				d += m.Delay(src, dst, 94, arch.Cycles(i)*10)
			}
			sinkCycles = d
		})
		b.Run(r.name+"/parallel", func(b *testing.B) {
			m := newMesh(meshCfg(config.NetMeshContention), tiles, clock.NewProgressWindow(tiles))
			var worker atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var d arch.Cycles
				for i := int(worker.Add(1)) * 1009; pb.Next(); i++ {
					src, dst := r.pair(i)
					d += m.Delay(src, dst, 94, arch.Cycles(i)*10)
				}
				if d < 0 {
					b.Error("negative total delay")
				}
			})
		})
	}
}
