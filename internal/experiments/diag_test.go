package experiments

import (
	"fmt"
	"testing"

	"repro/internal/config"
	"repro/internal/core"
)

func TestDiagFig9Shape(t *testing.T) {
	for _, sch := range Fig9Schemes() {
		base := 0.0
		fmt.Printf("%-11s:", sch.Label)
		for _, tiles := range []int{1, 2, 4, 8, 16, 32} {
			cfg := baseConfig(tiles)
			cfg.Coherence = config.CoherenceConfig{Kind: sch.Kind, DirPointers: sch.Ptrs, TrapLatency: 100, DirLatency: 10}
			rs := bounded(t, func() (*core.RunStats, error) {
				rs, _, err := runOnce("blackscholes", tiles, 10, cfg)
				return rs, err
			})
			if base == 0 {
				base = float64(rs.SimulatedCycles)
			}
			fmt.Printf(" %5.2fx", base/float64(rs.SimulatedCycles))
		}
		fmt.Println()
	}
}
