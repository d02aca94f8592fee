package experiments

import (
	"io"

	"repro/internal/scenario"
	"repro/internal/stats"
)

// Fig8Point is the miss-rate breakdown of one (benchmark, line size) cell.
type Fig8Point struct {
	Benchmark string
	LineSize  int
	// Rates are classified misses per memory reference, by kind.
	Rates [stats.NumMissKinds]float64
	// Total is the overall classified miss rate.
	Total float64
	// Upgrades is the S->M upgrade rate (not part of the 4-way split).
	Upgrades float64
}

// Fig8Result reproduces Figure 8: the breakdown of cache misses by type as
// the line size varies, using the paper's §4.4 memory configuration — L1
// caches disabled and a 1 MB 4-way L2 taking all references.
type Fig8Result struct {
	Points    []Fig8Point
	LineSizes []int
}

// Fig8Scenario expresses the miss-rate characterization declaratively:
// the §4.4 memory system (preset "l2-only") with a single grid sweeping
// benchmark × line size. Runs are independent and the metric is
// simulated (miss counters, not wall time), so the runner executes them
// host-parallel.
func Fig8Scenario(pr Preset, benchmarks []string, lineSizes []int, tiles, l2Size int) *scenario.Scenario {
	return &scenario.Scenario{
		Name:   "fig8",
		Preset: "l2-only",
		Size:   pr.String(),
		Base:   map[string]any{"Tiles": tiles, "L2.Size": l2Size},
		Grids: []scenario.Grid{{
			Axes: []scenario.Axis{
				{Field: "workload", Values: anys(benchmarks)},
				{Field: "L2.LineSize", Values: anys(lineSizes)},
			},
		}},
	}
}

// Fig8 runs the miss-rate characterization through the shared scenario
// runner; parallel bounds the worker pool (0 = host CPUs).
func Fig8(pr Preset, benchmarks []string, lineSizes []int, parallel int) (*Fig8Result, error) {
	if len(benchmarks) == 0 {
		// The six benchmarks of Figure 8.
		benchmarks = []string{"lu_cont", "water_spatial", "radix", "barnes", "fft", "ocean_cont"}
	}
	if len(lineSizes) == 0 {
		lineSizes = []int{16, 32, 64, 128, 256}
	}
	tiles := 32
	l2Size := 1 << 20
	if pr == Quick {
		tiles = 8
		l2Size = 64 << 10
	}
	sc := Fig8Scenario(pr, benchmarks, lineSizes, tiles, l2Size)
	records, err := scenario.Run(sc, scenario.Options{Parallel: parallel})
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{LineSizes: lineSizes}
	for i, r := range records {
		refs := float64(r.Stats.Loads + r.Stats.Stores)
		if refs == 0 {
			refs = 1
		}
		pt := Fig8Point{Benchmark: r.Workload, LineSize: lineSizes[i%len(lineSizes)]}
		for k := stats.MissKind(0); k < stats.NumMissKinds; k++ {
			pt.Rates[k] = float64(r.Stats.MissBy[k]) / refs
			pt.Total += pt.Rates[k]
		}
		pt.Upgrades = float64(r.Stats.Upgrades) / refs
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Print renders the Figure 8 breakdown.
func (r *Fig8Result) Print(w io.Writer) {
	fprintf(w, "Figure 8: cache miss breakdown by type vs. line size (L1 off, L2 only)\n")
	fprintf(w, "%-16s %6s %9s %9s %9s %9s %9s %9s\n",
		"benchmark", "line", "total%", "cold%", "capac%", "true%", "false%", "upgr%")
	for _, p := range r.Points {
		fprintf(w, "%-16s %6d %8.3f%% %8.3f%% %8.3f%% %8.3f%% %8.3f%% %8.3f%%\n",
			p.Benchmark, p.LineSize, 100*p.Total,
			100*p.Rates[stats.MissCold], 100*p.Rates[stats.MissCapacity],
			100*p.Rates[stats.MissTrueSharing], 100*p.Rates[stats.MissFalseSharing],
			100*p.Upgrades)
	}
}
