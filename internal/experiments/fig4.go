package experiments

import (
	"io"
	"runtime"

	"repro/internal/scenario"
)

// Fig4Point is one (benchmark, host cores) measurement.
type Fig4Point struct {
	Benchmark string
	HostCores int
	WallSec   float64
	Speedup   float64 // versus 1 host core
}

// Fig4Result is the Figure 4 host-core scaling study: simulator wall time
// of a fixed 32-tile target as host parallelism grows.
type Fig4Result struct {
	TargetTiles int
	Points      []Fig4Point
}

// Fig4Scenario expresses the host-core scaling study declaratively: one
// grid per benchmark, sweeping Config.Workers. The runner forces such
// scenarios serial (GOMAXPROCS is process-global), which Figure 4 needs
// anyway: its measurement is wall-clock time under a controlled core
// budget.
func Fig4Scenario(pr Preset, benchmarks []string, hostCores []int, tiles int) *scenario.Scenario {
	sc := &scenario.Scenario{
		Name:   "fig4",
		Preset: "small-cache",
		Size:   pr.String(),
		Base:   map[string]any{"Tiles": tiles},
	}
	for _, b := range benchmarks {
		sc.Grids = append(sc.Grids, scenario.Grid{
			Workload: b,
			Axes:     []scenario.Axis{{Field: "Workers", Values: anys(hostCores)}},
		})
	}
	return sc
}

// Fig4 runs the scaling study through the shared scenario runner.
// benchmarks defaults to a representative SPLASH subset; hostCores
// defaults to {1, 2, 4, ...} up to the machine's CPU count (the paper
// scales 1..64 across 8 machines — the curve is truncated by the host
// running this reproduction).
func Fig4(pr Preset, benchmarks []string, hostCores []int) (*Fig4Result, error) {
	if len(benchmarks) == 0 {
		benchmarks = []string{"fmm", "ocean_cont", "radix", "water_spatial"}
	}
	if len(hostCores) == 0 {
		for c := 1; c <= runtime.NumCPU(); c *= 2 {
			hostCores = append(hostCores, c)
		}
	}
	tiles := 32
	if pr == Quick {
		tiles = 8
	}
	records, err := scenario.Run(Fig4Scenario(pr, benchmarks, hostCores, tiles), scenario.Options{})
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{TargetTiles: tiles}
	base := 0.0
	for i, r := range records {
		if r.Point == 0 {
			base = r.WallSec
		}
		res.Points = append(res.Points, Fig4Point{
			Benchmark: r.Workload,
			HostCores: hostCores[i%len(hostCores)],
			WallSec:   r.WallSec,
			Speedup:   base / r.WallSec,
		})
	}
	return res, nil
}

// Print renders the Figure 4 series.
func (r *Fig4Result) Print(w io.Writer) {
	fprintf(w, "Figure 4: speedup of %d-tile simulations vs. host cores (normalized to 1 core)\n", r.TargetTiles)
	fprintf(w, "%-16s %10s %12s %10s\n", "benchmark", "host-cores", "wall-sec", "speedup")
	for _, p := range r.Points {
		fprintf(w, "%-16s %10d %12.3f %9.2fx\n", p.Benchmark, p.HostCores, p.WallSec, p.Speedup)
	}
}
