package experiments

import (
	"io"

	"repro/internal/scenario"
)

// Fig5Point is one (machines, wall time) measurement.
type Fig5Point struct {
	Machines int
	WallSec  float64
	Speedup  float64 // versus 1 machine
}

// Fig5Result reproduces Figure 5: run time of a matrix-multiply kernel
// with one thread per tile on a large target architecture, across growing
// numbers of host processes ("machines").
type Fig5Result struct {
	TargetTiles int
	Points      []Fig5Point
}

// Fig5Scenario expresses the large-target study declaratively: matmul
// with one thread per tile on the lean per-tile caches of preset
// "large-target" (host memory), sweeping the simulated process count.
// It runs Serial because the measurement is wall-clock time.
func Fig5Scenario(machines []int, tiles, scale int) *scenario.Scenario {
	return &scenario.Scenario{
		Name:     "fig5",
		Preset:   "large-target",
		Workload: "matmul",
		Scale:    scale,
		Serial:   true,
		Base:     map[string]any{"Tiles": tiles},
		Grids:    []scenario.Grid{{Axes: []scenario.Axis{{Field: "Processes", Values: anys(machines)}}}},
	}
}

// Fig5 runs the large-target scaling study through the shared scenario
// runner. The paper uses 1024 tiles on 1..10 machines; presets scale the
// tile count to host memory (per-tile cache metadata) while keeping one
// thread per tile and the neighbour messaging pattern.
func Fig5(pr Preset, machines []int) (*Fig5Result, error) {
	if len(machines) == 0 {
		machines = []int{1, 2, 4, 6, 8, 10}
	}
	tiles := 1024
	scale := 320 // ~102,400 elements, as in the paper
	switch pr {
	case Quick:
		tiles, scale = 64, 32
	case Standard:
		tiles, scale = 256, 64
	}
	records, err := scenario.Run(Fig5Scenario(machines, tiles, scale), scenario.Options{})
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{TargetTiles: tiles}
	base := records[0].WallSec
	for i, r := range records {
		res.Points = append(res.Points, Fig5Point{Machines: machines[i], WallSec: r.WallSec, Speedup: base / r.WallSec})
	}
	return res, nil
}

// Print renders the Figure 5 series.
func (r *Fig5Result) Print(w io.Writer) {
	fprintf(w, "Figure 5: %d-thread matrix-multiply on %d target tiles vs. host processes\n",
		r.TargetTiles, r.TargetTiles)
	fprintf(w, "%10s %12s %10s\n", "machines", "wall-sec", "speedup")
	for _, p := range r.Points {
		fprintf(w, "%10d %12.3f %9.2fx\n", p.Machines, p.WallSec, p.Speedup)
	}
}
