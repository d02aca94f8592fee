package experiments

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/scenario"
)

// Fig9Scheme names one coherence configuration of the study.
type Fig9Scheme struct {
	Label string
	Kind  config.CoherenceKind
	Ptrs  int
}

// Fig9Point is one (scheme, target tiles) measurement.
type Fig9Point struct {
	Scheme    string
	Tiles     int
	SimCycles arch.Cycles
	// Speedup is simulated-cycles(1 tile) / simulated-cycles(tiles),
	// the paper's y-axis.
	Speedup float64
	// AvgMemLatency tracks the memory-latency growth the paper discusses.
	AvgMemLatency float64
	DirTraps      uint64
	Invalidations uint64
}

// Fig9Result reproduces Figure 9: blackscholes speedup relative to
// simulated single-tile execution under Dir4NB, Dir16NB, full-map, and
// LimitLESS(4) directories, scaling the target tile count.
type Fig9Result struct {
	Points []Fig9Point
}

// Fig9Schemes returns the paper's four protocols.
func Fig9Schemes() []Fig9Scheme {
	return []Fig9Scheme{
		{Label: "Dir4NB", Kind: config.LimitedNB, Ptrs: 4},
		{Label: "Dir16NB", Kind: config.LimitedNB, Ptrs: 16},
		{Label: "full-map", Kind: config.FullMap, Ptrs: 0},
		{Label: "LimitLESS4", Kind: config.LimitLESS, Ptrs: 4},
	}
}

// Fig9Scenario expresses the coherence study declaratively: one grid per
// directory scheme (the scheme is a pair of config fields, set as grid
// base overrides), each sweeping the target tile count. The metric is
// simulated cycles, so the runner executes the grid host-parallel.
func Fig9Scenario(pr Preset, tileCounts []int) *scenario.Scenario {
	sc := &scenario.Scenario{
		Name:     "fig9",
		Preset:   "small-cache",
		Size:     pr.String(),
		Workload: "blackscholes",
	}
	for _, sch := range Fig9Schemes() {
		sc.Grids = append(sc.Grids, scenario.Grid{
			Base: map[string]any{
				"Coherence.Kind":        int(sch.Kind),
				"Coherence.DirPointers": sch.Ptrs,
				"Coherence.TrapLatency": 100,
				"Coherence.DirLatency":  10,
			},
			Axes: []scenario.Axis{{Field: "Tiles", Values: anys(tileCounts)}},
		})
	}
	return sc
}

// Fig9 runs the coherence study through the shared scenario runner;
// parallel bounds the worker pool (0 = host CPUs).
func Fig9(pr Preset, tileCounts []int, parallel int) (*Fig9Result, error) {
	if len(tileCounts) == 0 {
		switch pr {
		case Quick:
			tileCounts = []int{1, 2, 4, 8, 16}
		case Standard:
			tileCounts = []int{1, 2, 4, 8, 16, 32, 64}
		default:
			tileCounts = []int{1, 2, 4, 8, 16, 32, 64, 128, 256}
		}
	}
	records, err := scenario.Run(Fig9Scenario(pr, tileCounts), scenario.Options{Parallel: parallel})
	if err != nil {
		return nil, fmt.Errorf("fig9: %w", err)
	}
	schemes := Fig9Schemes()
	res := &Fig9Result{}
	base := arch.Cycles(0)
	for _, r := range records {
		if r.Point == 0 {
			base = arch.Cycles(r.SimCycles)
		}
		res.Points = append(res.Points, Fig9Point{
			Scheme:        schemes[r.Grid].Label,
			Tiles:         tileCounts[r.Point],
			SimCycles:     arch.Cycles(r.SimCycles),
			Speedup:       float64(base) / float64(r.SimCycles),
			AvgMemLatency: r.Stats.AvgMemLatency(),
			DirTraps:      r.Stats.DirTraps,
			Invalidations: r.Stats.InvSent,
		})
	}
	return res, nil
}

// Print renders the Figure 9 series.
func (r *Fig9Result) Print(w io.Writer) {
	fprintf(w, "Figure 9: blackscholes speedup vs. simulated 1-tile run, by coherence scheme\n")
	fprintf(w, "%-12s %6s %14s %10s %12s %10s %10s\n",
		"scheme", "tiles", "sim-cycles", "speedup", "avg-mem-lat", "traps", "invals")
	for _, p := range r.Points {
		fprintf(w, "%-12s %6d %14d %9.2fx %12.1f %10d %10d\n",
			p.Scheme, p.Tiles, p.SimCycles, p.Speedup, p.AvgMemLatency, p.DirTraps, p.Invalidations)
	}
}
