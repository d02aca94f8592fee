package experiments

import (
	"fmt"
	"io"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/scenario"
)

// Fig7Trace is the clock-skew trace of one synchronization model.
type Fig7Trace struct {
	Model   config.SyncModel
	Samples []core.SkewSample
	// MaxSkew is the largest observed max-min spread, in cycles.
	MaxSkew int64
}

// Fig7Result reproduces Figure 7: clock skew over the course of an fmm
// run under each synchronization model. The expected shape: Lax skews by
// orders of magnitude more than LaxP2P (which stays within the slack),
// and LaxBarrier stays within one quantum.
type Fig7Result struct {
	Traces []Fig7Trace
}

// Fig7Scenario expresses the skew study declaratively: fmm with skew
// sampling on, one run per synchronization model.
func Fig7Scenario(pr Preset, tiles int, slack, interval arch.Cycles) *scenario.Scenario {
	return &scenario.Scenario{
		Name:     "fig7",
		Preset:   "small-cache",
		Size:     pr.String(),
		Workload: "fmm",
		Base: map[string]any{
			"Tiles":               tiles,
			"CollectSkew":         true,
			"Sync.BarrierQuantum": 1000,
			"Sync.P2PSlack":       slack,
			"Sync.P2PInterval":    interval,
		},
		Grids: []scenario.Grid{{Axes: []scenario.Axis{{Field: "Sync.Model", Values: anys(syncModels)}}}},
	}
}

// Fig7 runs the skew study. Its samples live in core.RunStats, which a
// Record does not carry, so it executes each expanded spec itself; they
// are taken at simulated cycles, the same on every run at one worker.
func Fig7(pr Preset) (*Fig7Result, error) {
	tiles := 32
	slack, interval := arch.Cycles(20_000), arch.Cycles(5_000)
	if pr == Quick {
		tiles = 8
		slack, interval = 5_000, 2_000
	}
	specs, err := Fig7Scenario(pr, tiles, slack, interval).Expand()
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{}
	for i := range specs {
		rec, rs := scenario.ExecuteStats(&specs[i])
		if rec.Error != "" {
			return nil, fmt.Errorf("fig7 %s: %s", specs[i].Config.Sync.Model, rec.Error)
		}
		tr := Fig7Trace{Model: specs[i].Config.Sync.Model, Samples: rs.Skew}
		for _, s := range rs.Skew {
			if spread := int64(s.Max - s.Min); spread > tr.MaxSkew {
				tr.MaxSkew = spread
			}
		}
		res.Traces = append(res.Traces, tr)
	}
	return res, nil
}

// Print renders skew summaries plus a CSV-like series per model.
func (r *Fig7Result) Print(w io.Writer) {
	fprintf(w, "Figure 7: clock skew during fmm, per synchronization model\n")
	for _, tr := range r.Traces {
		fprintf(w, "\n[%s] samples=%d max-skew=%d cycles\n", tr.Model.String(), len(tr.Samples), tr.MaxSkew)
		fprintf(w, "%12s %14s %14s %14s\n", "cycle", "min-dev", "max-dev", "mean")
		for i, s := range tr.Samples {
			// Thin long traces for readability.
			if len(tr.Samples) > 40 && i%(len(tr.Samples)/40+1) != 0 {
				continue
			}
			fprintf(w, "%12d %14d %14d %14d\n",
				int64(s.Cycle),
				int64(s.Min-s.Mean), int64(s.Max-s.Mean), int64(s.Mean))
		}
	}
}

// WriteCSV writes every sample of every trace, unthinned, one row per
// sample under a header row — the series to plot Figure 7 from.
func (r *Fig7Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "model,cycle,min_dev_cycles,max_dev_cycles,mean_cycles"); err != nil {
		return err
	}
	for _, tr := range r.Traces {
		for _, s := range tr.Samples {
			if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d\n",
				tr.Model.String(),
				int64(s.Cycle),
				int64(s.Min-s.Mean), int64(s.Max-s.Mean), int64(s.Mean)); err != nil {
				return err
			}
		}
	}
	return nil
}
