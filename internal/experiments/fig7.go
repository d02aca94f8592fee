package experiments

import (
	"fmt"
	"io"

	"repro/internal/config"
	"repro/internal/core"
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

// Fig7 runs the skew study.
func Fig7(pr Preset) (*Fig7Result, error) {
	tiles, threads := 32, 32
	if pr == Quick {
		tiles, threads = 8, 8
	}
	scale := scaleFor("fmm", pr)
	res := &Fig7Result{}
	for _, m := range []config.SyncModel{config.Lax, config.LaxP2P, config.LaxBarrier} {
		cfg := baseConfig(tiles)
		cfg.CollectSkew = true
		cfg.Sync.Model = m
		cfg.Sync.BarrierQuantum = 1000
		cfg.Sync.P2PSlack = 5_000
		cfg.Sync.P2PInterval = 2_000
		if pr != Quick {
			cfg.Sync.P2PSlack = 20_000
			cfg.Sync.P2PInterval = 5_000
		}
		rs, _, err := runOnce("fmm", threads, scale, cfg)
		if err != nil {
			return nil, err
		}
		tr := Fig7Trace{Model: m, Samples: rs.Skew}
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
		fprintf(w, "%12s %14s %14s %14s\n", "wall-ms", "min-dev", "max-dev", "mean")
		for i, s := range tr.Samples {
			// Thin long traces for readability.
			if len(tr.Samples) > 40 && i%(len(tr.Samples)/40+1) != 0 {
				continue
			}
			fprintf(w, "%12.2f %14d %14d %14d\n",
				float64(s.Wall.Microseconds())/1000,
				int64(s.Min-s.Mean), int64(s.Max-s.Mean), int64(s.Mean))
		}
	}
}

// WriteCSV writes every sample of every trace, unthinned, one row per
// sample under a header row — the series to plot Figure 7 from.
func (r *Fig7Result) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "model,wall_ms,min_dev_cycles,max_dev_cycles,mean_cycles"); err != nil {
		return err
	}
	for _, tr := range r.Traces {
		for _, s := range tr.Samples {
			if _, err := fmt.Fprintf(w, "%s,%.3f,%d,%d,%d\n",
				tr.Model.String(),
				float64(s.Wall.Microseconds())/1000,
				int64(s.Min-s.Mean), int64(s.Max-s.Mean), int64(s.Mean)); err != nil {
				return err
			}
		}
	}
	return nil
}
