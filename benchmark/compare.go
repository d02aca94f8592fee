package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// verdict judges one workload x end-to-end metric of report B against
// report A: "worse" when B's median is worse than A's by more than the
// metric's bound, "unresolved" when either side's median is itself
// uncertain by more than the bound (the runs cannot tell a change of that
// size from noise), "ok" otherwise. delta is (B-A)/A, signed so that
// positive is better.
func verdict(info metricInfo, a, b dist) (delta float64, v string) {
	delta = (b.Value - a.Value) / a.Value
	if info.Better == "lower" {
		delta = -delta
	}
	switch {
	case delta < -info.Bound:
		return delta, "worse"
	case uncertainty(a) > info.Bound || uncertainty(b) > info.Bound:
		return delta, "unresolved"
	}
	return delta, "ok"
}

// uncertainty is the half-width of the 95% interval around a summary's
// median, as a share of the median: the median of n samples has standard
// error 1.2533 sigma / sqrt(n), and sigma is the interquartile range /
// 1.349 for a normal spread, so the half-width is 1.82 IQR / sqrt(n).
func uncertainty(d dist) float64 {
	if d.Value == 0 || d.N == 0 {
		return math.Inf(1)
	}
	return 1.82 * math.Abs(d.Q3-d.Q1) / math.Sqrt(float64(d.N)) / math.Abs(d.Value)
}

// compareFiles prints one row per workload x end-to-end metric and
// reports whether any row is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	if a.Trace || b.Trace {
		return false, fmt.Errorf("-compare judges end-to-end metrics; give it untraced reports")
	}
	byName := map[string]workloadReport{}
	for _, wr := range b.Workloads {
		byName[wr.Workload] = wr
	}
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA value (q1..q3)\tB value (q1..q3)\tdelta of A\tbound\tverdict\t")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Workload]
		if !ok {
			continue
		}
		for _, info := range endToEnd {
			da, db := wa.Metrics[info.Name], wb.Metrics[info.Name]
			delta, v := verdict(info, da, db)
			worse = worse || v == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.5g (%.5g..%.5g)\t%.5g (%.5g..%.5g)\t%+.1f%% of %.5g %s\t%.0f%%\t%s\t\n",
				wa.Workload, info.Name, da.Value, da.Q1, da.Q3, db.Value, db.Q1, db.Q3,
				100*delta, da.Value, info.Unit, 100*info.Bound, v)
		}
		if wb.Failed > wa.Failed {
			worse = true
			fmt.Fprintf(tw, "%s\tfailed\t%d of %d\t%d of %d\t\t0\tworse\t\n", wa.Workload, wa.Failed, wa.Attempted, wb.Failed, wb.Attempted)
		}
	}
	return worse, tw.Flush()
}

// calibrateSuite runs the untraced suite n times on one commit and prints,
// for every workload x end-to-end metric, the spread of the n medians
// (interquartile range / median, the driver's measure) against the bound.
func calibrateSuite(cfg runConfig, names []string, n int) error {
	cfg.trace = false
	values := map[string]map[string][]float64{}
	for i := 0; i < n; i++ {
		run := cfg
		run.seed = cfg.seed + int64(i)
		for _, name := range names {
			wr, err := runWorkload(run, name)
			if err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			if wr.Failed > 0 {
				return fmt.Errorf("%s: %d of %d reps failed: %v", name, wr.Failed, wr.Attempted, wr.Notes)
			}
			if values[name] == nil {
				values[name] = map[string][]float64{}
			}
			for metric, d := range wr.Metrics {
				values[name][metric] = append(values[name][metric], d.Value)
			}
			fmt.Printf("calibrate: run %d/%d of %s done\n", i+1, n, name)
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tmedian of %d\tunit\tspread\tbound\tverdict\t\n", n)
	for _, name := range names {
		for _, info := range endToEnd {
			xs := values[name][info.Name]
			s := spread(xs)
			v := "steady"
			switch {
			case s > info.Bound:
				v = "TOO NOISY"
			case s > info.Bound/3:
				v = "within bound, above a third of it"
			}
			fmt.Fprintf(tw, "%s\t%s\t%.5g\t%s\t%.1f%%\t%.0f%%\t%s\t\n", name, info.Name, median(xs), info.Unit, 100*s, 100*info.Bound, v)
		}
	}
	return tw.Flush()
}
