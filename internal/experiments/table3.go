package experiments

import (
	"io"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/scenario"
)

// SyncCell is the measurement of one (benchmark, sync model, processes)
// cell over repeated runs.
type SyncCell struct {
	Benchmark string
	Model     config.SyncModel
	Processes int
	// RunTimeNorm is mean wall time normalized to Lax on 1 process.
	RunTimeNorm float64
	// SimCyclesMean is the mean simulated run time (cycles).
	SimCyclesMean float64
	// ErrorPct is |SimCyclesMean - baseline| / baseline * 100, with the
	// LaxBarrier 1-process mean as baseline (the paper's choice).
	ErrorPct float64
	// CoVPct is the coefficient of variation of simulated cycles.
	CoVPct float64
}

// Table3Result reproduces Figure 6 and Table 3: performance, error, and
// variability of Lax, LaxP2P, and LaxBarrier on one and several host
// processes.
type Table3Result struct {
	Cells []SyncCell
	Runs  int
	// Summary rows (means across benchmarks), keyed by model.
	MeanRunTime map[config.SyncModel][2]float64 // [1 proc, N proc]
	MeanError   map[config.SyncModel]float64
	MeanCoV     map[config.SyncModel]float64
	Procs       int
}

// Table3Scenario expresses the synchronization-model study
// declaratively: one grid per benchmark sweeping sync model × simulated
// process count, every point repeated runs times (consecutive run
// indices, hence distinct seeds). It runs Serial because the runtime
// column is wall-clock time.
func Table3Scenario(pr Preset, benchmarks []string, runs, tiles, procs int, slack, interval arch.Cycles) *scenario.Scenario {
	sc := &scenario.Scenario{
		Name:    "table3",
		Preset:  "small-cache",
		Size:    pr.String(),
		Repeats: runs,
		Serial:  true,
		Base: map[string]any{
			"Tiles":               tiles,
			"Sync.BarrierQuantum": 1000,
			"Sync.P2PSlack":       slack,
			"Sync.P2PInterval":    interval,
		},
	}
	for _, b := range benchmarks {
		sc.Grids = append(sc.Grids, scenario.Grid{
			Workload: b,
			Axes: []scenario.Axis{
				{Field: "Sync.Model", Values: anys(syncModels)},
				{Field: "Processes", Values: []any{1, procs}},
			},
		})
	}
	return sc
}

// Table3 runs the synchronization-model study through the shared
// scenario runner: each benchmark × model × process-count cell is
// repeated runs times (the paper uses ten).
func Table3(pr Preset, benchmarks []string, runs int) (*Table3Result, error) {
	if len(benchmarks) == 0 {
		benchmarks = []string{"lu_cont", "ocean_cont", "radix"}
	}
	if runs <= 0 {
		runs = 10
	}
	tiles, procs := 32, 4
	// The P2P slack must be small relative to the run's simulated length
	// (the paper's 100k-cycle slack is tuned to multi-billion-cycle runs).
	slack, interval := arch.Cycles(100_000), arch.Cycles(10_000)
	if pr == Quick {
		tiles, procs, runs = 8, 2, min(runs, 3)
		slack, interval = 1_000, 500
	} else if pr == Standard {
		slack, interval = 20_000, 5_000
	}
	records, err := scenario.Run(Table3Scenario(pr, benchmarks, runs, tiles, procs, slack, interval), scenario.Options{})
	if err != nil {
		return nil, err
	}

	// A grid's points are model-major, process count fastest; cell
	// Grid*points+Point collects that point's repeats.
	procCounts := []int{1, procs}
	points := len(syncModels) * len(procCounts)
	type cellData struct {
		wall, cycles []float64
	}
	data := make([]cellData, len(benchmarks)*points)
	for _, r := range records {
		cd := &data[r.Grid*points+r.Point]
		cd.wall = append(cd.wall, r.WallSec)
		cd.cycles = append(cd.cycles, float64(r.SimCycles))
	}

	res := &Table3Result{
		Runs:        runs,
		Procs:       procs,
		MeanRunTime: map[config.SyncModel][2]float64{},
		MeanError:   map[config.SyncModel]float64{},
		MeanCoV:     map[config.SyncModel]float64{},
	}
	sums := map[config.SyncModel][2]float64{}
	errSums := map[config.SyncModel]float64{}
	covSums := map[config.SyncModel]float64{}
	for bi, b := range benchmarks {
		cell := func(mi, pi int) *cellData { return &data[bi*points+mi*len(procCounts)+pi] }
		laxBase := mean(cell(0, 0).wall)
		baseline := mean(cell(len(syncModels)-1, 0).cycles) // LaxBarrier, 1 process
		for mi, m := range syncModels {
			for pi, pc := range procCounts {
				cd := cell(mi, pi)
				wallMean := mean(cd.wall)
				cycMean := mean(cd.cycles)
				errPct := 0.0
				if baseline > 0 {
					errPct = 100 * abs(cycMean-baseline) / baseline
				}
				cov := 0.0
				if cycMean > 0 {
					cov = 100 * stddev(cd.cycles) / cycMean
				}
				res.Cells = append(res.Cells, SyncCell{
					Benchmark:     b,
					Model:         m,
					Processes:     pc,
					RunTimeNorm:   wallMean / laxBase,
					SimCyclesMean: cycMean,
					ErrorPct:      errPct,
					CoVPct:        cov,
				})
				s := sums[m]
				s[pi] += wallMean / laxBase
				sums[m] = s
				if pc == 1 {
					errSums[m] += errPct
					covSums[m] += cov
				}
			}
		}
	}
	nb := float64(len(benchmarks))
	for _, m := range syncModels {
		res.MeanRunTime[m] = [2]float64{sums[m][0] / nb, sums[m][1] / nb}
		res.MeanError[m] = errSums[m] / nb
		res.MeanCoV[m] = covSums[m] / nb
	}
	return res, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// Print renders the Figure 6 cells and the Table 3 summary.
func (r *Table3Result) Print(w io.Writer) {
	fprintf(w, "Figure 6 / Table 3: synchronization models (%d runs per cell)\n", r.Runs)
	fprintf(w, "%-14s %-11s %6s %12s %14s %10s %8s\n",
		"benchmark", "model", "procs", "runtime-norm", "sim-cycles", "error%%", "CoV%%")
	for _, c := range r.Cells {
		fprintf(w, "%-14s %-11s %6d %12.3f %14.0f %9.2f%% %7.2f%%\n",
			c.Benchmark, c.Model.String(), c.Processes, c.RunTimeNorm,
			c.SimCyclesMean, c.ErrorPct, c.CoVPct)
	}
	fprintf(w, "\nSummary (means over benchmarks):\n")
	fprintf(w, "%-11s %14s %14s %10s %8s\n", "model", "runtime(1mc)", "runtime(Nmc)", "error%%", "CoV%%")
	for _, m := range syncModels {
		rt := r.MeanRunTime[m]
		fprintf(w, "%-11s %14.3f %14.3f %9.2f%% %7.2f%%\n",
			m.String(), rt[0], rt[1], r.MeanError[m], r.MeanCoV[m])
	}
}
