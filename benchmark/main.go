// Command benchmark is the repository's yardstick: five named workloads,
// the end-to-end metrics a user of the simulator sees, and a per-layer
// breakdown taken from outside the program. BENCHMARK.json at the
// repository root names every workload and metric; README.md defines them.
//
//	bash benchmark/run.sh                          # every workload, untraced
//	bash benchmark/run.sh -trace 1                 # every workload, per-layer metrics
//	bash benchmark/run.sh -workload hit-local -seed 7 -seconds 18 -trace 0
//	bash benchmark/run.sh -o a.json && ... -o b.json && bash benchmark/run.sh -compare a.json b.json
//	bash benchmark/run.sh -calibrate 5
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"text/tabwriter"

	"repro/internal/core/launch"
)

// report is what -o writes and -compare reads.
type report struct {
	Schema    string           `json:"schema"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	HostCPUs  int              `json:"host_cpus"`
	Workloads []workloadReport `json:"workloads"`
}

const reportSchema = "graphite-benchmark/v1"

// workloadReport is one workload's result. Metrics holds every end-to-end
// metric of an untraced run or every per-layer metric of a traced one.
type workloadReport struct {
	Workload  string          `json:"workload"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Metrics   map[string]dist `json:"metrics"`
	Notes     []string        `json:"notes,omitempty"`
}

// runConfig is what one invocation runs with.
type runConfig struct {
	root    string // checkout root: scratch and trace output live under it
	seed    int64
	seconds float64
	trace   bool
	smoke   bool
}

func main() {
	// dist-tcp forks copies of this binary as simulation workers, and
	// every workload runs in copies of it as sessions; neither returns.
	launch.MaybeWorkerProcess()
	if payload := os.Getenv(sessionEnv); payload != "" {
		os.Unsetenv(sessionEnv)
		sessionMain(payload)
	}

	var (
		workloadName  = flag.String("workload", "", "run one workload (default: all five)")
		seed          = flag.Int64("seed", 1, "workload seed: the scenarios' reproducibility base")
		seconds       = flag.Float64("seconds", runSeconds, "seconds one workload's run measures")
		trace         = flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics instead of the end-to-end ones")
		smoke         = flag.Bool("smoke", false, "tiny shapes and a one-second window: checks the harness, measures nothing")
		out           = flag.String("o", "", "also write the full report (medians, quartiles, sample counts) to this file")
		compare       = flag.Bool("compare", false, "compare two reports: -compare A.json B.json; exits 1 when B is worse")
		calibrate     = flag.Int("calibrate", 0, "run the untraced suite N times and print each metric's run-to-run spread against its bound")
		writeGolden   = flag.Bool("write-golden", false, "run the sweep once and rewrite benchmark/golden/records.sha256")
		printManifest = flag.Bool("print-manifest", false, "print BENCHMARK.json as the catalogue defines it")
	)
	flag.Parse()

	cfg := runConfig{root: os.Getenv("GRAPHITE_BENCH_ROOT"), seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke}
	if cfg.root == "" {
		cfg.root, _ = os.Getwd()
	}
	if cfg.smoke && *seconds == runSeconds {
		cfg.seconds = 1
	}
	names, err := selectWorkloads(*workloadName)
	if err != nil {
		fatal(2, err)
	}

	switch {
	case *printManifest:
		buf, _ := json.MarshalIndent(manifest(), "", "  ") // plain data
		fmt.Println(string(buf))
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, fmt.Errorf("-compare takes two report files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, err)
		}
		if worse {
			os.Exit(1)
		}
	case *calibrate > 0:
		if err := calibrateSuite(cfg, names, *calibrate); err != nil {
			fatal(1, err)
		}
	case *writeGolden:
		if err := rewriteGolden(cfg); err != nil {
			fatal(1, err)
		}
	default:
		rep, err := runSuite(cfg, names)
		if *out != "" && rep != nil {
			if werr := writeReport(*out, rep); werr != nil {
				fatal(1, werr)
			}
		}
		if err != nil {
			fatal(1, err)
		}
	}
}

func fatal(code int, err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(code)
}

func selectWorkloads(name string) ([]string, error) {
	if _, ok := findWorkload(name); ok {
		return []string{name}, nil
	}
	var all []string
	for _, w := range workloadCatalog {
		all = append(all, w.Name)
	}
	if name != "" {
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(all, ", "))
	}
	return all, nil
}

// runSuite runs the named workloads one after another, printing each
// one's metrics and, as the last line of each, the driver's result object.
func runSuite(cfg runConfig, names []string) (*report, error) {
	rep := &report{Schema: reportSchema, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, HostCPUs: nproc()}
	for _, name := range names {
		wr, err := runWorkload(cfg, name)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", name, err)
		}
		rep.Workloads = append(rep.Workloads, *wr)
		printWorkload(wr, cfg.trace)
	}
	return rep, nil
}

// runWorkload runs one workload's sessions and folds their events into
// the workload's metrics.
func runWorkload(cfg runConfig, name string) (*workloadReport, error) {
	info, _ := findWorkload(name)
	sessions := info.Sessions
	if cfg.trace || cfg.smoke {
		sessions = 1
	}
	var agg aggregate
	steal0, ticks0 := hostSteal()
	for i := 0; i < sessions; i++ {
		out := runOneSession(sessionSpec{
			Workload: name, Seed: cfg.seed, Seconds: cfg.seconds / float64(sessions),
			Trace: cfg.trace, Smoke: cfg.smoke,
			WorkDir: workDirFor(cfg.root, name, i),
			OutDir:  filepath.Join(cfg.root, "benchmark", "out"),
		})
		agg.add(out)
	}
	// Steal is CPU time the hypervisor gave to someone else while this VM
	// wanted it: the one kind of host interference a guest can see.
	if steal, ticks := hostSteal(); ticks > ticks0 {
		if frac := float64(steal-steal0) / float64(ticks-ticks0); frac > 0.01 {
			agg.notes = append(agg.notes, fmt.Sprintf("the host stole %.1f%% of this VM's CPU time during the run; its timings are disturbed", 100*frac))
		}
	}
	wr := &workloadReport{Workload: name, Attempted: agg.attempted, Failed: agg.failed, Notes: agg.notes}
	var err error
	if cfg.trace {
		wr.Metrics, err = agg.layerMetrics()
	} else {
		wr.Metrics, err = agg.endToEndMetrics()
	}
	if err != nil {
		return nil, err
	}
	wr.Correct = agg.failed == 0
	return wr, nil
}

// aggregate folds session outcomes.
type aggregate struct {
	attempted, failed int
	notes             []string

	setupS, firstMS, rssMB []float64
	wallN, cpuPerMinstr    []float64
	instr, runs            []float64
	warmRate               []float64
	// replayed reports that warmRate holds the rates of a single-run
	// workload's short replay batches, not of a sweep's warm passes.
	replayed bool
	// speedup holds, for each Workers=1 rep, its wall over the wall of the
	// Workers=nproc rep just before it in the same session: side by side
	// in time, so a slow spell of the host weighs on both.
	speedup []float64
	layers  map[string]float64
}

func (a *aggregate) fail(format string, args ...any) {
	a.failed++
	a.notes = append(a.notes, fmt.Sprintf(format, args...))
}

func (a *aggregate) add(out sessionOutcome) {
	lastN := 0.0 // wall of the session's latest good Workers=nproc rep not yet paired
	for _, e := range out.events {
		switch e.Ev {
		case "setup":
			a.attempted++ // the warm-up rep
			a.setupS = append(a.setupS, e.SetupS)
		case "rep":
			a.attempted++
			if e.Err != "" {
				a.fail("%s rep: %s", e.Kind, e.Err)
				lastN = 0
				continue
			}
			switch e.Kind {
			case "n":
				a.wallN = append(a.wallN, e.WallS)
				a.instr = append(a.instr, float64(e.Instr))
				a.runs = append(a.runs, float64(e.Runs))
				a.cpuPerMinstr = append(a.cpuPerMinstr, e.CPUS/(float64(e.Instr)/1e6))
				a.firstMS = append(a.firstMS, e.FirstRecordMS)
				lastN = e.WallS
			case "w1":
				if lastN > 0 {
					a.speedup = append(a.speedup, e.WallS/lastN)
					lastN = 0
				}
			}
			a.warmRate = append(a.warmRate, e.WarmRates...)
		case "warm":
			a.attempted++
			if e.Err != "" {
				a.fail("warm replay: %s", e.Err)
				continue
			}
			a.warmRate = append(a.warmRate, e.WarmRates...)
			a.replayed = true
		case "layers":
			a.layers = e.Metrics
			a.notes = append(a.notes, e.Notes...)
		}
	}
	if out.maxRSSMB > 0 {
		a.rssMB = append(a.rssMB, out.maxRSSMB)
	}
	switch {
	case out.killed:
		a.attempted++
		a.fail("watchdog: a rep made no progress within its deadline; session killed")
	case out.err != nil:
		a.attempted++
		a.fail("session: %v", out.err)
	}
}

// endToEndMetrics computes every end-to-end metric from the samples.
func (a *aggregate) endToEndMetrics() (map[string]dist, error) {
	if len(a.wallN) == 0 || len(a.speedup) == 0 || len(a.warmRate) == 0 {
		return nil, fmt.Errorf("no complete rep to measure (%d at Workers=nproc, %d paired with one at Workers=1): %s",
			len(a.wallN), len(a.speedup), strings.Join(a.notes, "; "))
	}
	wall := summarize(a.wallN, "s")
	instr, runs := median(a.instr), median(a.runs)
	warm := summarize(a.warmRate, "runs/s")
	if a.replayed {
		// A 3 ms batch of lookups is only ever slowed, by the host taking
		// the core or by page faults on heap the scavenger had returned,
		// and at times more than half of a run's batches are: the upper
		// quartile repeats where the median jumps between two levels.
		warm.Value = warm.Q3
	}
	m := map[string]dist{
		"setup_s":          summarize(a.setupS, "s"),
		"sim_instr_per_s":  wall.mapped("instr/s", func(w float64) float64 { return instr / w }),
		"cpu_s_per_minstr": summarize(a.cpuPerMinstr, "s"),
		"peak_rss_mb":      summarize(a.rssMB, "MB"),
		"worker_speedup":   summarize(a.speedup, "ratio"),
		"cold_runs_per_s":  wall.mapped("runs/s", func(w float64) float64 { return runs / w }),
		"warm_runs_per_s":  warm,
		"first_record_ms":  summarize(a.firstMS, "ms"),
	}
	return m, checkComplete(m, endToEnd)
}

// layerMetrics returns the traced session's per-layer metrics.
func (a *aggregate) layerMetrics() (map[string]dist, error) {
	if a.layers == nil {
		return nil, fmt.Errorf("the traced session reported no per-layer metrics: %s", strings.Join(a.notes, "; "))
	}
	m := map[string]dist{}
	for _, info := range perLayer {
		if v, ok := a.layers[info.Name]; ok {
			m[info.Name] = dist{Value: v, Unit: info.Unit, Q1: v, Q3: v, N: 1}
		}
	}
	return m, checkComplete(m, perLayer)
}

// checkComplete fails when a catalogue metric is missing or not a number.
func checkComplete(m map[string]dist, want []metricInfo) error {
	for _, info := range want {
		d, ok := m[info.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", info.Name)
		}
		if math.IsNaN(d.Value) || math.IsInf(d.Value, 0) {
			return fmt.Errorf("metric %s is %v", info.Name, d.Value)
		}
	}
	return nil
}

// printWorkload prints a workload's metrics by name with their units and
// then, as the last line, the result object the driver reads.
func printWorkload(wr *workloadReport, traced bool) {
	list := endToEnd
	if traced {
		list = perLayer
	}
	fmt.Printf("workload %s: %d reps and warm replays attempted, %d failed\n", wr.Workload, wr.Attempted, wr.Failed)
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tq1 .. q3\tn\t")
	for _, info := range list {
		d := wr.Metrics[info.Name]
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%.6g .. %.6g\t%d\t\n", info.Name, d.Value, d.Unit, d.Q1, d.Q3, d.N)
	}
	tw.Flush()
	if d, ok := wr.Metrics["worker_speedup"]; ok {
		fmt.Printf("worker_speedup %.3f was taken on %d host CPUs: a host-shape number, comparable only between runs on the same shape\n", d.Value, nproc())
	}
	for _, n := range wr.Notes {
		fmt.Println("note:", n)
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, map[string]mv{}}
	for name, d := range wr.Metrics {
		line.Metrics[name] = mv{d.Value, d.Unit}
	}
	buf, _ := json.Marshal(line) // numbers were checked finite
	fmt.Println(string(buf))
}

func writeReport(path string, rep *report) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if rep.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, rep.Schema, reportSchema)
	}
	return &rep, nil
}

// rewriteGolden runs the full and the smoke sweep once each and commits
// their digests.
func rewriteGolden(cfg runConfig) error {
	var lines string
	for _, smoke := range []bool{false, true} {
		w := &sweepWorkload{smoke: smoke}
		env := &sessionSpec{Seed: cfg.seed, WorkDir: workDirFor(cfg.root, "golden", 0)}
		if err := w.load(env); err != nil {
			return err
		}
		r := w.rep("n", nil)
		if err := os.RemoveAll(env.WorkDir); r.err != nil || err != nil {
			return errors.Join(r.err, err)
		}
		lines += goldenShape(smoke) + " " + w.digest + "\n"
	}
	path := filepath.Join(cfg.root, "benchmark", "golden", "records.sha256")
	fmt.Println("writing", path)
	return os.WriteFile(path, []byte(lines), 0o644)
}
