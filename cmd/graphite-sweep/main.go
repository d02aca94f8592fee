// Command graphite-sweep runs design-space sweeps. It has three modes:
//
// Scenario mode executes a declarative scenario file (see README,
// "Scenario files") as one sweep and writes one JSONL record per run, in
// run-index order, as the runs complete. By default the runs execute on
// local worker slots:
//
//	graphite-sweep -scenario examples/scenarios/line-size-sweep.json -parallel 4 -out r.jsonl
//
// With -serve the same sweep is spread across machines instead (README,
// "Distributed sweeps"): a coordinator serves the runs over TCP and any
// number of workers pull, execute, and stream records back. It is one
// sweep engine either way, so the output is byte-identical up to
// wall_sec:
//
//	graphite-sweep -scenario sweep.json -serve :9640 -workers-expected 2 -out r.jsonl
//	graphite-sweep -worker -connect host:9640 -parallel 8
//
// -resume r.jsonl skips runs that already have an error-free record with
// a matching config digest, so an interrupted sweep — local or served —
// continues where it stopped.
//
// Service mode submits the scenario to a running graphited daemon
// (README, "Simulation service"; docs/API.md) instead of executing it
// locally, then streams the merged records back — resuming the stream
// if the connection drops — so the written JSONL is byte-identical to
// what local execution would produce, up to the wall-clock fields and
// the cached flag:
//
//	graphite-sweep -scenario sweep.json -submit http://127.0.0.1:9640 -out r.jsonl
//
// Local and served sweeps take -cache DIR (README, "Record cache"): a
// content-addressed record store consulted before any run is simulated
// or dispatched. Warm re-runs of a sweep simulate nothing and emit
// byte-identical records up to wall_sec/cached. -cache-max-bytes bounds
// its memory; without -cache nothing is cached.
//
// Experiment mode regenerates the tables and figures of the paper's
// evaluation section (§4). Each -exp selects one experiment from the
// registry; -preset scales problem sizes:
//
//	graphite-sweep -exp table2 -preset quick
//	graphite-sweep -exp fig9 -preset standard
//	graphite-sweep -exp all -preset quick
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/core/launch"
	"repro/internal/experiments"
	"repro/internal/recordcache"
	"repro/internal/scenario"
	"repro/internal/scenario/dispatch"
	"repro/internal/service/client"
)

func main() {
	// Scenarios with processes > 1 fork worker copies of this binary;
	// those copies enter here and never return.
	launch.MaybeWorkerProcess()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: parse args, run the selected mode, write
// records and tables to stdout (or -out) and progress to stderr. It
// returns the process exit status: 2 for a usage error, 1 for a failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphite-sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scenarioPath = fs.String("scenario", "", "scenario file to run (overrides -exp)")
		parallel     = fs.Int("parallel", 0, "worker pool size for scenario/worker runs (0 = host CPUs)")
		out          = fs.String("out", "", "JSONL output path for -scenario (default: stdout); with -exp fig7, CSV path for every clock-skew sample")
		serve        = fs.String("serve", "", "coordinator mode: serve the -scenario runs to workers on this address")
		worker       = fs.Bool("worker", false, "worker mode: pull runs from a coordinator (-connect)")
		connect      = fs.String("connect", "", "coordinator address for -worker (host:port)")
		submit       = fs.String("submit", "", "submit the -scenario to a graphited daemon at this base URL and stream the records back")
		resume       = fs.String("resume", "", "JSONL of a previous partial run; matching error-free records are not re-executed")
		workersExp   = fs.Int("workers-expected", 0, "coordinator waits for this many worker processes before dispatching")
		cacheDir     = fs.String("cache", "", "record cache directory: serve repeated runs from cache instead of re-simulating")
		cacheBytes   = fs.Int64("cache-max-bytes", 256<<20, "record cache in-memory byte budget (disk tier is unbounded)")
		exp          = fs.String("exp", "all", "experiment: "+experiments.FlagUsage())
		preset       = fs.String("preset", "quick", "size preset: quick|standard|full")
		runs         = fs.Int("runs", 0, "repetitions for table3 (default: preset-dependent)")
		benchs       = fs.String("benchmarks", "", "comma-separated benchmark subset")
		sizes        = fs.String("sizes", "", "comma-separated int list (line sizes, tile counts, machine counts)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "graphite-sweep: "+msg)
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "graphite-sweep:", err)
		return 1
	}

	if fs.NArg() > 0 {
		return usage(fmt.Sprintf("unexpected argument %q (every input is a flag)", fs.Arg(0)))
	}
	if *worker {
		// A worker runs whatever its coordinator serves and streams the
		// records back to it: a scenario, an output or a resume file here
		// would be silently ignored.
		for _, f := range []struct{ name, value string }{
			{"scenario", *scenarioPath}, {"serve", *serve}, {"resume", *resume}, {"out", *out},
		} {
			if f.value != "" {
				return usage("-" + f.name + " belongs on the coordinator's command line, not with -worker")
			}
		}
	}
	if (*serve != "" || *resume != "") && *scenarioPath == "" {
		return usage("-serve and -resume require -scenario")
	}
	if *serve == "" && *workersExp != 0 {
		return usage("-workers-expected requires -serve")
	}
	if !*worker && *connect != "" {
		return usage("-connect requires -worker (did you forget -worker?)")
	}
	if *submit != "" {
		// The daemon owns execution: every local-execution flag is
		// meaningless (and -cache would grab the daemon's lock).
		switch {
		case *scenarioPath == "":
			return usage("-submit requires -scenario")
		case *serve != "" || *worker:
			return usage("-submit is exclusive with -serve/-worker")
		case *resume != "":
			// Ignoring it would truncate the very file the user asked to
			// resume from.
			return usage("-resume applies to local execution; resubmit to the daemon and its cache replays finished runs")
		case *cacheDir != "":
			return usage("-cache applies to local execution; the daemon owns the cache in -submit mode")
		}
		if err := submitScenario(*scenarioPath, *submit, *out, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	}
	if *worker {
		if *connect == "" {
			return usage("-worker requires -connect host:port")
		}
		if *cacheDir != "" {
			// The cache hangs off the sweep; workers only ever see specs
			// the cache already missed.
			return usage("-cache applies to -scenario/-serve, not -worker (the coordinator owns the cache)")
		}
		if err := dispatch.Work(*connect, dispatch.WorkerOptions{Parallel: *parallel, Progress: stderr}); err != nil {
			return fail(err)
		}
		return 0
	}
	if *scenarioPath != "" {
		cache, err := openCache(*cacheDir, *cacheBytes, stderr)
		if err != nil {
			return fail(err)
		}
		err = runScenario(*scenarioPath, *out, *resume, *serve, *workersExp, *parallel, cache, stdout, stderr)
		if cache != nil {
			cache.Close() // releases the cache directory's writer lock
		}
		if err != nil {
			return fail(err)
		}
		return 0
	}

	pr, err := experiments.ParsePreset(*preset)
	if err != nil {
		return usage(err.Error())
	}
	if _, ok := experiments.Find(*exp); !ok && *exp != "all" {
		return usage(fmt.Sprintf("unknown experiment %q (accepted: %s)", *exp, experiments.FlagUsage()))
	}
	opts := experiments.Options{
		Preset:   pr,
		Runs:     *runs,
		Parallel: *parallel,
	}
	if *benchs != "" {
		opts.Benchmarks = strings.Split(*benchs, ",")
	}
	if *sizes != "" {
		for _, s := range strings.Split(*sizes, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil {
				return usage("-sizes: " + err.Error())
			}
			opts.Sizes = append(opts.Sizes, v)
		}
	}

	if *out != "" {
		// The one experiment with a series to plot: the table on stdout
		// thins long traces, the file has every sample.
		if *exp != "fig7" {
			return usage("-out goes with -scenario, or with -exp fig7 (its skew samples as CSV)")
		}
		if err := fig7WithCSV(pr, *out, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	names := []string{*exp}
	if *exp == "all" {
		names = names[:0]
		for _, e := range experiments.Registry() {
			names = append(names, e.Name)
		}
	}
	for _, name := range names {
		fmt.Fprintf(stdout, "==== %s (%s preset) ====\n", name, pr)
		if err := experiments.RunByName(name, stdout, opts); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout)
	}
	return 0
}

// fig7WithCSV is -exp fig7 with -out: the usual table on stdout, and the
// same run's samples, unthinned, as CSV in path.
func fig7WithCSV(pr experiments.Preset, path string, stdout io.Writer) error {
	fmt.Fprintf(stdout, "==== fig7 (%s preset) ====\n", pr)
	r, err := experiments.Fig7(pr)
	if err != nil {
		return err
	}
	r.Print(stdout)
	fmt.Fprintln(stdout)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openCache builds the record cache from the -cache* flags; nil means
// caching is off (no -cache dir).
func openCache(dir string, maxBytes int64, stderr io.Writer) (*recordcache.Cache, error) {
	if dir == "" {
		return nil, nil
	}
	c, err := recordcache.Open(recordcache.Options{Dir: dir, MaxBytes: maxBytes})
	if err != nil {
		return nil, err
	}
	if c.Stats().ReadOnly {
		fmt.Fprintf(stderr, "cache %s: writer lock held by another sweep, serving read-only\n", dir)
	}
	return c, nil
}

// cacheSummary emits the hit/miss line CI and operators key off: the
// warm-sweep contract is simulated=0 and hit_rate=100.0%.
func cacheSummary(cache *recordcache.Cache, records []scenario.Record, stderr io.Writer) {
	if cache == nil {
		return
	}
	st := cache.Stats()
	cached := 0
	for i := range records {
		if records[i].Cached {
			cached++
		}
	}
	fmt.Fprintf(stderr, "cache: hits=%d misses=%d hit_rate=%.1f%% evictions=%d bytes=%d entries=%d simulated=%d cached=%d\n",
		st.Hits, st.Misses, st.HitRate(), st.Evictions, st.DiskLive, st.DiskEntries, len(records)-cached, cached)
}

// submitScenario runs the scenario through a graphited daemon: POST the
// file, stream the merged JSONL to out (byte-verbatim — the service's
// records are already in final form), resume the stream on connection
// drops, and mirror the job's terminal state in the exit status.
func submitScenario(path, baseURL, out string, stdout, stderr io.Writer) error {
	body, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	cl, err := client.New(baseURL)
	if err != nil {
		return err
	}
	ctx := context.Background()

	st, err := cl.Submit(ctx, body)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "scenario %s: %d runs, submitted as job %s to %s\n",
		st.Scenario, st.RunsTotal, st.ID, baseURL)

	w := stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	// StreamRecords resumes after a drop from the count already written
	// (records arrive in run-index order), so the output stays
	// byte-identical; an error here is one retrying cannot mend.
	written, err := cl.StreamRecords(ctx, st.ID, 0, w)
	if err != nil {
		return fmt.Errorf("record stream: %w; resume with: GET /v1/jobs/%s/records?from=%d", err, st.ID, written)
	}

	// The stream ends when the job settles; fetch the terminal state for
	// the summary and the exit status.
	final, err := cl.WaitTerminal(ctx, st.ID)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "job %s %s: %d records (%d executed, %d cached)\n",
		final.ID, final.State, written, final.RunsExecuted, final.RunsCached)
	if out != "" {
		fmt.Fprintf(stderr, "wrote %d records to %s\n", written, out)
	}
	if final.State != "done" {
		return fmt.Errorf("job %s %s: %s", final.ID, final.State, final.Error)
	}
	return nil
}

// runScenario loads and expands one scenario file and runs it as a sweep:
// on local worker slots or, with serve set, on whatever workers attach to
// a coordinator listening there.
func runScenario(path, out, resumePath, serve string, workersExpected, parallel int, cache *recordcache.Cache, stdout, stderr io.Writer) error {
	sc, err := scenario.Load(path)
	if err != nil {
		return err
	}
	specs, err := sc.Expand()
	if err != nil {
		return err
	}

	// Read the resume file before creating the output: -resume and -out
	// may name the same path.
	var resume []scenario.Record
	if resumePath != "" {
		resume, err = readResume(resumePath, stderr)
		if err != nil {
			return err
		}
	}

	opt := scenario.SweepOptions{
		Serial:   scenario.NeedsSerial(sc, specs),
		Verify:   sc.Verify,
		Progress: stderr,
		Resume:   resume,
	}
	if cache != nil {
		// Assigned conditionally: a nil *recordcache.Cache in the
		// interface field would dodge the sweep's nil check.
		opt.Cache = cache
	}
	var sw *scenario.Sweep
	var wait func() ([]scenario.Record, error)
	where := ""
	if serve != "" {
		c, err := dispatch.NewCoordinator(specs, dispatch.Options{Addr: serve, WorkersExpected: workersExpected, SweepOptions: opt})
		if err != nil {
			return err
		}
		sw, wait, where = c.Sweep, c.Wait, ", serving on "+c.Addr()
	} else {
		sw = scenario.NewSweep(specs, opt)
		wait = func() ([]scenario.Record, error) {
			sw.Work(parallel)
			return sw.Wait()
		}
	}

	// Truncate the output only now: -out may name the same file as
	// -resume, and a startup failure (bad scenario, bad address, port in
	// use) must not destroy the records we just read from it. Still
	// before any run executes, so a bad path fails in seconds, not after
	// hours of simulation.
	w := stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	sw.SetOutput(w)
	fmt.Fprintf(stderr, "scenario %s: %d runs (%d resumed, %d cached)%s\n",
		sc.Name, len(specs), sw.Reused(), sw.Cached(), where)

	records, runErr := wait()
	cacheSummary(cache, records, stderr)
	if out != "" {
		fmt.Fprintf(stderr, "wrote %d records to %s (%d executed, %d resumed, %d cached)\n",
			len(records), out, sw.Executed(), sw.Reused(), sw.Cached())
	}
	return runErr
}

// readResume reads a previous run's JSONL, tolerating a torn final line:
// an interrupted coordinator (crash, disk full) can leave a partial last
// record, and that must not make the durable prefix — the whole point of
// -resume — unreadable. Corruption anywhere else still fails loudly.
func readResume(path string, stderr io.Writer) ([]scenario.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("resume: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), 64<<20) // records can embed per-tile stats
	var records []scenario.Record
	lineNo, badLine := 0, 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if badLine != 0 {
			return nil, fmt.Errorf("resume %s: line %d: invalid record (not a torn tail)", path, badLine)
		}
		var rec scenario.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			badLine = lineNo // fatal only if another record follows
			continue
		}
		records = append(records, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("resume %s: %w", path, err)
	}
	if badLine != 0 {
		fmt.Fprintf(stderr, "resume %s: dropping torn final record on line %d\n", path, badLine)
	}
	return records, nil
}
