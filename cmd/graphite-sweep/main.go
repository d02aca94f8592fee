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
// byte-identical records up to wall_sec/cached. -cache-max-bytes,
// -cache-ttl, and -no-cache tune or disable it.
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
	"os"
	"strconv"
	"strings"
	"time"

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

	var (
		scenarioPath = flag.String("scenario", "", "scenario file to run (overrides -exp)")
		parallel     = flag.Int("parallel", 0, "worker pool size for scenario/worker runs (0 = host CPUs)")
		out          = flag.String("out", "", "JSONL output path for -scenario (default: stdout); with -exp fig7, CSV path for every clock-skew sample")
		serve        = flag.String("serve", "", "coordinator mode: serve the -scenario runs to workers on this address")
		worker       = flag.Bool("worker", false, "worker mode: pull runs from a coordinator (-connect)")
		connect      = flag.String("connect", "", "coordinator address for -worker (host:port)")
		submit       = flag.String("submit", "", "submit the -scenario to a graphited daemon at this base URL and stream the records back")
		resume       = flag.String("resume", "", "JSONL of a previous partial run; matching error-free records are not re-executed")
		workersExp   = flag.Int("workers-expected", 0, "coordinator waits for this many worker processes before dispatching")
		cacheDir     = flag.String("cache", "", "record cache directory: serve repeated runs from cache instead of re-simulating")
		cacheBytes   = flag.Int64("cache-max-bytes", 256<<20, "record cache in-memory byte budget (disk tier is unbounded)")
		cacheTTL     = flag.Duration("cache-ttl", 0, "record cache entry time-to-live, e.g. 72h (0 = never expire)")
		noCache      = flag.Bool("no-cache", false, "disable the record cache even when -cache is set")
		exp          = flag.String("exp", "all", "experiment: "+experiments.FlagUsage())
		preset       = flag.String("preset", "quick", "size preset: quick|standard|full")
		runs         = flag.Int("runs", 0, "repetitions for table3 (default: preset-dependent)")
		benchs       = flag.String("benchmarks", "", "comma-separated benchmark subset")
		sizes        = flag.String("sizes", "", "comma-separated int list (line sizes, tile counts, machine counts)")
	)
	flag.Parse()

	if (*serve != "" || *resume != "") && *scenarioPath == "" {
		fmt.Fprintln(os.Stderr, "graphite-sweep: -serve and -resume require -scenario")
		os.Exit(2)
	}
	if *serve == "" && *workersExp != 0 {
		fmt.Fprintln(os.Stderr, "graphite-sweep: -workers-expected requires -serve")
		os.Exit(2)
	}
	if !*worker && *connect != "" {
		fmt.Fprintln(os.Stderr, "graphite-sweep: -connect requires -worker (did you forget -worker?)")
		os.Exit(2)
	}
	if *submit != "" {
		// The daemon owns execution: every local-execution flag is
		// meaningless (and -cache would grab the daemon's lock).
		switch {
		case *scenarioPath == "":
			fmt.Fprintln(os.Stderr, "graphite-sweep: -submit requires -scenario")
			os.Exit(2)
		case *serve != "" || *worker:
			fmt.Fprintln(os.Stderr, "graphite-sweep: -submit is exclusive with -serve/-worker")
			os.Exit(2)
		case *resume != "":
			// Ignoring it would truncate the very file the user asked to
			// resume from.
			fmt.Fprintln(os.Stderr, "graphite-sweep: -resume applies to local execution; resubmit to the daemon and its cache replays finished runs")
			os.Exit(2)
		case *cacheDir != "":
			fmt.Fprintln(os.Stderr, "graphite-sweep: -cache applies to local execution; the daemon owns the cache in -submit mode")
			os.Exit(2)
		}
		if err := submitScenario(*scenarioPath, *submit, *out); err != nil {
			fmt.Fprintln(os.Stderr, "graphite-sweep:", err)
			os.Exit(1)
		}
		return
	}
	if *worker {
		if *connect == "" {
			fmt.Fprintln(os.Stderr, "graphite-sweep: -worker requires -connect host:port")
			os.Exit(2)
		}
		if *cacheDir != "" {
			// The cache hangs off the sweep; workers only ever see specs
			// the cache already missed.
			fmt.Fprintln(os.Stderr, "graphite-sweep: -cache applies to -scenario/-serve, not -worker (the coordinator owns the cache)")
			os.Exit(2)
		}
		if err := dispatch.Work(*connect, dispatch.WorkerOptions{Parallel: *parallel, Progress: os.Stderr}); err != nil {
			fmt.Fprintln(os.Stderr, "graphite-sweep:", err)
			os.Exit(1)
		}
		return
	}
	cache, err := openCache(*cacheDir, *cacheBytes, *cacheTTL, *noCache)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphite-sweep:", err)
		os.Exit(1)
	}
	// Close explicitly (not deferred): os.Exit skips defers and the
	// close releases the cache directory's writer lock.
	closeCache := func() {
		if cache != nil {
			cache.Close()
		}
	}
	if *scenarioPath != "" {
		err := runScenario(*scenarioPath, *out, *resume, *serve, *workersExp, *parallel, cache)
		closeCache()
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphite-sweep:", err)
			os.Exit(1)
		}
		return
	}
	closeCache()

	pr, err := experiments.ParsePreset(*preset)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			opts.Sizes = append(opts.Sizes, v)
		}
	}

	if *out != "" {
		// The one experiment with a series to plot: the table on stdout
		// thins long traces, the file has every sample.
		if *exp != "fig7" {
			fmt.Fprintln(os.Stderr, "graphite-sweep: -out goes with -scenario, or with -exp fig7 (its skew samples as CSV)")
			os.Exit(2)
		}
		if err := fig7WithCSV(pr, *out); err != nil {
			fmt.Fprintln(os.Stderr, "graphite-sweep:", err)
			os.Exit(1)
		}
		return
	}

	runOne := func(name string) {
		fmt.Printf("==== %s (%s preset) ====\n", name, pr)
		if err := experiments.RunByName(name, os.Stdout, opts); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if *exp == "all" {
		for _, e := range experiments.Registry() {
			runOne(e.Name)
		}
		return
	}
	runOne(*exp)
}

// fig7WithCSV is -exp fig7 with -out: the usual table on stdout, and the
// same run's samples, unthinned, as CSV in path.
func fig7WithCSV(pr experiments.Preset, path string) error {
	fmt.Printf("==== fig7 (%s preset) ====\n", pr)
	r, err := experiments.Fig7(pr)
	if err != nil {
		return err
	}
	r.Print(os.Stdout)
	fmt.Println()
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
// caching is off (no -cache dir, or -no-cache).
func openCache(dir string, maxBytes int64, ttl time.Duration, disabled bool) (*recordcache.Cache, error) {
	if dir == "" || disabled {
		return nil, nil
	}
	c, err := recordcache.Open(recordcache.Options{Dir: dir, MaxBytes: maxBytes, TTL: ttl})
	if err != nil {
		return nil, err
	}
	if c.Stats().ReadOnly {
		fmt.Fprintf(os.Stderr, "cache %s: writer lock held by another sweep, serving read-only\n", dir)
	}
	return c, nil
}

// cacheSummary emits the hit/miss line CI and operators key off: the
// warm-sweep contract is simulated=0 and hit_rate=100.0%.
func cacheSummary(cache *recordcache.Cache, records []scenario.Record) {
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
	fmt.Fprintf(os.Stderr, "cache: hits=%d misses=%d hit_rate=%.1f%% evictions=%d bytes=%d entries=%d simulated=%d cached=%d\n",
		st.Hits, st.Misses, st.HitRate(), st.Evictions, st.DiskLive, st.DiskEntries, len(records)-cached, cached)
}

// submitScenario runs the scenario through a graphited daemon: POST the
// file, stream the merged JSONL to out (byte-verbatim — the service's
// records are already in final form), resume the stream on connection
// drops, and mirror the job's terminal state in the exit status.
func submitScenario(path, baseURL, out string) error {
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
	fmt.Fprintf(os.Stderr, "scenario %s: %d runs, submitted as job %s to %s\n",
		st.Scenario, st.RunsTotal, st.ID, baseURL)

	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	// Stream with resume: the line index is a stable cursor (records
	// arrive in run-index order), so after a drop we continue from the
	// count already written and the output stays byte-identical.
	written := 0
	for attempt := 0; ; {
		n, err := cl.StreamRecords(ctx, st.ID, written, w)
		written += n
		if err == nil {
			break
		}
		attempt++
		if attempt >= 5 {
			return fmt.Errorf("record stream failed %d times (last: %w); resume with: GET /v1/jobs/%s/records?from=%d", attempt, err, st.ID, written)
		}
		fmt.Fprintf(os.Stderr, "record stream interrupted after %d records (%v), resuming\n", written, err)
		time.Sleep(500 * time.Millisecond)
	}

	// The stream ends when the job settles; fetch the terminal state for
	// the summary and the exit status.
	final, err := cl.WaitTerminal(ctx, st.ID)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "job %s %s: %d records (%d executed, %d cached)\n",
		final.ID, final.State, written, final.RunsExecuted, final.RunsCached)
	if out != "" {
		fmt.Fprintf(os.Stderr, "wrote %d records to %s\n", written, out)
	}
	if final.State != "done" {
		return fmt.Errorf("job %s %s: %s", final.ID, final.State, final.Error)
	}
	return nil
}

// runScenario loads and expands one scenario file and runs it as a sweep:
// on local worker slots or, with serve set, on whatever workers attach to
// a coordinator listening there.
func runScenario(path, out, resumePath, serve string, workersExpected, parallel int, cache *recordcache.Cache) error {
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
		resume, err = readResume(resumePath)
		if err != nil {
			return err
		}
	}

	opt := scenario.SweepOptions{
		Serial:   scenario.NeedsSerial(sc, specs),
		Verify:   sc.Verify,
		Progress: os.Stderr,
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
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	sw.SetOutput(w)
	fmt.Fprintf(os.Stderr, "scenario %s: %d runs (%d resumed, %d cached)%s\n",
		sc.Name, len(specs), sw.Reused(), sw.Cached(), where)

	records, runErr := wait()
	cacheSummary(cache, records)
	if out != "" {
		fmt.Fprintf(os.Stderr, "wrote %d records to %s (%d executed, %d resumed, %d cached)\n",
			len(records), out, sw.Executed(), sw.Reused(), sw.Cached())
	}
	return runErr
}

// readResume reads a previous run's JSONL, tolerating a torn final line:
// an interrupted coordinator (crash, disk full) can leave a partial last
// record, and that must not make the durable prefix — the whole point of
// -resume — unreadable. Corruption anywhere else still fails loudly.
func readResume(path string) ([]scenario.Record, error) {
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
		fmt.Fprintf(os.Stderr, "resume %s: dropping torn final record on line %d\n", path, badLine)
	}
	return records, nil
}
