// Command graphite runs one workload on one simulated target architecture
// and prints its statistics — the everyday driver for exploring a
// configuration. The simulation's -procs processes share this OS process,
// and its channel fabric, unless told otherwise:
//
//	graphite -workload radix -tiles 32 -threads 32 -procs 2 -sync laxp2p
//	graphite -list
//
// One OS process each, connected by TCP — the deployment mode of the
// paper's cluster experiments — with the workers forked on this machine:
//
//	graphite -procs 2 -fork -workload radix
//
// or started by hand, possibly on other machines. Give every process the
// same flags, the full host list (-hosts, or a shared -hostfile) and its
// own -proc; process 0 hosts the MCP and prints the report, the others
// serve their tiles until it announces teardown. Start them in any order
// within the connect timeout:
//
//	hostB$ graphite -procs 2 -proc 1 -hosts hostA:36400,hostB:36400 -workload radix
//	hostA$ graphite -procs 2 -proc 0 -hosts hostA:36400,hostB:36400 -workload radix
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core/launch"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func main() {
	// The copies of this binary that -fork starts as fabric workers enter
	// here and never return.
	launch.MaybeWorkerProcess()
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: parse args, simulate, print to stdout. It
// returns the process exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphite", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "radix", "workload name (see -list)")
		list      = fs.Bool("list", false, "list workloads and exit")
		tiles     = fs.Int("tiles", 32, "target tiles")
		threads   = fs.Int("threads", 0, "worker threads (default: tiles)")
		procs     = fs.Int("procs", 1, "simulated host processes")
		scale     = fs.Int("scale", 0, "problem size (default: workload default)")
		syncFlag  = fs.String("sync", "lax", "sync model: lax|lax_barrier|lax_p2p")
		quantum   = fs.Int64("quantum", 0, "barrier quantum in cycles (0: config default)")
		coher     = fs.String("coherence", "full_map", "coherence: full_map|dir_nb|limitless")
		ptrs      = fs.Int("dirptrs", 4, "directory pointers for dir_nb/limitless")
		lineSize  = fs.Int("line", 64, "cache line size in bytes")
		workers   = fs.Int("workers", 0, "host cores the simulation may use on each host, shared by the processes there (GOMAXPROCS and memory-server shards), 0 = all")
		seed      = fs.Int64("seed", 1, "model random seed")
		showTiles = fs.Bool("pertile", false, "print per-tile statistics")

		fork     = fs.Bool("fork", false, "one OS process per simulated process: fork the other -procs-1 on this machine")
		procID   = fs.Int("proc", 0, "one OS process per simulated process, started by hand: this one's ID (needs -hosts or -hostfile)")
		hostList = fs.String("hosts", "", "comma-separated host:port list, one per process, same order everywhere")
		hostFile = fs.String("hostfile", "", "file with one host:port per line (alternative to -hosts)")
		dialTO   = fs.Duration("connect-timeout", 30*time.Second, "how long to retry fabric connections while peers come up")

		ckptDir   = fs.String("checkpoint-dir", "", "directory for checkpoint manifests (enables checkpointing with -checkpoint-every; requires -sync lax_barrier)")
		ckptEvery = fs.Int64("checkpoint-every", 0, "checkpoint every N lax-barrier epochs (0 disables)")
		restarts  = fs.Int("max-restarts", 0, "with -fork: re-fork and replay up to N times after a worker dies")
		chaosMS   = fs.Int("chaos-exit-ms", 0, "fault injection: worker 1 SIGKILLs itself after this many milliseconds (testing only)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *list {
		for _, n := range workloads.Names() {
			w, _ := workloads.Get(n)
			fmt.Fprintf(stdout, "%-16s scale=%-5d %s\n", n, w.DefaultScale, w.Description)
		}
		return 0
	}

	w, ok := workloads.Get(*name)
	if !ok {
		return usage(fmt.Errorf("unknown workload %q; try -list", *name))
	}
	if *threads == 0 {
		*threads = *tiles
	}
	if *scale == 0 {
		*scale = w.DefaultScale
	}

	cfg := config.Default()
	cfg.Tiles = *tiles
	cfg.Processes = *procs
	cfg.Workers = *workers
	cfg.RandSeed = *seed
	cfg.L1D.LineSize = *lineSize
	cfg.L1I.LineSize = *lineSize
	cfg.L2.LineSize = *lineSize
	var err error
	if cfg.Sync.Model, err = config.ParseSyncModel(*syncFlag); err != nil {
		return usage(err)
	}
	if *quantum > 0 {
		cfg.Sync.BarrierQuantum = arch.Cycles(*quantum)
	}
	if cfg.Coherence.Kind, err = config.ParseCoherenceKind(*coher); err != nil {
		return usage(err)
	}
	if cfg.Coherence.Kind != config.FullMap {
		cfg.Coherence.DirPointers = *ptrs
	}
	if err := cfg.Validate(); err != nil {
		return usage(err)
	}

	// Where the processes run: a host list without -fork is the by-hand
	// role, in which this OS process is process -proc and nothing else.
	hosts, err := resolveHosts(*hostList, *hostFile, *procs)
	if err != nil {
		return usage(err)
	}
	byHand := hosts != nil && !*fork
	if *procID != 0 && !byHand {
		return usage(errors.New("-proc names this process's role among ones started by hand: it needs -hosts or -hostfile, and excludes -fork"))
	}
	if byHand && *ckptEvery > 0 && *ckptDir == "" {
		return usage(errors.New("processes started by hand checkpoint into a directory each of them is told: -checkpoint-every needs -checkpoint-dir"))
	}

	if *procID != 0 {
		err := launch.RunWorker(&launch.WorkerSpec{
			Proc:          *procID,
			Hosts:         hosts,
			Workload:      *name,
			Threads:       *threads,
			Scale:         *scale,
			DialTimeoutMS: int(dialTO.Milliseconds()),
			CheckpointDir: *ckptDir,
			ConfigDigest:  scenario.Digest(&cfg),
			Verbose:       true,
			Config:        cfg,
		})
		if err != nil {
			fmt.Fprintln(stderr, "worker:", err)
			return 1
		}
		return 0
	}

	// One run, executed exactly as a sweep would execute it, so the
	// numbers printed here are the numbers of the run's sweep record.
	spec := scenario.RunSpec{
		Scenario:  "graphite",
		Workload:  *name,
		Threads:   *threads,
		Scale:     *scale,
		Seed:      *seed,
		Hosts:     hosts,
		Config:    cfg,
		TileStats: *showTiles,
	}
	if *ckptEvery > 0 {
		spec.Checkpoint = &scenario.CheckpointPolicy{Every: *ckptEvery, Dir: *ckptDir}
	}
	var via func(*launch.Spec) (*launch.Result, error)
	if *fork || byHand {
		spec.Processes = *procs
		via = func(ls *launch.Spec) (*launch.Result, error) {
			// What a sweep's RunSpec has no field for.
			ls.DialTimeout, ls.MaxRestarts, ls.ChaosExitMS = *dialTO, *restarts, *chaosMS
			ls.WorkerVerbose, ls.WorkerOutput = true, stderr
			if byHand {
				return launch.Coordinate(ls)
			}
			return launch.Run(ls)
		}
	}

	experiments.Table1(stdout, cfg)
	fmt.Fprintln(stdout)

	rec, rs := scenario.ExecuteVia(&spec, via)
	if rec.Error != "" {
		fmt.Fprintln(stderr, rec.Error)
		return 1
	}

	t := &rec.Stats
	fmt.Fprintf(stdout, "workload          %s (scale %d, %d threads)\n", *name, *scale, *threads)
	fmt.Fprintf(stdout, "simulated cycles  %d (%.3f ms of target time)\n",
		rec.SimCycles, float64(rec.SimCycles)/float64(cfg.ClockHz)*1e3)
	fmt.Fprintf(stdout, "wall time         %v\n", rs.Wall)
	for p, sec := range rec.ProcWallSec {
		fmt.Fprintf(stdout, "proc %-2d           served %.3fs\n", p, sec)
	}
	fmt.Fprintf(stdout, "checksum          %016x\n", math.Float64bits(rec.Checksum))
	fmt.Fprintf(stdout, "config digest     %s\n", rec.ConfigDigest)
	fmt.Fprintf(stdout, "instructions      %d\n", t.Instructions)
	fmt.Fprintf(stdout, "loads / stores    %d / %d\n", t.Loads, t.Stores)
	fmt.Fprintf(stdout, "L2 miss rate      %.4f%% (cold %.4f%% capacity %.4f%% true %.4f%% false %.4f%%)\n",
		100*t.MissRate(),
		100*t.MissRateBy(stats.MissCold),
		100*t.MissRateBy(stats.MissCapacity),
		100*t.MissRateBy(stats.MissTrueSharing),
		100*t.MissRateBy(stats.MissFalseSharing))
	fmt.Fprintf(stdout, "avg mem latency   %.1f cycles over %d L2 misses\n",
		t.AvgMemLatency(), t.MemAccesses)
	fmt.Fprintf(stdout, "upgrades          %d, invalidations %d, dir traps %d\n",
		t.Upgrades, t.InvSent, t.DirTraps)
	fmt.Fprintf(stdout, "DRAM              %d reads, %d writes\n", t.DRAMReads, t.DRAMWrites)
	fmt.Fprintf(stdout, "network           %d packets, %d bytes\n", t.NetPacketsSent, t.NetBytesSent)
	fmt.Fprintf(stdout, "branches          %d (%.2f%% mispredicted)\n", t.Branches,
		100*float64(t.BranchMispredict)/float64(max(t.Branches, 1)))

	if *showTiles {
		fmt.Fprintf(stdout, "\n%-6s %14s %12s %10s %10s %10s\n", "tile", "cycles", "instr", "loads", "stores", "l2miss")
		for _, ts := range rec.Tiles {
			fmt.Fprintf(stdout, "%-6d %14d %12d %10d %10d %10d\n",
				ts.TileID, ts.Cycles, ts.Instructions, ts.Loads, ts.Stores, ts.L2Misses)
		}
	}
	return 0
}

// resolveHosts reads the per-process fabric address list from -hosts or
// -hostfile; nil when neither is given.
func resolveHosts(list, file string, procs int) ([]string, error) {
	var hosts []string
	var err error
	switch {
	case list != "" && file != "":
		return nil, errors.New("-hosts and -hostfile are mutually exclusive")
	case list != "":
		hosts, err = launch.ParseHosts(list)
	case file != "":
		hosts, err = launch.ReadHostsFile(file)
	default:
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	if len(hosts) != procs {
		return nil, fmt.Errorf("%d hosts for %d processes", len(hosts), procs)
	}
	return hosts, nil
}
