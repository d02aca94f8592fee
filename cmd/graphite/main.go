// Command graphite runs one workload on one simulated target architecture
// and prints its statistics — the everyday driver for exploring a
// configuration.
//
// Usage:
//
//	graphite -workload radix -tiles 32 -threads 32 -procs 2 -sync laxp2p
//	graphite -list
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"repro/internal/config"
	"repro/internal/core/launch"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/stats"
	"repro/internal/workloads"
)

func main() {
	// If a multi-process run ever forks copies of this binary as fabric
	// workers, those copies enter here and never return.
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
		syncFlag  = fs.String("sync", "lax", "sync model: lax|laxbarrier|laxp2p")
		coher     = fs.String("coherence", "fullmap", "coherence: fullmap|dirnb|limitless")
		ptrs      = fs.Int("dirptrs", 4, "directory pointers for dirnb/limitless")
		lineSize  = fs.Int("line", 64, "cache line size in bytes")
		transport = fs.String("transport", "channel", "transport: channel|tcp")
		workers   = fs.Int("workers", 0, "host worker cores (GOMAXPROCS), 0 = all")
		seed      = fs.Int64("seed", 1, "model random seed")
		showTiles = fs.Bool("pertile", false, "print per-tile statistics")
	)
	if err := fs.Parse(args); err != nil {
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
		fmt.Fprintf(stderr, "unknown workload %q; try -list\n", *name)
		return 2
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
	switch strings.ToLower(*syncFlag) {
	case "lax":
		cfg.Sync.Model = config.Lax
	case "laxbarrier":
		cfg.Sync.Model = config.LaxBarrier
	case "laxp2p":
		cfg.Sync.Model = config.LaxP2P
	default:
		fmt.Fprintf(stderr, "unknown sync model %q\n", *syncFlag)
		return 2
	}
	switch strings.ToLower(*coher) {
	case "fullmap":
		cfg.Coherence.Kind = config.FullMap
	case "dirnb":
		cfg.Coherence.Kind = config.LimitedNB
		cfg.Coherence.DirPointers = *ptrs
	case "limitless":
		cfg.Coherence.Kind = config.LimitLESS
		cfg.Coherence.DirPointers = *ptrs
	default:
		fmt.Fprintf(stderr, "unknown coherence %q\n", *coher)
		return 2
	}
	if strings.ToLower(*transport) == "tcp" {
		cfg.Transport = config.TransportTCP
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	experiments.Table1(stdout, cfg)
	fmt.Fprintln(stdout)

	// One run, executed exactly as a sweep would execute it, so the
	// numbers printed here are the numbers of the run's sweep record.
	rec, rs := scenario.ExecuteStats(&scenario.RunSpec{
		Scenario:  "graphite",
		Workload:  *name,
		Threads:   *threads,
		Scale:     *scale,
		Seed:      *seed,
		Config:    cfg,
		TileStats: *showTiles,
	})
	if rec.Error != "" {
		fmt.Fprintln(stderr, rec.Error)
		return 1
	}

	t := &rec.Stats
	fmt.Fprintf(stdout, "workload          %s (scale %d, %d threads)\n", *name, *scale, *threads)
	fmt.Fprintf(stdout, "simulated cycles  %d (%.3f ms of target time)\n",
		rec.SimCycles, float64(rec.SimCycles)/float64(cfg.ClockHz)*1e3)
	fmt.Fprintf(stdout, "wall time         %v\n", rs.Wall)
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
