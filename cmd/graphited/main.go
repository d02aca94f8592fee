// Command graphited is the simulation service daemon: a long-lived HTTP
// server that accepts scenario sweeps as jobs, executes each as one
// sweep on its worker fleet, memoizes results in a shared record cache,
// and streams the JSONL records back to clients. See docs/API.md for the wire surface and
// docs/OPERATIONS.md for running it in production.
//
// Usage:
//
//	graphited -addr 127.0.0.1:9640 -cache /var/cache/graphited
//	graphite-sweep -scenario sweep.json -submit http://127.0.0.1:9640 -out r.jsonl
//
// Shutdown: SIGINT/SIGTERM begins a drain — /healthz flips to 503 and
// new jobs are rejected while accepted ones get -drain-timeout to
// finish, after which they are canceled — then the HTTP server closes
// and the record cache's writer lock is released.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core/launch"
	"repro/internal/recordcache"
	"repro/internal/service"
)

func main() {
	// Jobs whose scenarios declare processes > 1 fork worker copies of
	// this binary (launch re-exec); those copies enter here and never
	// return.
	launch.MaybeWorkerProcess()
	os.Exit(run(os.Args[1:], os.Stderr))
}

// run is the whole daemon: parse args, serve until SIGINT/SIGTERM or a
// listener failure, drain. It logs to stderr and returns the process exit
// status: 2 for a usage error, 1 for a failure.
func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("graphited", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr       = fs.String("addr", "127.0.0.1:9640", "HTTP listen address")
		workers    = fs.Int("workers", 0, "in-process worker slots per job (0 = host CPUs, negative = external workers only)")
		maxActive  = fs.Int("max-active", 1, "jobs running concurrently; further jobs queue in submission order")
		cacheDir   = fs.String("cache", "", "record cache directory shared by every job (strongly recommended; see docs/OPERATIONS.md)")
		cacheBytes = fs.Int64("cache-max-bytes", 256<<20, "record cache in-memory byte budget (disk tier is unbounded)")
		drain      = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for accepted jobs before canceling them")
		verbose    = fs.Bool("verbose", false, "log 2xx requests too (non-2xx are always logged)")
		quiet      = fs.Bool("quiet", false, "suppress per-run progress lines")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(msg string) int {
		fmt.Fprintln(stderr, "graphited: "+msg)
		return 2
	}
	if fs.NArg() > 0 {
		return usage(fmt.Sprintf("unexpected argument %q (every setting is a flag)", fs.Arg(0)))
	}
	if *cacheDir == "" {
		tuned := false
		fs.Visit(func(f *flag.Flag) { tuned = tuned || f.Name == "cache-max-bytes" })
		if tuned {
			return usage("-cache-max-bytes tunes the record cache and needs -cache")
		}
	}

	var cache *recordcache.Cache
	if *cacheDir != "" {
		c, err := recordcache.Open(recordcache.Options{Dir: *cacheDir, MaxBytes: *cacheBytes})
		if err != nil {
			fmt.Fprintln(stderr, "graphited:", err)
			return 1
		}
		if c.Stats().ReadOnly {
			fmt.Fprintf(stderr, "graphited: cache %s: writer lock held by another process, serving read-only\n", *cacheDir)
		}
		cache = c
	}

	opt := service.Options{
		Workers:   *workers,
		MaxActive: *maxActive,
		Log:       stderr,
		Verbose:   *verbose,
	}
	if cache != nil {
		opt.Cache = cache
	}
	if !*quiet {
		opt.Progress = stderr
	}
	svc := service.New(opt)

	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigc)

	fmt.Fprintf(stderr, "graphited: serving on %s (workers=%d, max-active=%d, cache=%s)\n",
		*addr, svc.Workers(), *maxActive, orNone(*cacheDir))

	exit := 0
	select {
	case sig := <-sigc:
		fmt.Fprintf(stderr, "graphited: %s: draining (timeout %s)\n", sig, *drain)
		if canceled := svc.DrainAndStop(*drain); canceled > 0 {
			fmt.Fprintf(stderr, "graphited: canceled %d unfinished job(s)\n", canceled)
		}
		// Jobs are settled, so every record stream has ended; Shutdown
		// only waits out idle keep-alives.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		httpSrv.Shutdown(ctx)
		cancel()
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(stderr, "graphited:", err)
			exit = 1
		}
		svc.Close()
	}
	if cache != nil {
		cache.Close() // releases the cache directory's writer lock
	}
	return exit
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
