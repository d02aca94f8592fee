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

	var (
		addr       = flag.String("addr", "127.0.0.1:9640", "HTTP listen address")
		workers    = flag.Int("workers", 0, "in-process worker slots per job (0 = host CPUs, negative = external workers only)")
		maxActive  = flag.Int("max-active", 1, "jobs running concurrently; further jobs queue in submission order")
		cacheDir   = flag.String("cache", "", "record cache directory shared by every job (strongly recommended; see docs/OPERATIONS.md)")
		cacheBytes = flag.Int64("cache-max-bytes", 256<<20, "record cache in-memory byte budget (disk tier is unbounded)")
		cacheTTL   = flag.Duration("cache-ttl", 0, "record cache entry time-to-live, e.g. 72h (0 = never expire)")
		drain      = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for accepted jobs before canceling them")
		verbose    = flag.Bool("verbose", false, "log 2xx requests too (non-2xx are always logged)")
		quiet      = flag.Bool("quiet", false, "suppress per-run progress lines")
	)
	flag.Parse()

	var cache *recordcache.Cache
	if *cacheDir != "" {
		c, err := recordcache.Open(recordcache.Options{Dir: *cacheDir, MaxBytes: *cacheBytes, TTL: *cacheTTL})
		if err != nil {
			fmt.Fprintln(os.Stderr, "graphited:", err)
			os.Exit(1)
		}
		if c.Stats().ReadOnly {
			fmt.Fprintf(os.Stderr, "graphited: cache %s: writer lock held by another process, serving read-only\n", *cacheDir)
		}
		cache = c
	}

	opt := service.Options{
		Workers:   *workers,
		MaxActive: *maxActive,
		Log:       os.Stderr,
		Verbose:   *verbose,
	}
	if cache != nil {
		opt.Cache = cache
	}
	if !*quiet {
		opt.Progress = os.Stderr
	}
	svc := service.New(opt)

	httpSrv := &http.Server{Addr: *addr, Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)

	fmt.Fprintf(os.Stderr, "graphited: serving on %s (workers=%d, max-active=%d, cache=%s)\n",
		*addr, svc.Workers(), *maxActive, orNone(*cacheDir))

	exit := 0
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "graphited: %s: draining (timeout %s)\n", sig, *drain)
		if canceled := svc.DrainAndStop(*drain); canceled > 0 {
			fmt.Fprintf(os.Stderr, "graphited: canceled %d unfinished job(s)\n", canceled)
		}
		// Jobs are settled, so every record stream has ended; Shutdown
		// only waits out idle keep-alives.
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		httpSrv.Shutdown(ctx)
		cancel()
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "graphited:", err)
			exit = 1
		}
		svc.Close()
	}
	if cache != nil {
		cache.Close() // releases the cache directory's writer lock
	}
	os.Exit(exit)
}

func orNone(s string) string {
	if s == "" {
		return "none"
	}
	return s
}
