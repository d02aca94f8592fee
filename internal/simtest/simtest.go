// Package simtest holds what tests of the simulator share. A simulation
// that loses a message does not fail, it parks every thread and waits
// (ROADMAP item 1), so a test that runs one bounds it here and gets the
// model state that says who waits for whom — not `go test`'s ten-minute
// timeout and a truncated dump.
package simtest

import (
	"os"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/park"
)

// Deadline runs fn on its own goroutine and returns when fn does. If fn
// is still running after d it writes every goroutine's stack to standard
// error, then what every live simulation waits for (park.Report: per
// process the ledger round, the MCP's counts, each shard's ready list and
// each thread's wait — application threads are coroutines, so their
// stacks do not say it), and fails the test at once; fn's goroutine is
// abandoned, and the caller's cleanup (Cluster.Close tears a wedged run
// down) still runs.
// fn must report through t.Error, not t.Fatal: it is not the test
// goroutine.
func Deadline(t testing.TB, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
		park.Report(os.Stderr)
		t.Fatalf("still running after %v; goroutine stacks and model state are on standard error", d)
	}
}
