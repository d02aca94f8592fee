// The sweep engine: the one state machine every sweep runs on, whether
// its runs execute on local goroutines (Work), on remote workers
// (dispatch.Coordinator), or on both at once (graphited). Each run is
// fully isolated — Execute builds its own Cluster — so concurrent runs
// share no mutable simulator state; wall-clock time is the only
// host-dependent field of a record (see DESIGN.md, "Sweep engine").

package scenario

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/backoff"
)

// SweepOptions configures a Sweep.
type SweepOptions struct {
	// Serial limits Work to one run at a time, and is what a coordinator
	// tells remote workers to do per host process (NeedsSerial).
	Serial bool
	// Verify fills ChecksumOK against the native kernels on every record
	// that lacks it; without it ChecksumOK is stripped from every record.
	Verify bool
	// Out, when non-nil, receives the JSONL incrementally: record i is
	// written as soon as records 0..i are all complete, so a long
	// sweep's output is durable as it goes and usable as Resume input.
	Out io.Writer
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// Resume holds records from a previous partial run of the same
	// scenario. A record is reused — not re-executed — when its run index,
	// config digest and workload identity match the current expansion and
	// it carries no error.
	Resume []Record
	// Cache, when non-nil, is consulted for every spec Resume did not
	// cover (hits are adopted via CacheLookup, keyed by content digest
	// instead of run index) and receives every cacheable record the sweep
	// adopts from Resume or completes.
	Cache RecordCache
}

// maxAttempts bounds how often one spec may fail before the sweep gives
// up on it. A worker crash is blamed on the worker, but a spec that
// deterministically kills every worker that touches it (say, a record too
// large to frame) must not requeue forever, poisoning the whole fleet and
// hanging the sweep.
const maxAttempts = 3

// Requeue pacing: 100ms after a spec's first failure, doubling per
// subsequent one, capped at 2s. An immediate requeue hands the spec
// straight to the next idle worker, so a correlated outage (fleet restart,
// a flapping link) burns through all maxAttempts in milliseconds and
// abandons runs a healthy fleet would have finished; the backoff gives the
// fleet that recovery window.
const (
	requeueBase = 100 * time.Millisecond
	requeueCap  = 2 * time.Second
)

// retry is the failure history of one spec.
type retry struct {
	fails int
	delay backoff.Backoff
}

// Sweep tracks one expanded scenario from adoption to the last record:
// which runs are pending, in flight or done, their records in run-index
// order, and the in-order output flush. Drivers pull work with Next and
// return it with Complete or Fail; all methods are safe for concurrent
// use.
type Sweep struct {
	opt     SweepOptions
	specs   []RunSpec
	digests []string // config digest per spec, from this expansion
	natives NativeMemo

	// afterFunc schedules the delayed requeue of a failed spec; tests
	// replace it with an immediate or recording variant.
	afterFunc func(time.Duration, func())

	mu        sync.Mutex
	cond      *sync.Cond // signaled when the queue gains a spec or the sweep finishes
	queue     []int      // pending spec indices, handed out front to back
	retries   map[int]*retry
	done      []bool
	records   []Record
	remaining int
	reused    int
	cached    int
	executed  int
	nextWrite int
	writeErr  error
	finished  chan struct{} // closed when remaining reaches 0
}

// NewSweep builds the sweep over specs (one scenario's expansion) and
// adopts, before returning, every run that needs no execution: Resume
// records first, then cache hits. A fully adopted sweep is finished on
// return.
func NewSweep(specs []RunSpec, opt SweepOptions) *Sweep {
	sw := &Sweep{
		opt:      opt,
		specs:    specs,
		digests:  make([]string, len(specs)),
		done:     make([]bool, len(specs)),
		records:  make([]Record, len(specs)),
		finished: make(chan struct{}),
		afterFunc: func(d time.Duration, f func()) { //graphite:wallclock requeue backoff paces host-level re-dispatch; no simulated clock exists at the sweep layer
			time.AfterFunc(d, f)
		},
	}
	sw.cond = sync.NewCond(&sw.mu)
	for i := range specs {
		sw.digests[i] = Digest(&specs[i].Config)
	}

	// The config digest covers only config.Config; workload/threads/scale
	// live on the RunSpec outside it (two runs over different workloads
	// share a digest), so they must match explicitly or an edited scenario
	// could adopt another workload's results under a rewritten identity.
	for ri := range opt.Resume {
		r := &opt.Resume[ri]
		i := r.Run
		if i < 0 || i >= len(specs) || sw.done[i] || r.Error != "" || r.ConfigDigest != sw.digests[i] {
			continue
		}
		spec := &specs[i]
		if r.Workload != spec.Workload || r.Threads != spec.Threads || r.Scale != spec.Scale {
			continue
		}
		// tile_stats turned on since the record was produced: the tiles
		// cannot be backfilled without re-running.
		if spec.TileStats && len(r.Tiles) == 0 {
			continue
		}
		rec := *r
		sw.stamp(i, &rec)
		sw.offer(&rec) // Resume is one more way to warm the cache
		sw.records[i], sw.done[i] = rec, true
		sw.reused++
	}
	// The cache is keyed by content digest rather than run index, so it
	// serves edited, reordered and overlapping sweeps where Resume only
	// serves an identical re-expansion.
	for i := range specs {
		if sw.done[i] {
			continue
		}
		if rec, ok := CacheLookup(opt.Cache, &specs[i], sw.digests[i]); ok {
			sw.stamp(i, &rec)
			sw.records[i], sw.done[i] = rec, true
			sw.cached++
		} else {
			sw.queue = append(sw.queue, i)
		}
	}
	sw.remaining = len(sw.queue)
	sw.mu.Lock()
	sw.settleLocked()
	sw.mu.Unlock()
	return sw
}

// stamp makes rec — executed, resumed, cached or synthesized — the
// record of run i: identity fields from this sweep's own expansion
// (stampIdentity), and ChecksumOK as this sweep's Verify setting wants it.
// A resumed or cached record may carry a verdict from a verified past
// sweep, or lack one this sweep asks for; either way the output must not
// differ from a fresh run's. Filling a verdict may execute a native
// kernel, so stamp is never called with mu held.
func (sw *Sweep) stamp(i int, rec *Record) {
	stampIdentity(rec, &sw.specs[i], sw.digests[i])
	if !sw.opt.Verify {
		rec.ChecksumOK = nil
	} else if rec.ChecksumOK == nil {
		sw.natives.Fill(rec)
	}
}

// SetOutput installs (or replaces) the incremental output writer and
// immediately flushes the completed in-order prefix to it. It exists so a
// caller whose output path may equal its resume path can delay truncating
// the file until everything that can fail before the sweep starts has
// succeeded.
func (sw *Sweep) SetOutput(w io.Writer) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.opt.Out = w
	sw.flushLocked()
}

// Reused reports how many records were adopted from SweepOptions.Resume.
func (sw *Sweep) Reused() int { return sw.reused }

// Cached reports how many records were served by SweepOptions.Cache.
func (sw *Sweep) Cached() int { return sw.cached }

// Executed reports how many records drivers have completed so far.
func (sw *Sweep) Executed() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return sw.executed
}

// Progress reports how many of the sweep's runs have a record so far and
// the total.
func (sw *Sweep) Progress() (done, total int) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return len(sw.specs) - sw.remaining, len(sw.specs)
}

// Done is closed once every run has a record.
func (sw *Sweep) Done() <-chan struct{} { return sw.finished }

// Next hands out the next pending spec, blocking while none is pending
// but the sweep is unfinished (a failed spec may still requeue). ok is
// false once every run has a record. The caller owes the sweep exactly
// one Complete(i, …) or Fail(i).
func (sw *Sweep) Next() (i int, spec *RunSpec, ok bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	for len(sw.queue) == 0 && sw.remaining > 0 {
		sw.cond.Wait()
	}
	if sw.remaining == 0 {
		return 0, nil, false
	}
	i = sw.queue[0]
	sw.queue = sw.queue[1:]
	return i, &sw.specs[i], true
}

// Complete records the result of run i as produced by a driver: verifies
// it, offers it to the cache, and flushes the in-order prefix. A Complete
// for a run that already has a record (it was canceled or abandoned
// meanwhile) is ignored.
func (sw *Sweep) Complete(i int, rec Record) {
	sw.stamp(i, &rec)
	sw.offer(&rec)
	sw.finish(i, rec, true)
}

// offer puts a stamped record into the cache — after stamp, so cached
// records carry their verdict. Cacheable keeps errors, failed
// verifications and replays out entirely, and a killed worker's partial
// work never gets here.
func (sw *Sweep) offer(rec *Record) {
	if sw.opt.Cache != nil && Cacheable(rec) {
		sw.opt.Cache.Put(*rec)
	}
}

// Fail returns an in-flight spec to the queue after its driver lost it
// (a dead worker connection) — after the backoff delay for this attempt —
// or, past maxAttempts, records the failure the way a failed run would be
// recorded, so the sweep still completes.
func (sw *Sweep) Fail(i int) {
	sw.mu.Lock()
	if sw.done[i] {
		sw.mu.Unlock()
		return
	}
	if sw.retries == nil {
		sw.retries = make(map[int]*retry)
	}
	r := sw.retries[i]
	if r == nil {
		r = &retry{delay: backoff.Backoff{Base: requeueBase, Cap: requeueCap}}
		sw.retries[i] = r
	}
	r.fails++
	if r.fails >= maxAttempts {
		reason := fmt.Sprintf("dispatch: run abandoned after %d failed worker connections", r.fails)
		sw.mu.Unlock()
		sw.finish(i, sw.errorRecord(i, reason), false)
		return
	}
	delay := r.delay.Next()
	sw.mu.Unlock()
	sw.afterFunc(delay, func() {
		sw.mu.Lock()
		defer sw.mu.Unlock()
		// The spec may have been canceled meanwhile.
		if !sw.done[i] {
			sw.queue = append(sw.queue, i)
			sw.cond.Broadcast()
		}
	})
}

// Cancel abandons every unfinished run: each gets an error record
// carrying reason, flushed to Out like any other completion so consumers
// of the incremental output see the sweep settle. Runs in flight burn to
// completion (the simulator has no preemption points) and their late
// Complete is ignored. Cancel after completion is a no-op.
func (sw *Sweep) Cancel(reason string) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.remaining == 0 {
		return
	}
	sw.queue = nil
	for i := range sw.specs {
		if !sw.done[i] {
			sw.records[i], sw.done[i] = sw.errorRecord(i, reason), true
		}
	}
	sw.remaining = 0
	sw.settleLocked()
}

// errorRecord synthesizes the record of a run the sweep gave up on.
func (sw *Sweep) errorRecord(i int, reason string) Record {
	rec := Record{Error: reason}
	stampIdentity(&rec, &sw.specs[i], sw.digests[i])
	return rec
}

// finish stores a stamped record and flushes the in-order prefix.
// executed marks records genuinely produced by a driver, as opposed to
// abandonment errors.
func (sw *Sweep) finish(i int, rec Record, executed bool) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.done[i] {
		return
	}
	sw.records[i] = rec
	sw.done[i] = true
	sw.remaining--
	if executed {
		sw.executed++
	}
	if sw.opt.Progress != nil {
		status := fmt.Sprintf("%d cycles", rec.SimCycles)
		if rec.Error != "" {
			status = "ERROR: " + rec.Error
		}
		total := len(sw.specs)
		fmt.Fprintf(sw.opt.Progress, "[%d/%d] run %d %s %s (%.3fs, %s)\n",
			total-sw.remaining, total, rec.Run, rec.Workload, axesString(rec.Axes), rec.WallSec, status)
	}
	sw.settleLocked()
}

// settleLocked flushes what the last state change made writable and, if
// it finished the sweep, releases everyone waiting on that. Called with
// mu held.
func (sw *Sweep) settleLocked() {
	sw.flushLocked()
	if sw.remaining == 0 {
		close(sw.finished)
		sw.cond.Broadcast()
	}
}

// flushLocked writes the completed in-order prefix to Out. Called with mu
// held.
func (sw *Sweep) flushLocked() {
	if sw.opt.Out == nil || sw.writeErr != nil {
		return
	}
	for sw.nextWrite < len(sw.records) && sw.done[sw.nextWrite] {
		if err := WriteJSONL(sw.opt.Out, sw.records[sw.nextWrite:sw.nextWrite+1]); err != nil {
			sw.writeErr = fmt.Errorf("scenario: write output: %w", err)
			return
		}
		sw.nextWrite++
	}
}

// Work is the local driver: it executes pending specs on slots goroutines
// (0 = one per host CPU; one if the sweep is Serial; never more than
// there are unfinished runs, so a fully adopted sweep starts none) and
// returns when the sweep has no more work for them.
func (sw *Sweep) Work(slots int) {
	if slots <= 0 {
		slots = runtime.NumCPU()
	}
	if sw.opt.Serial {
		slots = 1
	}
	done, total := sw.Progress()
	if slots > total-done {
		slots = total - done
	}
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i, spec, ok := sw.Next()
				if !ok {
					return
				}
				sw.Complete(i, Execute(spec))
			}
		}()
	}
	wg.Wait()
}

// Wait blocks until every run has a record and returns the records in
// run-index order. The error joins all per-run failures (each failed run
// also carries its message in Record.Error) plus any output-write
// failure; records of successful runs are valid even when err != nil.
func (sw *Sweep) Wait() ([]Record, error) {
	<-sw.finished
	sw.mu.Lock()
	defer sw.mu.Unlock()
	var errs []error
	if sw.writeErr != nil {
		errs = append(errs, sw.writeErr)
	}
	for i := range sw.records {
		if r := &sw.records[i]; r.Error != "" {
			errs = append(errs, fmt.Errorf("run %d (%s): %s", r.Run, r.Workload, r.Error))
		}
	}
	return sw.records, errors.Join(errs...)
}
