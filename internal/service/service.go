// Package service implements graphited, the long-lived
// simulation-as-a-service daemon: an HTTP front end over the sweep engine
// of internal/scenario. Clients POST a scenario (the same JSON schema
// graphite-sweep -scenario reads) to /v1/jobs and get back a job ID; the
// daemon expands the scenario, runs it as a sweep on its worker fleet and
// shared record cache, and streams the JSONL back from
// /v1/jobs/{id}/records — incrementally, in run-index order, resumable
// via ?from=.
//
// The daemon is deliberately a thin shell over existing, separately
// tested layers. A job IS a scenario.Sweep behind a dispatch.Coordinator:
// queueing, requeue on worker death, run-index-ordered output,
// verification and record-cache adoption are the sweep engine's, the same
// one graphite-sweep runs on, which is what makes a daemon-served sweep
// byte-identical to graphite-sweep output up to the wall-clock fields
// (DESIGN.md, "Sweep engine").
//
// Job lifecycle: queued → running → done | failed. A job fails when any
// run ends with an error — including cancellation, which stamps every
// unfinished run with an error record via Sweep.Cancel. Results
// live in memory for the daemon's lifetime; durability across restarts
// is the record cache's job (resubmitting a scenario to a restarted
// daemon with the same -cache directory replays it without simulating).
package service

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/recordcache"
	"repro/internal/scenario"
	"repro/internal/scenario/dispatch"
)

// defaultWorkers sizes the in-process fleet when Options.Workers is 0.
func defaultWorkers() int { return runtime.NumCPU() }

// Job lifecycle states, as reported by the v1 API.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Options configures a Server.
type Options struct {
	// Workers is the in-process fleet: how many worker slots attach to
	// each running job's coordinator (0 = one per host CPU). Negative
	// means no in-process workers — jobs are served only by external
	// `graphite-sweep -worker` processes attached to the job's advertised
	// dispatch_addr.
	Workers int
	// MaxActive bounds concurrently running jobs (0 = 1). Jobs beyond it
	// wait in submission order. The default of one running job at a time
	// keeps wall-clock honesty for serial scenarios and stops two sweeps
	// from fighting over the host.
	MaxActive int
	// Cache, when non-nil, is the record cache shared by every job: each
	// job's sweep consults it before queueing runs and feeds verified
	// records back. The Server does not own it — the caller closes it
	// after Close.
	Cache *recordcache.Cache
	// Progress, when non-nil, receives the sweeps' per-run progress
	// lines (the daemon's stderr, typically).
	Progress io.Writer
	// Log, when non-nil, receives one structured access-log line per
	// request — non-2xx always, 2xx only when Verbose is set.
	Log     io.Writer
	Verbose bool
	// now overrides time.Now in tests.
	now func() time.Time
}

// Server owns the job table, the scheduler, and the metrics. It serves
// HTTP via Handler; the caller owns the net listener and process
// lifecycle (cmd/graphited).
type Server struct {
	opt     Options
	workers int // resolved in-process slots (0 = external only)
	metrics *metrics

	mu       sync.Mutex
	cond     *sync.Cond // signaled on any job state change
	jobs     map[string]*Job
	order    []*Job // submission order, for listing and scheduling
	nextID   int
	active   int
	draining bool
}

// Job is one submitted sweep. Fields past the construction block are
// guarded by the Server's mutex; the record log has its own lock.
type Job struct {
	id     string
	name   string // scenario name, for listings
	sc     *scenario.Scenario
	specs  []scenario.RunSpec
	log    *recordLog
	coord  *dispatch.Coordinator // nil until running (and after a failed start)
	state  string
	errMsg string
	// canceled marks a DELETE observed before the coordinator existed, so
	// a cancel racing the scheduler still lands.
	canceled  bool
	created   time.Time
	started   time.Time
	finished  time.Time
	runsTotal int
}

// New builds a Server. Call Close (or DrainAndStop) before discarding it.
func New(opt Options) *Server {
	if opt.now == nil {
		opt.now = time.Now
	}
	s := &Server{
		opt:     opt,
		workers: resolveWorkers(opt.Workers),
		metrics: newMetrics(),
		jobs:    make(map[string]*Job),
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func resolveWorkers(n int) int {
	if n < 0 {
		return 0
	}
	if n == 0 {
		return defaultWorkers()
	}
	return n
}

func (s *Server) maxActive() int {
	if s.opt.MaxActive <= 0 {
		return 1
	}
	return s.opt.MaxActive
}

// Workers reports the resolved in-process fleet size (0 when the daemon
// relies on external workers).
func (s *Server) Workers() int { return s.workers }

// Submit validates and enqueues one scenario, returning the new job. The
// scenario is expanded eagerly so a bad sweep definition fails the POST
// with a diagnostic instead of failing a queued job minutes later.
func (s *Server) Submit(sc *scenario.Scenario) (*Job, error) {
	specs, err := sc.Expand()
	if err != nil {
		return nil, err
	}
	// Multi-process runs fork worker OS processes that can be killed out
	// from under the daemon (OOM, operator, machine trouble). Unless the
	// scenario chose its own policy, arm the default one: checkpoint
	// periodically and recover a lost worker by replay, so the loss costs
	// wall-clock time instead of error-stamping the job's records.
	for i := range specs {
		if specs[i].Processes > 1 && specs[i].Checkpoint == nil {
			specs[i].Checkpoint = defaultCheckpoint
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, errDraining
	}
	s.nextID++
	j := &Job{
		id:        fmt.Sprintf("j%d", s.nextID),
		name:      sc.Name,
		sc:        sc,
		specs:     specs,
		state:     StateQueued,
		created:   s.opt.now(),
		runsTotal: len(specs),
	}
	j.log = newRecordLog(func() { s.metrics.runsCompleted.Add(1) })
	s.jobs[j.id] = j
	s.order = append(s.order, j)
	s.metrics.jobsSubmitted.Add(1)
	s.scheduleLocked()
	return j, nil
}

var errDraining = fmt.Errorf("service: draining, not accepting jobs")

// defaultCheckpoint is the worker-loss policy applied to multi-process
// runs whose scenario set none: checkpoint every 8 barrier epochs into a
// per-run temporary directory and re-fork up to twice. Configurations
// without LaxBarrier epochs simply never checkpoint, but the re-fork
// recovery still applies.
var defaultCheckpoint = &scenario.CheckpointPolicy{Every: 8, MaxRestarts: 2}

// scheduleLocked starts queued jobs while slots are free. Called with mu
// held on every event that can open a slot or add work.
func (s *Server) scheduleLocked() {
	for s.active < s.maxActive() {
		var next *Job
		for _, j := range s.order {
			if j.state == StateQueued {
				next = j
				break
			}
		}
		if next == nil {
			return
		}
		next.state = StateRunning
		next.started = s.opt.now()
		s.active++
		go s.runJob(next)
	}
}

// runJob drives one job start-to-finish: build the coordinator (and with
// it the job's sweep), attach the in-process fleet, wait, settle. It owns
// the job's running→terminal transition.
func (s *Server) runJob(j *Job) {
	opt := dispatch.Options{
		Addr: "127.0.0.1:0",
		SweepOptions: scenario.SweepOptions{
			Serial:   scenario.NeedsSerial(j.sc, j.specs),
			Verify:   j.sc.Verify,
			Out:      j.log,
			Progress: s.opt.Progress,
		},
	}
	if s.opt.Cache != nil {
		opt.Cache = s.opt.Cache
	}
	coord, err := dispatch.NewCoordinator(j.specs, opt)
	if err != nil {
		s.settle(j, nil, err)
		return
	}
	s.mu.Lock()
	j.coord = coord
	canceled := j.canceled
	s.mu.Unlock()
	if canceled {
		coord.Cancel(cancelReason)
	}
	// The in-process fleet attaches over loopback like any external
	// worker, not with Sweep.Work, and that is deliberate: between runs a
	// wire slot waits on its socket, which leaves a P with nothing to run,
	// and the Go scheduler polls the network only from such a P (or from
	// sysmon, every 10 ms). Local slots never wait, so with one per CPU
	// everything in the process that waits on a socket — record streams,
	// status requests, external workers' frames — would be noticed up to
	// 10 ms late while a job runs (measured: first record 15 → 22 ms on
	// the sweep-svc benchmark). A job the cache served completely attaches
	// nothing: Wait below closes the listener at once and the fleet's dial
	// would only find it gone.
	if done, total := coord.Progress(); done < total && s.workers > 0 {
		go func() {
			err := dispatch.Work(coord.Addr(), dispatch.WorkerOptions{Parallel: s.workers})
			if err != nil && s.opt.Progress != nil {
				// Expected on Cancel (connections are closed under the
				// workers); worth a line, never fatal — the sweep's
				// requeue discipline owns correctness.
				fmt.Fprintf(s.opt.Progress, "job %s: worker fleet: %v\n", j.id, err)
			}
		}()
	}
	_, err = coord.Wait()
	s.settle(j, coord, err)
}

// cancelReason is the error stamped into every run a cancellation
// abandons — the service analogue of the sweep's abandonment records.
const cancelReason = "dispatch: job canceled"

// settle moves a job to its terminal state and frees its scheduler slot.
func (s *Server) settle(j *Job, coord *dispatch.Coordinator, err error) {
	j.log.close()
	s.mu.Lock()
	j.coord = coord
	j.finished = s.opt.now()
	if err != nil {
		j.state = StateFailed
		j.errMsg = err.Error()
	} else {
		j.state = StateDone
	}
	s.active--
	s.scheduleLocked()
	s.cond.Broadcast()
	s.mu.Unlock()
}

// Cancel cancels a job. Queued jobs fail immediately; running jobs have
// their coordinator canceled (unfinished runs get error records, worker
// connections close, the job settles as failed once Wait returns).
// Canceling a terminal job is an error.
func (s *Server) Cancel(id string) (*Job, error) {
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		return nil, errNoJob
	}
	switch j.state {
	case StateQueued:
		j.canceled = true
		j.state = StateFailed
		j.errMsg = cancelReason
		j.finished = s.opt.now()
		j.log.close()
		s.cond.Broadcast()
		s.mu.Unlock()
		return j, nil
	case StateRunning:
		j.canceled = true
		coord := j.coord
		s.mu.Unlock()
		if coord != nil {
			// Outside the lock: Cancel closes worker connections.
			coord.Cancel(cancelReason)
		}
		// The runJob goroutine settles the job when Wait returns.
		return j, nil
	default:
		s.mu.Unlock()
		return nil, fmt.Errorf("service: job %s already %s", id, j.state)
	}
}

var errNoJob = fmt.Errorf("service: no such job")

// Job returns a job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// JobsInOrder returns every job in submission order.
func (s *Server) JobsInOrder() []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Job, len(s.order))
	copy(out, s.order)
	return out
}

// BeginDrain stops the daemon accepting new jobs: POST /v1/jobs returns
// 503 and /healthz flips to 503 so load balancers rotate it out. Already
// accepted jobs keep running.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// DrainAndStop is the shutdown path: stop accepting jobs, give already
// accepted ones up to timeout to finish, then cancel whatever is left
// and wait for every job to settle. It returns the number of jobs that
// had to be canceled.
func (s *Server) DrainAndStop(timeout time.Duration) int {
	s.BeginDrain()
	deadline := time.Now().Add(timeout)
	timer := time.AfterFunc(timeout, func() { s.cond.Broadcast() })
	defer timer.Stop()

	s.mu.Lock()
	for s.pendingLocked() > 0 && time.Now().Before(deadline) {
		s.cond.Wait()
	}
	var cancel []string
	for _, j := range s.order {
		if j.state == StateQueued || j.state == StateRunning {
			cancel = append(cancel, j.id)
		}
	}
	s.mu.Unlock()

	for _, id := range cancel {
		s.Cancel(id) // racing a natural completion is fine: "already done" errors are the good case
	}
	s.mu.Lock()
	for s.pendingLocked() > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
	return len(cancel)
}

// Close cancels everything immediately and waits for jobs to settle —
// the test-friendly shutdown.
func (s *Server) Close() { s.DrainAndStop(0) }

func (s *Server) pendingLocked() int {
	n := 0
	for _, j := range s.order {
		if j.state == StateQueued || j.state == StateRunning {
			n++
		}
	}
	return n
}

// gaugesLocked snapshots the jobs-by-state counts for /metrics.
func (s *Server) gaugesLocked() jobGauges {
	var g jobGauges
	for _, j := range s.order {
		switch j.state {
		case StateQueued:
			g.queued++
		case StateRunning:
			g.running++
		case StateDone:
			g.done++
		case StateFailed:
			g.failed++
		}
	}
	return g
}
