package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// A run of one workload is a few sessions. Each session is a fresh copy
// of this binary (clean Go pools, its own ru_maxrss and CPU accounting)
// that sets the workload up, runs timed reps in a closed loop for its
// share of the run's seconds, and reports one JSON event per line on
// stdout. The parent turns silence into a failure: a rep that outlives
// its deadline gets the session's whole process group killed and counts as
// failed, and the run's remaining sessions carry on.

// sessionEnv carries the session's parameters to the child.
const sessionEnv = "GRAPHITE_BENCH_SESSION"

type sessionSpec struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"` // timed window of this session
	Trace    bool    `json:"trace"`
	Smoke    bool    `json:"smoke"`
	// Started is the parent's clock (Unix ns) just before it started the
	// child, so setup_s includes exec and runtime init.
	Started int64  `json:"started"`
	WorkDir string `json:"work_dir"` // scratch space inside the checkout
	OutDir  string `json:"out_dir"`  // where the trace file goes
}

// event is one line of a session's stdout.
type event struct {
	Ev string `json:"ev"` // "setup", "rep", "warm", "progress", "layers"
	// Next names what the session does next, which picks the watchdog
	// deadline for the next line: "rep" or anything slower.
	Next string `json:"next,omitempty"`

	// setup
	SetupS float64 `json:"setup_s,omitempty"`

	// rep
	Kind          string  `json:"kind,omitempty"` // "n": Workers=nproc, "w1": Workers=1
	WallS         float64 `json:"wall_s,omitempty"`
	CPUS          float64 `json:"cpu_s,omitempty"`
	Instr         uint64  `json:"instr,omitempty"`
	Runs          int     `json:"runs,omitempty"`
	FirstRecordMS float64 `json:"first_record_ms,omitempty"` // request to first record
	Err           string  `json:"err,omitempty"`

	// rep, when it included a warm pass, and warm: samples of the warm
	// record-cache replay rate, runs/s
	WarmRates []float64 `json:"warm_rates,omitempty"`

	// layers
	Metrics map[string]float64 `json:"metrics,omitempty"`
	Notes   []string           `json:"notes,omitempty"`
}

// repResult is what one rep of a workload reports.
type repResult struct {
	wall         time.Duration
	runWall      time.Duration // the part inside the simulator's run, measured or reported
	cpu          time.Duration
	instr        uint64
	runs         int
	firstRecord  time.Duration // request to first record
	warmRunsPerS float64
	counts       counts
	err          error
}

// counts are the simulated-side totals of a rep, for the traced run's
// per-kinstr metrics and share estimates.
type counts struct {
	loads, stores, l2Misses, invalidations, packets uint64
}

// workload is one benchmark workload inside a session process.
type workload interface {
	// setup prepares inputs and reference results and runs the untimed
	// warm-up reps that fill the process's pools.
	setup(env *sessionSpec) error
	// rep runs one complete timed rep at Workers=nproc ("n") or
	// Workers=1 ("w1").
	rep(kind string, tr *tracer) repResult
	// warm replays the workload's spec through a warm record cache and
	// returns a few samples of the replay rate, for a workload whose reps
	// do not already include the warm pass.
	warm() ([]float64, error)
	close()
}

func newWorkload(name string, smoke bool) (workload, error) {
	switch name {
	case "hit-local", "share-chan", "dist-tcp", "tile-1024":
		return &simWorkload{name: name, smoke: smoke}, nil
	case "sweep-svc":
		return &sweepWorkload{smoke: smoke}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// repPattern is the closed loop's order of reps: Workers=nproc and
// Workers=1 in turn; worker_speedup pairs each Workers=1 rep with the
// Workers=nproc rep before it.
var repPattern = []string{"n", "w1"}

// sessionMain is the child side: it never returns.
func sessionMain(payload string) {
	var spec sessionSpec
	if err := json.Unmarshal([]byte(payload), &spec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark session: bad spec:", err)
		os.Exit(2)
	}
	out := json.NewEncoder(os.Stdout)
	emit := func(e event) {
		if err := out.Encode(e); err != nil {
			os.Exit(3) // parent gone
		}
	}
	if err := runSession(&spec, emit); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark session:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func runSession(spec *sessionSpec, emit func(event)) error {
	started := time.Unix(0, spec.Started)
	w, err := newWorkload(spec.Workload, spec.Smoke)
	if err != nil {
		return err
	}
	defer w.close()
	if err := w.setup(spec); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	emit(event{Ev: "setup", Next: "rep", SetupS: time.Since(started).Seconds()})

	window := time.Duration(spec.Seconds * float64(time.Second))
	if spec.Trace {
		return tracedSession(spec, w, window, emit)
	}
	// Untimed collections: every rep starts from a collected heap, as a run
	// in a process of its own would, and not under its predecessors'
	// garbage (the first rep's predecessor is the warm-up). One collection
	// between reps and no more: a second would empty the cache-line pools
	// the rep before filled.
	runtime.GC()
	begin := time.Now()
	for i := 0; time.Since(begin) < window || i < 2; i++ {
		kind := repPattern[i%len(repPattern)]
		emit(repEvent(kind, w.rep(kind, nil)))
		runtime.GC()
		// After every rep, so that the replay's samples cover the run as
		// evenly as the reps do and a slow spell of the host weighs on no
		// more of them than it lasts; and after the collection, so that it
		// allocates from a swept heap.
		rates, err := w.warm()
		if err != nil {
			emit(event{Ev: "warm", Next: "rep", Err: err.Error()})
		} else if len(rates) > 0 {
			emit(event{Ev: "warm", Next: "rep", WarmRates: rates})
		}
	}
	return nil
}

func repEvent(kind string, r repResult) event {
	e := event{Ev: "rep", Next: "rep", Kind: kind,
		WallS: r.wall.Seconds(), CPUS: r.cpu.Seconds(), Instr: r.instr, Runs: r.runs,
		FirstRecordMS: float64(r.firstRecord) / float64(time.Millisecond)}
	if r.warmRunsPerS > 0 {
		e.WarmRates = []float64{r.warmRunsPerS}
	}
	if r.err != nil {
		e.Err = r.err.Error()
	}
	return e
}

// cpuTime is the user+system CPU this process and its reaped children
// have used.
func cpuTime() time.Duration {
	var total time.Duration
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if err := syscall.Getrusage(who, &ru); err == nil {
			total += time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		}
	}
	return total
}

// hostSteal reads /proc/stat's first line: the clock ticks all CPUs have
// spent stolen by the hypervisor, and their ticks in total. Both are 0
// where the file or the column is missing.
func hostSteal() (steal, total uint64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// nproc is the host parallelism every load generator is held to:
// GOMAXPROCS, forked processes and client connections.
func nproc() int { return runtime.NumCPU() }

// sessionOutcome is what the parent learns from one session.
type sessionOutcome struct {
	events   []event
	maxRSSMB float64
	// killed reports that the watchdog killed the session; err is any
	// other abnormal end.
	killed bool
	err    error
}

// repDeadline is how long the parent waits for the line after an event
// that announced a rep: ten times the workload's expected rep, at most
// 60 s. Everything else (set-up, layer fixtures) gets the 60 s.
func repDeadline(workload string) time.Duration {
	info, _ := findWorkload(workload)
	if d := 10 * info.ExpectRep; d > 0 && d < time.Minute {
		return d
	}
	return time.Minute
}

// runOneSession starts a session child and collects its events under the
// watchdog.
func runOneSession(spec sessionSpec) sessionOutcome {
	exe, err := os.Executable()
	if err != nil {
		return sessionOutcome{err: err}
	}
	if err := os.MkdirAll(spec.WorkDir, 0o755); err != nil {
		return sessionOutcome{err: err}
	}
	cmd := exec.Command(exe)
	// Its own process group, so a kill reaches forked simulation workers.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return sessionOutcome{err: err}
	}
	spec.Started = time.Now().UnixNano()
	payload, err := json.Marshal(spec)
	if err != nil {
		return sessionOutcome{err: err}
	}
	cmd.Env = append(os.Environ(), sessionEnv+"="+string(payload), "TMPDIR="+spec.WorkDir)
	if err := cmd.Start(); err != nil {
		return sessionOutcome{err: err}
	}

	lines := make(chan event)
	readErr := make(chan error, 1)
	go func() {
		defer close(lines)
		rd := bufio.NewReaderSize(stdout, 1<<20)
		for {
			line, err := rd.ReadBytes('\n')
			if len(line) > 0 {
				var e event
				if jerr := json.Unmarshal(line, &e); jerr == nil {
					lines <- e
				} else if len(readErr) == 0 {
					// Keep reading: a session blocked on a full pipe would
					// never exit.
					readErr <- fmt.Errorf("bad event line %q: %w", line, jerr)
				}
			}
			if err != nil {
				if !errors.Is(err, io.EOF) && len(readErr) == 0 {
					readErr <- err
				}
				return
			}
		}
	}()

	var out sessionOutcome
	deadline := time.Minute
	timer := time.NewTimer(deadline)
	defer timer.Stop()
loop:
	for {
		select {
		case e, ok := <-lines:
			if !ok {
				break loop
			}
			out.events = append(out.events, e)
			deadline = time.Minute
			if e.Next == "rep" {
				deadline = repDeadline(spec.Workload)
			}
			timer.Reset(deadline)
		case <-timer.C:
			out.killed = true
			fmt.Fprintf(os.Stderr, "benchmark: %s: no progress for %v, killing session (pgid %d)\n", spec.Workload, deadline, cmd.Process.Pid)
			_ = syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) // the group may already be gone
			for range lines {
			}
			break loop
		}
	}
	werr := cmd.Wait()
	select {
	case err := <-readErr:
		out.err = err
	default:
		if werr != nil && !out.killed {
			out.err = fmt.Errorf("session exited: %w", werr)
		}
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		out.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KB
	}
	_ = os.RemoveAll(spec.WorkDir) // scratch only; a leftover is harmless and ignored by git
	return out
}

// workDirFor returns a fresh scratch directory name under the checkout's
// build directory.
func workDirFor(root, workload string, n int) string {
	return filepath.Join(root, ".bench_build", "tmp", fmt.Sprintf("%s-%d-%d", workload, os.Getpid(), n))
}
