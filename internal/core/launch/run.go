package launch

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"

	"repro/internal/arch"
	"repro/internal/backoff"
	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mcp"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/workloads"
)

// ErrWorkerDied reports that a worker OS process exited while the run was
// still in flight. Run treats it as recoverable (re-fork and replay, up to
// MaxRestarts); a manual Coordinate surfaces it to the caller.
var ErrWorkerDied = errors.New("launch: worker process died mid-run")

// Spec describes one simulation distributed across Config.Processes OS
// processes.
type Spec struct {
	// Workload, Threads, Scale select the program (by registry name, so
	// every process builds the identical Program).
	Workload string
	Threads  int
	Scale    int
	// Config is the simulation configuration; Config.Processes is the OS
	// process count. Transport is forced to TCP.
	Config config.Config
	// Hosts lists every process's fabric listen address (host:port), by
	// process ID. Empty: free localhost ports are allocated (Run only;
	// Coordinate needs the addresses the workers were given).
	Hosts []string
	// DialTimeout bounds fabric connection setup (0: transport default).
	DialTimeout time.Duration
	// FabricID pins the run identity in the transport handshake (see
	// transport.TCPConfig.FabricID). Run generates one when forking; a
	// manual Coordinate over explicit hosts may leave it 0 (unchecked).
	FabricID uint64
	// PeekAddr/PeekLen select simulated memory to read back after the run
	// (the workload result-readback window); PeekLen 0 skips the read.
	PeekAddr arch.Addr
	PeekLen  int
	// WorkerVerbose forwards per-worker serve/teardown logs to stderr.
	WorkerVerbose bool
	// WorkerOutput receives forked workers' stdout+stderr (Run only;
	// default os.Stderr).
	WorkerOutput io.Writer

	// CheckpointDir and CheckpointEvery enable auto-checkpointing: the
	// MCP quiesces the fabric every CheckpointEvery barrier epochs and
	// every process serializes its simulation state under CheckpointDir
	// (shared filesystem, or per-machine paths on a manual multi-host
	// launch). Both must be set for checkpoints to happen.
	CheckpointDir   string
	CheckpointEvery int64
	// ConfigDigest stamps checkpoint manifests with the run's canonical
	// configuration hash (scenario.Digest); restore refuses a manifest
	// carrying a different digest.
	ConfigDigest string
	// MaxRestarts bounds how many times Run re-forks the workers and
	// replays the run after a worker process dies (0: die on first loss).
	MaxRestarts int
	// RestartBackoff is the delay before the first re-fork, doubled per
	// subsequent attempt and capped at 5s (0: 250ms).
	RestartBackoff time.Duration
	// Generation is the recovery attempt number carried in the fabric
	// handshake so zombie workers of a dead attempt cannot rejoin (Run
	// manages it; manual Coordinate launches may leave it 0 = unchecked).
	Generation uint64
	// Verify maps barrier epoch → expected per-process state digests; a
	// replay whose checkpoint digests diverge is reported through the
	// checkpoint error path (and aborts the run when StrictVerify is
	// set). Run fills it from the dead attempt's manifests on recovery.
	Verify       map[int64][]string
	StrictVerify bool
	// ChaosExitMS, when nonzero, instructs the first forked worker to
	// SIGKILL itself after this many wall-clock milliseconds —
	// fault-injection for recovery tests and the CI chaos smoke. Run
	// clears it after the first death so the replay can complete.
	ChaosExitMS int
	// WorkerDied, when non-nil, makes Coordinate abort with
	// ErrWorkerDied if the channel closes mid-run. Run wires it to its
	// worker Group; manual coordinators may supply their own signal.
	WorkerDied <-chan struct{}
}

// Result is the outcome of a multi-process run.
type Result struct {
	// Stats mirrors the single-OS-process Cluster.Run outcome.
	Stats *core.RunStats
	// Peeked holds the PeekLen bytes at PeekAddr, read after caches were
	// flushed.
	Peeked []byte
	// Procs reports each process's teardown acknowledgement and
	// wall-clock serving time, indexed by process ID.
	Procs []mcp.ProcShutdown
}

// workerExitGrace bounds how long workers may outlive their acknowledged
// teardown before Run declares them stuck and kills them.
const workerExitGrace = 15 * time.Second

// Coordinate runs the proc-0 role of a multi-process simulation: host the
// MCP and the striped proc-0 tiles, start the application, collect
// results, and tear the fabric down with acknowledgement. The worker
// processes must be launched separately (by Run on this machine, or by
// hand/ssh on remote ones) with the same hosts list and config.
// Processes == 1 is the degenerate single-process case: no workers, all
// tiles local.
func Coordinate(spec *Spec) (*Result, error) {
	w, ok := workloads.Get(spec.Workload)
	if !ok {
		return nil, fmt.Errorf("launch: unknown workload %q", spec.Workload)
	}
	cfg := spec.Config
	cfg.Transport = config.TransportTCP
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// Processes == 1 is a degenerate but valid fabric: no peers, no
	// workers, everything local (the single-process sanity check of the
	// graphite-mp CLI).
	if len(spec.Hosts) != cfg.Processes {
		return nil, fmt.Errorf("launch: %d hosts for %d processes", len(spec.Hosts), cfg.Processes)
	}
	if cfg.Workers > 0 {
		prev := runtime.GOMAXPROCS(cfg.Workers)
		defer runtime.GOMAXPROCS(prev)
	}

	tr, err := transport.DialTCP(transport.TCPConfig{
		Proc:        0,
		Procs:       cfg.Processes,
		Addrs:       spec.Hosts,
		Route:       transport.StripedRoute(cfg.Processes),
		DialTimeout: spec.DialTimeout,
		FabricID:    spec.FabricID,
		Generation:  spec.Generation,
	})
	if err != nil {
		return nil, err
	}
	defer tr.Close()

	prog := w.Build(workloads.Params{Threads: spec.Threads, Scale: spec.Scale})
	proc, err := core.NewProc(0, &cfg, prog, tr)
	if err != nil {
		return nil, err
	}
	defer proc.Close()
	if spec.CheckpointDir != "" && spec.CheckpointEvery > 0 {
		proc.MCP.SetCheckpoint(&mcp.CheckpointPolicy{
			Dir:          spec.CheckpointDir,
			Every:        spec.CheckpointEvery,
			FabricID:     spec.FabricID,
			Generation:   spec.Generation,
			ConfigDigest: spec.ConfigDigest,
			Verify:       spec.Verify,
			StrictVerify: spec.StrictVerify,
			OnError: func(err error) {
				fmt.Fprintf(os.Stderr, "launch: checkpoint: %v\n", err)
			},
		})
		proc.SetCheckpoint(spec.CheckpointDir, spec.ConfigDigest)
	}
	proc.Start()

	start := time.Now()
	if err := proc.MCP.StartMain(0); err != nil {
		return nil, err
	}
	select {
	case <-proc.MCP.Done():
	case err := <-proc.MCP.CkptFailed():
		// StrictVerify divergence: the epoch release was withheld, the
		// fabric is parked; the deferred teardown dismantles it.
		return nil, fmt.Errorf("launch: %w", err)
	case <-spec.WorkerDied:
		// A worker process is gone; every cross-process transaction it
		// owed an answer to would hang forever. Abort — the deferred
		// proc/transport teardown unwinds the local threads — and let
		// Run decide whether to re-fork and replay.
		return nil, ErrWorkerDied
	case <-proc.MCP.Stopped():
		// The MCP's receive loop ended before the run did: the transport
		// failed the fabric underneath us (a peer write error closes it;
		// see transport.closedOr). Same recovery decision as a reaped
		// worker — this is how a manual Coordinate without a worker
		// Group observes a lost peer.
		return nil, fmt.Errorf("%w (fabric transport failed)", ErrWorkerDied)
	}
	wall := time.Since(start)
	proc.Wait()
	proc.MCP.FlushCaches()
	tiles := proc.MCP.GatherStats()
	totals := stats.Aggregate(tiles)

	res := &Result{
		Stats: &core.RunStats{
			SimulatedCycles: totals.MaxCycles,
			Wall:            wall,
			Tiles:           tiles,
			Totals:          totals,
		},
	}
	// Read result memory while the remote home tiles are still serving —
	// teardown comes after.
	if spec.PeekLen > 0 {
		res.Peeked = make([]byte, spec.PeekLen)
		proc.Tiles()[0].Mem.Peek(spec.PeekAddr, res.Peeked)
	}
	res.Procs = proc.MCP.ShutdownWorkers()
	for _, ps := range res.Procs {
		if !ps.Acked {
			return res, fmt.Errorf("launch: process %d never acknowledged teardown", ps.Proc)
		}
	}
	return res, nil
}

// Run executes a multi-process simulation entirely on this machine: it
// forks Config.Processes-1 worker copies of the current binary (which
// must call MaybeWorkerProcess; see WorkerEnv), coordinates the run, and
// guarantees the workers are gone when it returns — kill-and-reap on
// every failure path, bounded-grace reap after a clean teardown.
func Run(spec *Spec) (*Result, error) {
	s := *spec
	procs := s.Config.Processes
	if procs < 1 {
		return nil, fmt.Errorf("launch: %d processes", procs)
	}
	if s.FabricID == 0 {
		// Auto-allocated localhost ports can be recycled between
		// concurrent runs; a fresh fabric ID makes any cross-connect
		// fail the handshake instead of interleaving two simulations.
		var buf [8]byte
		if _, err := rand.Read(buf[:]); err != nil {
			return nil, fmt.Errorf("launch: fabric id: %w", err)
		}
		s.FabricID = binary.LittleEndian.Uint64(buf[:])
	}
	if len(s.Hosts) == 0 {
		hosts, err := LocalHosts(procs)
		if err != nil {
			return nil, err
		}
		s.Hosts = hosts
	}
	if len(s.Hosts) != procs {
		return nil, fmt.Errorf("launch: %d hosts for %d processes", len(s.Hosts), procs)
	}
	if err := checkLoopback(s.Hosts); err != nil {
		return nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("launch: %w", err)
	}
	workerOut := s.WorkerOutput
	if workerOut == nil {
		workerOut = os.Stderr
	}

	refork := backoff.Backoff{Base: s.RestartBackoff, Cap: 5 * time.Second}
	if refork.Base <= 0 {
		refork.Base = 250 * time.Millisecond
	}
	for attempt := 0; ; attempt++ {
		// Generation 1 is the first launch; each recovery re-fork bumps
		// it, so a zombie worker of a dead attempt fails the handshake
		// instead of injecting stale traffic into the replacement fabric.
		s.Generation = uint64(attempt + 1)
		res, err := runAttempt(&s, exe, workerOut)
		if err == nil {
			return res, nil
		}
		if !errors.Is(err, ErrWorkerDied) || attempt >= s.MaxRestarts {
			return res, err
		}
		// Recover by deterministic replay: re-fork everything and re-run
		// from the start, verifying the replay's checkpoint digests
		// against the manifests the dead attempt left behind. The final
		// workload checksum — the run's identity criterion — is produced
		// by the surviving attempt exactly as an uninterrupted run would
		// have produced it. Digest-chain verification is armed only for
		// single-application-thread runs: that is the repo's determinism
		// boundary for timing-dependent state (multi-thread runs
		// guarantee the checksum, not cycle-exact state), so comparing
		// multi-thread digests would only report noise.
		if s.CheckpointDir != "" && s.Threads <= 1 {
			if ms, lerr := checkpoint.LoadManifests(s.CheckpointDir); lerr == nil && len(ms) > 0 {
				v := make(map[int64][]string, len(ms))
				for _, m := range ms {
					v[m.Epoch] = m.VerifyDigests()
				}
				s.Verify = v
			}
		}
		// The fault injector did its job once; the replay must survive.
		s.ChaosExitMS = 0
		delay := refork.Next()
		fmt.Fprintf(os.Stderr, "launch: worker died (attempt %d/%d); re-forking in %v\n",
			attempt+1, s.MaxRestarts+1, delay)
		time.Sleep(delay) //graphite:wallclock recovery backoff paces host-level re-forks; no simulated clock exists between attempts
	}
}

// runAttempt forks the workers for one generation, coordinates the run,
// and guarantees the children of this attempt are dead and reaped when it
// returns, whatever the outcome.
func runAttempt(s *Spec, exe string, workerOut io.Writer) (*Result, error) {
	cfg := s.Config
	cfg.Transport = config.TransportTCP
	g := &Group{}
	for p := 1; p < cfg.Processes; p++ {
		ws := &WorkerSpec{
			Proc:          p,
			Hosts:         s.Hosts,
			Workload:      s.Workload,
			Threads:       s.Threads,
			Scale:         s.Scale,
			DialTimeoutMS: int(s.DialTimeout / time.Millisecond),
			FabricID:      s.FabricID,
			Generation:    s.Generation,
			CheckpointDir: s.CheckpointDir,
			ConfigDigest:  s.ConfigDigest,
			Verbose:       s.WorkerVerbose,
			Config:        cfg,
		}
		if p == 1 {
			ws.ChaosExitMS = s.ChaosExitMS
		}
		payload, err := json.Marshal(ws)
		if err != nil {
			g.Kill()
			g.Wait()
			return nil, fmt.Errorf("launch: encode worker spec: %w", err)
		}
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), WorkerEnv+"="+string(payload))
		cmd.Stdout = workerOut
		cmd.Stderr = workerOut
		if err := g.Start(cmd); err != nil {
			g.Kill()
			g.Wait()
			return nil, err
		}
	}

	sc := *s
	if cfg.Processes > 1 {
		sc.WorkerDied = g.Died()
	}
	res, err := Coordinate(&sc)
	if err != nil {
		g.Kill()
		g.Wait()
		return res, err
	}
	// Every process acknowledged teardown; the workers are past their
	// last send and exiting. Reap them, with a kill as the backstop.
	if err := g.WaitTimeout(workerExitGrace); err != nil {
		return res, fmt.Errorf("launch: %w", err)
	}
	return res, nil
}
