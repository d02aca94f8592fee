package launch

import (
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"time"

	"repro/internal/arch"
	"repro/internal/backoff"
	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/mcp"
	"repro/internal/transport"
	"repro/internal/workloads"
)

// Spec describes one simulation and where its Config.Processes processes
// run: all inside this OS process (InProcess), or one OS process each,
// forked here (Run) or started by hand (Coordinate, RunWorker).
type Spec struct {
	// Workload, Threads, Scale select the program (by registry name, so
	// every process builds the identical Program).
	Workload string
	Threads  int
	Scale    int
	// Config is the simulation configuration. Run and Coordinate take
	// Config.Processes as the OS process count and force Transport to TCP.
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

	// Checkpoint, when it names a Dir and a positive Every, enables
	// auto-checkpointing: the MCP quiesces the fabric every Every barrier
	// epochs and every process serializes its simulation state under Dir
	// (shared filesystem, or per-machine paths on a manual multi-host
	// launch). Its FabricID and Generation are the Spec's. Run fills
	// Verify from the dead attempt's manifests on recovery; a replay
	// whose digests diverge is reported through OnError (default: a line
	// on stderr), and aborts the run when StrictVerify is set.
	Checkpoint *mcp.CheckpointPolicy
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
	// ChaosExitMS, when nonzero, instructs the first forked worker to
	// SIGKILL itself after this many wall-clock milliseconds —
	// fault-injection for recovery tests and the CI chaos smoke. Run
	// clears it after the first death so the replay can complete.
	ChaosExitMS int
	// WorkerDied, when non-nil, makes Coordinate abort with
	// core.ErrWorkerDied if the channel closes mid-run. Run wires it to
	// its worker Group; manual coordinators may supply their own signal.
	WorkerDied <-chan struct{}
}

// Result is the outcome of a run.
type Result struct {
	// Stats is the Cluster.Run outcome.
	Stats *core.RunStats
	// Peeked holds the PeekLen bytes at PeekAddr, read after caches were
	// flushed.
	Peeked []byte
	// Procs reports each OS process's teardown acknowledgement and
	// wall-clock serving time, indexed by process ID (nil when no process
	// of the run lives outside this one).
	Procs []mcp.ProcShutdown
}

// workerExitGrace bounds how long workers may outlive their acknowledged
// teardown before Run declares them stuck and kills them.
const workerExitGrace = 15 * time.Second

// program builds the registry workload every process of the run executes.
func program(workload string, threads, scale int) (core.Program, error) {
	w, ok := workloads.Get(workload)
	if !ok {
		return core.Program{}, fmt.Errorf("launch: unknown workload %q", workload)
	}
	return w.Build(workloads.Params{Threads: threads, Scale: scale}), nil
}

// join dials one process's attachment to the TCP fabric — tc names the
// process, the addresses and the handshake identity — and builds the
// one-process cluster on it, which runs its share of the cores of its
// host (core.HostShare) with the other processes the list puts there.
func join(cfg config.Config, prog core.Program, tc transport.TCPConfig) (*core.Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tc.Addrs) != cfg.Processes {
		return nil, fmt.Errorf("launch: %d hosts for %d processes", len(tc.Addrs), cfg.Processes)
	}
	tc.Procs, tc.Route = cfg.Processes, transport.StripedRoute(cfg.Processes)
	tr, err := transport.DialTCP(tc)
	if err != nil {
		return nil, err
	}
	sharers, rank := hostSharers(tc.Addrs, int(tc.Proc))
	return core.JoinCluster(cfg, prog, tc.Proc, tr, sharers, rank)
}

// hostSharers returns how many of the listen addresses in hosts name the
// host of hosts[proc], comparing the host parts as written, and proc's
// rank among them. Two names of one machine count as two hosts.
func hostSharers(hosts []string, proc int) (sharers, rank int) {
	host, _, _ := net.SplitHostPort(hosts[proc])
	for i, h := range hosts {
		if other, _, err := net.SplitHostPort(h); err == nil && other == host {
			sharers++
			if i < proc {
				rank++
			}
		}
	}
	return sharers, rank
}

// InProcess runs the simulation with every one of its processes inside
// this OS process, on the channel fabric.
func InProcess(spec *Spec) (*Result, error) {
	prog, err := program(spec.Workload, spec.Threads, spec.Scale)
	if err != nil {
		return nil, err
	}
	cl, err := core.NewCluster(spec.Config, prog)
	if err != nil {
		return nil, err
	}
	return drive(cl, spec)
}

// Coordinate runs the proc-0 role of a multi-process simulation: host the
// MCP and the striped proc-0 tiles, run the application, collect results,
// and tear the fabric down with acknowledgement. The worker processes
// must be launched separately (by Run on this machine, or by hand/ssh on
// remote ones) with the same hosts list and config. Processes == 1 is the
// degenerate single-process case: no workers, all tiles local.
func Coordinate(spec *Spec) (*Result, error) {
	prog, err := program(spec.Workload, spec.Threads, spec.Scale)
	if err != nil {
		return nil, err
	}
	cl, err := join(spec.Config, prog, transport.TCPConfig{
		Addrs:       spec.Hosts,
		DialTimeout: spec.DialTimeout,
		FabricID:    spec.FabricID,
		Generation:  spec.Generation,
	})
	if err != nil {
		return nil, err
	}
	cl.WorkerDied = spec.WorkerDied
	return drive(cl, spec)
}

// drive is what every run does with its cluster, whoever built it: attach
// the checkpoint policy, Run, read the result window back while every
// home tile still serves, Close.
func drive(cl *core.Cluster, spec *Spec) (*Result, error) {
	defer cl.Close()
	if cp := spec.Checkpoint; cp != nil && cp.Dir != "" && cp.Every > 0 {
		pol := *cp
		pol.FabricID, pol.Generation = spec.FabricID, spec.Generation
		if pol.OnError == nil {
			pol.OnError = func(err error) { fmt.Fprintf(os.Stderr, "launch: checkpoint: %v\n", err) }
		}
		cl.SetCheckpoint(&pol)
	}
	rs, err := cl.Run(0)
	if err != nil {
		return nil, err
	}
	res := &Result{Stats: rs}
	if spec.PeekLen > 0 {
		res.Peeked = make([]byte, spec.PeekLen)
		cl.Peek(spec.PeekAddr, res.Peeked)
	}
	cl.Close()
	res.Procs = cl.Teardown()
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
		if !errors.Is(err, core.ErrWorkerDied) || attempt >= s.MaxRestarts {
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
		if cp := s.Checkpoint; cp != nil && cp.Dir != "" && s.Threads <= 1 {
			if ms, lerr := checkpoint.LoadManifests(cp.Dir); lerr == nil && len(ms) > 0 {
				pol := *cp
				pol.Verify = make(map[int64][]string, len(ms))
				for _, m := range ms {
					pol.Verify[m.Epoch] = m.VerifyDigests()
				}
				s.Checkpoint = &pol
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
			Verbose:       s.WorkerVerbose,
			Config:        cfg,
		}
		if cp := s.Checkpoint; cp != nil {
			ws.CheckpointDir, ws.ConfigDigest = cp.Dir, cp.ConfigDigest
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
