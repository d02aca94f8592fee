package launch

import (
	"encoding/json"
	"fmt"
	"os"
	"syscall"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/mcp"
	"repro/internal/transport"
)

// WorkerEnv is the environment variable through which Run hands a forked
// worker its role. A binary that may coordinate multi-process runs must
// call MaybeWorkerProcess at the very top of main (and a test binary in
// TestMain) so its forked copies become workers instead of re-running the
// CLI.
const WorkerEnv = "GRAPHITE_MP_WORKER"

// WorkerSpec fully describes one worker process's role: which process it
// is, where every process listens, and the simulation it serves. It is
// the JSON payload of WorkerEnv and what a worker started by hand
// (graphite -proc N -hosts …) builds from its flags.
//
//graphite:wire
type WorkerSpec struct {
	// Proc is this worker's process ID (1..Config.Processes-1).
	Proc int `json:"proc"`
	// Hosts lists every process's fabric listen address, by process ID.
	Hosts []string `json:"hosts"`
	// Workload, Threads, Scale rebuild the program; every process of one
	// simulation must construct the identical Program (paper §3.5).
	Workload string `json:"workload"`
	Threads  int    `json:"threads"`
	Scale    int    `json:"scale"`
	// DialTimeoutMS bounds fabric connection setup (0: transport default).
	DialTimeoutMS int `json:"dial_timeout_ms,omitempty"`
	// FabricID pins the run identity in the transport handshake so
	// concurrent runs racing over recycled localhost ports cannot
	// cross-connect (0: unchecked — manual multi-host launches).
	FabricID uint64 `json:"fabric_id,omitempty"`
	// Generation pins the recovery attempt in the handshake so a zombie
	// worker from a dead attempt cannot rejoin the replacement fabric
	// (0: unchecked).
	Generation uint64 `json:"generation,omitempty"`
	// CheckpointDir, when set, is where this worker writes its per-process
	// checkpoint state when the MCP orders a save; ConfigDigest stamps it.
	CheckpointDir string `json:"checkpoint_dir,omitempty"`
	ConfigDigest  string `json:"config_digest,omitempty"`
	// ChaosExitMS, when nonzero, makes the worker SIGKILL itself after
	// this many wall-clock milliseconds — fault injection for recovery
	// tests and the CI chaos smoke.
	ChaosExitMS int `json:"chaos_exit_ms,omitempty"`
	// Verbose logs serve/teardown progress to stderr.
	Verbose bool `json:"verbose,omitempty"`
	// Config is the full simulation configuration, identical across
	// processes (the config digest recorded by the coordinator covers it).
	Config config.Config `json:"config"` //graphite:wireexempt Config's wire schema IS its Go field names (config_digest hashes config.Canonical()'s JSON); see scenario.RunSpec.Config
}

// MaybeWorkerProcess turns the current process into a fabric worker when
// WorkerEnv is set, and never returns in that case. It is a no-op
// otherwise. Call it before any flag parsing.
func MaybeWorkerProcess() {
	payload := os.Getenv(WorkerEnv)
	if payload == "" {
		return
	}
	os.Unsetenv(WorkerEnv)
	var ws WorkerSpec
	if err := json.Unmarshal([]byte(payload), &ws); err != nil {
		fmt.Fprintln(os.Stderr, "graphite worker: bad spec:", err)
		os.Exit(2)
	}
	if err := RunWorker(&ws); err != nil {
		fmt.Fprintf(os.Stderr, "graphite worker %d: %v\n", ws.Proc, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// RunWorker serves one worker process role to completion: attach to the
// fabric, host this process's striped tiles, and return when the
// coordinator has announced teardown and this process acknowledged it.
func RunWorker(ws *WorkerSpec) error {
	prog, err := program(ws.Workload, ws.Threads, ws.Scale)
	if err != nil {
		return err
	}
	if ws.Proc <= 0 || ws.Proc >= ws.Config.Processes {
		return fmt.Errorf("launch: worker proc %d out of range (1..%d)", ws.Proc, ws.Config.Processes-1)
	}
	if ws.ChaosExitMS > 0 {
		// Fault injection: die the hard way (no teardown, no ack) so the
		// coordinator exercises the same recovery path a crashed or
		// OOM-killed worker would trigger.
		time.AfterFunc(time.Duration(ws.ChaosExitMS)*time.Millisecond, func() { //graphite:wallclock chaos fault injection kills the host process; simulated time is irrelevant to the victim
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		})
	}
	cl, err := join(ws.Config, prog, transport.TCPConfig{
		Proc:        arch.ProcID(ws.Proc),
		Addrs:       ws.Hosts,
		DialTimeout: time.Duration(ws.DialTimeoutMS) * time.Millisecond,
		FabricID:    ws.FabricID,
		Generation:  ws.Generation,
	})
	if err != nil {
		return err
	}
	defer cl.Close()
	if ws.CheckpointDir != "" {
		cl.SetCheckpoint(&mcp.CheckpointPolicy{Dir: ws.CheckpointDir, ConfigDigest: ws.ConfigDigest})
	}
	if ws.Verbose {
		fmt.Fprintf(os.Stderr, "[proc %d] serving %d tiles on %s\n", ws.Proc, len(cl.Tiles()), ws.Hosts[ws.Proc])
	}
	if err := cl.Serve(); err != nil {
		return err
	}
	if ws.Verbose {
		fmt.Fprintf(os.Stderr, "[proc %d] teardown acknowledged, exiting\n", ws.Proc)
	}
	return nil
}
