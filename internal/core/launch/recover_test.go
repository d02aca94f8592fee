package launch

import (
	"bytes"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/mcp"
	"repro/internal/workloads"
)

func recoverConfig(tiles, procs int) config.Config {
	cfg := testConfig(tiles, procs)
	cfg.Sync.Model = config.LaxBarrier
	cfg.Sync.BarrierQuantum = 500
	return cfg
}

// TestRunRecoversFromWorkerLoss is the tentpole's end-to-end criterion: a
// two-process run whose worker is killed (-9, no warning, no teardown)
// mid-run must complete anyway — re-fork, replay, verify against the dead
// attempt's checkpoints — and produce a workload result byte-identical to
// an uninterrupted run of the same spec.
func TestRunRecoversFromWorkerLoss(t *testing.T) {
	base := Spec{
		Workload:   "fft",
		Threads:    2,
		Config:     recoverConfig(4, 2),
		PeekAddr:   workloads.DefaultResultAddr,
		PeekLen:    16,
		Checkpoint: &mcp.CheckpointPolicy{Every: 4, ConfigDigest: "recover-test-digest"},
	}

	// Calibrate the workload so the run is long enough that a mid-run
	// kill timer cannot slip past the teardown, then record the
	// uninterrupted reference result.
	var ref *Result
	for scale := 9; ; scale++ {
		base.Scale = scale
		base.Checkpoint.Dir = t.TempDir()
		res, err := Run(cloneSpec(base))
		if err != nil {
			t.Fatalf("reference run (scale %d): %v", scale, err)
		}
		if res.Stats.Wall >= 300*time.Millisecond || scale >= 13 {
			ref = res
			break
		}
	}
	if ms, err := checkpoint.LoadManifests(base.Checkpoint.Dir); err != nil || len(ms) == 0 {
		t.Fatalf("reference run wrote no checkpoints (err=%v); lower CheckpointEvery", err)
	}

	// Chaos run: worker 1 SIGKILLs itself roughly mid-run. The MCP lives in
	// this process, so OnSaved sees every checkpoint each attempt writes.
	chaos := *cloneSpec(base)
	chaos.Checkpoint.Dir = t.TempDir()
	var mu sync.Mutex
	replayed := map[int64]bool{} // epochs a recovery generation checkpointed
	chaos.Checkpoint.OnSaved = func(epoch int64, m *checkpoint.Manifest) {
		if m.Generation >= 2 {
			mu.Lock()
			replayed[epoch] = true
			mu.Unlock()
		}
	}
	chaos.ChaosExitMS = int(ref.Stats.Wall/time.Millisecond)/2 + 50
	chaos.MaxRestarts = 2
	chaos.RestartBackoff = 50 * time.Millisecond
	res, err := Run(cloneSpec(chaos))
	if err != nil {
		t.Fatalf("run did not survive worker loss: %v", err)
	}
	// The identity criterion is the workload checksum — the first 8 bytes
	// of the result window, the value scenario records. The following 8
	// bytes are the ROI-end timestamp in simulated cycles, which is
	// timing-dependent under multiple application threads (the repo's
	// determinism contract covers only the checksum there).
	if !bytes.Equal(res.Peeked[:8], ref.Peeked[:8]) {
		t.Errorf("recovered checksum differs from uninterrupted run:\n  got  %x\n  want %x", res.Peeked[:8], ref.Peeked[:8])
	}

	// The replay must have run past every epoch the dead attempt reached:
	// the highest-epoch manifest comes from a recovery generation. If it is
	// generation 1, the kill never landed mid-run and this test exercised
	// nothing (retune the chaos timing). A replay checkpoint replaces the
	// dead attempt's at the same epoch, so a generation-1 manifest may
	// survive only at an epoch the replay never checkpointed: a two-thread
	// replay is checksum-identical, not timing-identical, and its barrier
	// can release past an epoch the dead attempt's barrier stopped at.
	ms, err := checkpoint.LoadManifests(chaos.Checkpoint.Dir)
	if err != nil || len(ms) == 0 {
		t.Fatalf("recovered run wrote no checkpoints (err=%v)", err)
	}
	mu.Lock()
	defer mu.Unlock()
	last := ms[0]
	for _, m := range ms {
		if m.Epoch > last.Epoch {
			last = m
		}
		if m.Generation < 2 && replayed[m.Epoch] {
			t.Errorf("manifest epoch %d is generation %d, but the replay checkpointed that epoch", m.Epoch, m.Generation)
		}
		if m.ConfigDigest != base.Checkpoint.ConfigDigest {
			t.Errorf("manifest epoch %d carries config digest %q, want %q", m.Epoch, m.ConfigDigest, base.Checkpoint.ConfigDigest)
		}
	}
	if last.Generation < 2 {
		t.Fatalf("last manifest (epoch %d) is generation %d; the chaos kill never interrupted the run", last.Epoch, last.Generation)
	}
}

// cloneSpec hands its caller a copy it may change, checkpoint policy
// included.
func cloneSpec(s Spec) *Spec {
	c := s
	if s.Checkpoint != nil {
		pol := *s.Checkpoint
		c.Checkpoint = &pol
	}
	return &c
}

// TestRunGivesUpAfterMaxRestarts: when every attempt loses a worker, Run
// must stop after MaxRestarts re-forks and report the loss instead of
// spinning forever. Chaos at 0 restarts dies on the first loss.
func TestRunGivesUpAfterMaxRestarts(t *testing.T) {
	spec := &Spec{
		Workload:    "fft",
		Threads:     2,
		Scale:       12,
		Config:      recoverConfig(4, 2),
		Checkpoint:  &mcp.CheckpointPolicy{Dir: t.TempDir(), Every: 4},
		MaxRestarts: 0,
		ChaosExitMS: 60,
	}
	_, err := Run(spec)
	if err == nil {
		t.Fatal("run with an unrecoverable worker loss succeeded")
	}
	if !strings.Contains(err.Error(), "worker process died") {
		t.Fatalf("error does not report the worker loss: %v", err)
	}
}

// TestGroupChildDiesDuringTeardown: a child that dies while WaitTimeout is
// already reaping (the coordinator-teardown window) must be reaped with
// its real exit status — not leak, not double-kill, not hang.
func TestGroupChildDiesDuringTeardown(t *testing.T) {
	if _, err := exec.LookPath("sleep"); err != nil {
		t.Skip("no sleep binary")
	}
	g := &Group{}
	if err := g.Start(exec.Command("sleep", "60")); err != nil {
		t.Fatal(err)
	}
	c := g.snapshot()[0]
	// Kill the child from outside the group a moment after WaitTimeout
	// starts waiting on it — the child "dies during teardown".
	go func() {
		time.Sleep(100 * time.Millisecond) //graphite:wallclock test choreography: land the kill inside the WaitTimeout window
		c.cmd.Process.Signal(syscall.SIGKILL)
	}()
	start := time.Now()
	err := g.WaitTimeout(10 * time.Second)
	if time.Since(start) > 5*time.Second {
		t.Fatal("WaitTimeout waited for the full deadline despite the child dying")
	}
	if err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("want the child's kill status, got %v", err)
	}
	select {
	case <-g.Died():
	default:
		t.Fatal("Died() not signalled after the child exited")
	}
}

// TestGroupSignalWhileReForkInFlight: SIGTERM handling must kill and reap
// children started at any time, including ones started after the handler
// was installed (the re-fork-in-flight window of a recovery attempt).
// Killing the second child through the same group APIs the signal reaper
// uses exercises that path without signalling the test process itself.
func TestGroupSignalWhileReForkInFlight(t *testing.T) {
	if _, err := exec.LookPath("sleep"); err != nil {
		t.Skip("no sleep binary")
	}
	g := &Group{}
	if err := g.Start(exec.Command("sleep", "60")); err != nil {
		t.Fatal(err)
	}
	// First child dies (the "lost worker")…
	g.snapshot()[0].cmd.Process.Signal(syscall.SIGKILL)
	<-g.Died()
	// …and a replacement fork is in flight when the teardown lands.
	if err := g.Start(exec.Command("sleep", "60")); err != nil {
		t.Fatal(err)
	}
	g.Kill()
	done := make(chan error, 1)
	go func() { done <- g.Wait() }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "killed") {
			t.Fatalf("want kill statuses for both children, got %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait hung with a re-forked child in the group")
	}
}
