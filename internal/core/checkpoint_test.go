package core

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/coremodel"
	"repro/internal/mcp"
	"repro/internal/simtest"
)

// ckptProgram interleaves compute, shared-memory contention, and enough
// quanta that a LaxBarrier run crosses several checkpoint epochs.
func ckptProgram(t *testing.T) Program {
	prog := Program{Name: "ckpt"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			shared := th.Malloc(64)
			mtx := th.Malloc(64)
			var kids []arch.ThreadID
			for i := 0; i < 3; i++ {
				kids = append(kids, th.Spawn(1, uint64(shared)<<32|uint64(mtx)))
			}
			for _, k := range kids {
				th.Join(k)
			}
			if got := th.Load64(shared); got != 3*40 {
				t.Errorf("counter = %d, want %d", got, 3*40)
			}
		},
		func(th *Thread, arg uint64) {
			shared, mtx := arch.Addr(arg>>32), arch.Addr(arg&0xFFFFFFFF)
			for i := 0; i < 40; i++ {
				th.Compute(coremodel.Arith, 200)
				th.MutexLock(mtx)
				th.Store64(shared, th.Load64(shared)+1)
				th.MutexUnlock(mtx)
			}
		},
	}
	return prog
}

func ckptCfg() config.Config {
	cfg := testCfg(4, 2)
	cfg.Sync.Model = config.LaxBarrier
	cfg.Sync.BarrierQuantum = 500
	return cfg
}

// TestCheckpointRestoreIdentity is the tentpole's state-identity check:
// a run checkpoints itself at epoch boundaries; restoring the snapshot
// into a freshly built cluster and re-capturing must reproduce the
// digests bit-for-bit for every manifest the run wrote.
func TestCheckpointRestoreIdentity(t *testing.T) {
	cfg := ckptCfg()
	prog := ckptProgram(t)
	dir := t.TempDir()

	c, err := NewCluster(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	saved := 0
	c.SetCheckpoint(&mcp.CheckpointPolicy{
		Dir:          dir,
		Every:        2,
		ConfigDigest: "test-digest",
		OnSaved:      func(epoch int64, m *checkpoint.Manifest) { saved++ },
		OnError:      func(err error) { t.Errorf("checkpoint error: %v", err) },
	})
	if _, err := runCluster(t, c, 0); err != nil {
		t.Fatal(err)
	}
	if saved == 0 {
		t.Fatal("run wrote no checkpoints; increase work or lower Every")
	}

	manifests, err := checkpoint.LoadManifests(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) != saved {
		t.Fatalf("loaded %d manifests, OnSaved fired %d times", len(manifests), saved)
	}
	for _, m := range manifests {
		m := m
		restoreDir := t.TempDir()
		rc, err := RestoreCluster(cfg, prog, dir, m)
		if err != nil {
			t.Fatalf("restore epoch %d: %v", m.Epoch, err)
		}
		rc.SetCheckpoint(&mcp.CheckpointPolicy{Dir: restoreDir, ConfigDigest: "test-digest"})
		m2, err := rc.CaptureState(m.Epoch)
		rc.Close()
		if err != nil {
			t.Fatalf("re-capture epoch %d: %v", m.Epoch, err)
		}
		want, got := m.VerifyDigests(), m2.VerifyDigests()
		if len(want) != len(got) {
			t.Fatalf("epoch %d: digest count %d != %d", m.Epoch, len(want), len(got))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Errorf("epoch %d digest %d: restore is not bit-identical:\n  saved     %s\n  recapture %s", m.Epoch, i, want[i], got[i])
			}
		}
	}
}

// TestCheckpointDeterministicDigests runs the same single-threaded
// checkpointed program twice and requires identical digest chains — the
// property strict replay verification stands on. Single-threaded,
// because that is the repo's determinism boundary for timing-dependent
// state: multi-thread runs guarantee only workload-checksum identity
// (control-plane arrival order varies with host scheduling).
func TestCheckpointDeterministicDigests(t *testing.T) {
	cfg := ckptCfg()
	prog := Program{Name: "ckpt1t"}
	prog.Funcs = []ThreadFunc{
		func(th *Thread, arg uint64) {
			buf := th.Malloc(4096)
			for i := 0; i < 30; i++ {
				th.Compute(coremodel.Arith, 300)
				th.Store64(buf+arch.Addr((i%64)*64), uint64(i))
				_ = th.Load64(buf + arch.Addr(((i+7)%64)*64))
			}
		},
	}
	runOnce := func(dir string) []*checkpoint.Manifest {
		t.Helper()
		c, err := NewCluster(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		c.SetCheckpoint(&mcp.CheckpointPolicy{Dir: dir, Every: 2, ConfigDigest: "test-digest"})
		if _, err := runCluster(t, c, 0); err != nil {
			t.Fatal(err)
		}
		ms, err := checkpoint.LoadManifests(dir)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	a := runOnce(t.TempDir())
	b := runOnce(t.TempDir())
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("manifest counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Epoch != b[i].Epoch {
			t.Fatalf("epoch schedule differs at %d: %d vs %d", i, a[i].Epoch, b[i].Epoch)
		}
		wa, wb := a[i].VerifyDigests(), b[i].VerifyDigests()
		for j := range wa {
			if wa[j] != wb[j] {
				t.Errorf("epoch %d digest %d differs across identical runs", a[i].Epoch, j)
			}
		}
	}
}

// TestCheckpointVerifyMismatchFatal attaches a Verify table with a wrong
// digest and requires Run itself to return the divergence: the epoch
// release is withheld, so a Run that waited for completion alone would
// park forever.
func TestCheckpointVerifyMismatchFatal(t *testing.T) {
	cfg := ckptCfg()
	c, err := NewCluster(cfg, ckptProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetCheckpoint(&mcp.CheckpointPolicy{
		Dir:          t.TempDir(),
		Every:        2,
		ConfigDigest: "test-digest",
		Verify:       map[int64][]string{2: {"bogus-digest"}},
		StrictVerify: true,
	})
	rs, err := runCluster(t, c, 0)
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("run returned (%v, %v) despite digest mismatch, want the checkpoint error", rs, err)
	}
}

// TestCloseWaitsForCheckpointWriter ends a run while the MCP is still
// inside a checkpoint (a worker loss reported from the first OnSaved) and
// requires Close to return only after that checkpoint is done: a caller
// that removes or reloads the checkpoint directory after Close must not
// race a writer.
func TestCloseWaitsForCheckpointWriter(t *testing.T) {
	c, err := NewCluster(ckptCfg(), ckptProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	died := make(chan struct{})
	c.WorkerDied = died
	var saves, finished atomic.Int32
	c.SetCheckpoint(&mcp.CheckpointPolicy{
		Dir:          t.TempDir(),
		Every:        2,
		ConfigDigest: "test-digest",
		OnSaved: func(int64, *checkpoint.Manifest) {
			if saves.Add(1) > 1 {
				return
			}
			close(died)
			time.Sleep(100 * time.Millisecond) //graphite:wallclock test choreography: hold the MCP inside its checkpoint while Run returns and Close starts
			finished.Store(1)
		},
	})
	if _, err := runCluster(t, c, 0); !errors.Is(err, ErrWorkerDied) {
		t.Fatalf("Run returned %v, want ErrWorkerDied", err)
	}
	simtest.Deadline(t, runDeadline, c.Close)
	if finished.Load() == 0 {
		t.Fatal("Close returned while the MCP was still inside a checkpoint")
	}
}
