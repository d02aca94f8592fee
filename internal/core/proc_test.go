package core

import (
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/transport"
)

// TestShutdownImmediatelyAfterStart is the regression test for a worker
// teardown race: a coordinator that announces teardown the instant
// startup completes must still reach every process. When the teardown
// was a callback assigned after Start, a fast MsgShutdown could be served
// while the field was still nil and the worker blocked forever.
func TestShutdownImmediatelyAfterStart(t *testing.T) {
	const procs = 2
	cfg := testCfg(2, procs)
	fabric := transport.NewChannelFabric(transport.StripedRoute(procs))
	defer fabric.Close()
	prog := Program{Name: "idle", Funcs: []ThreadFunc{func(th *Thread, arg uint64) {}}}

	var ps []*Proc
	for p := 0; p < procs; p++ {
		pr, err := NewProc(arch.ProcID(p), &cfg, prog, fabric.Process(arch.ProcID(p)))
		if err != nil {
			t.Fatal(err)
		}
		pr.Start(1)
		ps = append(ps, pr)
	}
	defer func() {
		for _, pr := range ps {
			pr.Close()
		}
	}()

	// Tear down immediately: no application ever starts.
	acks := ps[0].MCP.ShutdownWorkers()

	for p, pr := range ps {
		select {
		case <-pr.shutdown:
		case <-time.After(10 * time.Second):
			t.Fatalf("proc %d never saw the teardown announcement", p)
		}
	}
	if len(acks) != procs {
		t.Fatalf("got %d acks, want %d", len(acks), procs)
	}
	for _, a := range acks {
		if !a.Acked {
			t.Errorf("proc %d did not acknowledge teardown", a.Proc)
		}
	}
}

// TestHostShare: the processes on one host split its w cores w/k each,
// the first w%k of them one more, and each gets at least one core and at
// most one per tile.
func TestHostShare(t *testing.T) {
	for _, tc := range []struct {
		w, k  int
		ranks []int // share of each rank, tiles unbounded
	}{
		{1, 1, []int{1}},
		{1, 2, []int{1, 1}},
		{1, 3, []int{1, 1, 1}},
		{1, 4, []int{1, 1, 1, 1}},
		{2, 1, []int{2}},
		{2, 2, []int{1, 1}},
		{2, 3, []int{1, 1, 1}},
		{2, 4, []int{1, 1, 1, 1}},
		{3, 1, []int{3}},
		{3, 2, []int{2, 1}},
		{3, 3, []int{1, 1, 1}},
		{3, 4, []int{1, 1, 1, 1}},
		{4, 1, []int{4}},
		{4, 2, []int{2, 2}},
		{4, 3, []int{2, 1, 1}},
		{4, 4, []int{1, 1, 1, 1}},
		{5, 1, []int{5}},
		{5, 2, []int{3, 2}},
		{5, 3, []int{2, 2, 1}},
		{5, 4, []int{2, 1, 1, 1}},
	} {
		if len(tc.ranks) != tc.k {
			t.Fatalf("w=%d k=%d: table lists %d ranks", tc.w, tc.k, len(tc.ranks))
		}
		for r, want := range tc.ranks {
			if got := HostShare(tc.w, tc.k, r, 64); got != want {
				t.Errorf("HostShare(%d, %d, %d, 64) = %d, want %d", tc.w, tc.k, r, got, want)
			}
			// The tile cap.
			if got := HostShare(tc.w, tc.k, r, 1); got != 1 {
				t.Errorf("HostShare(%d, %d, %d, 1) = %d, want 1", tc.w, tc.k, r, got)
			}
			if got, capped := HostShare(tc.w, tc.k, r, 2), min(want, 2); got != capped {
				t.Errorf("HostShare(%d, %d, %d, 2) = %d, want %d", tc.w, tc.k, r, got, capped)
			}
		}
	}
}

// TestProcessesSplitWorkers: the two simulated processes of an in-process
// cluster share Config.Workers between them rather than each running
// that many memory-server shards.
func TestProcessesSplitWorkers(t *testing.T) {
	prog := Program{Name: "idle", Funcs: []ThreadFunc{func(th *Thread, arg uint64) {}}}
	for w, want := range map[int][2]int{1: {1, 1}, 2: {1, 1}, 3: {2, 1}, 4: {2, 2}} {
		cfg := testCfg(8, 2)
		cfg.Workers = w
		c, err := NewCluster(cfg, prog)
		if err != nil {
			t.Fatal(err)
		}
		got := [2]int{len(c.procs[0].shards), len(c.procs[1].shards)}
		c.Close()
		if got != want {
			t.Errorf("Workers=%d: processes run %d+%d shards, want %d+%d", w, got[0], got[1], want[0], want[1])
		}
	}
}
