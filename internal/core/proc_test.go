package core

import (
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/transport"
)

// TestShutdownImmediatelyAfterStart is the regression test for a worker
// teardown race: OnShutdown must be installed before Start (the
// documented Proc contract, which JoinCluster keeps), and a coordinator
// that announces teardown the instant startup completes must still reach
// every worker's callback. Assigned after Start, a fast MsgShutdown could
// be served while the field was still nil and the worker blocked forever.
func TestShutdownImmediatelyAfterStart(t *testing.T) {
	const procs = 2
	cfg := testCfg(2, procs)
	fabric := transport.NewChannelFabric(transport.StripedRoute(procs))
	defer fabric.Close()
	prog := Program{Name: "idle", Funcs: []ThreadFunc{func(th *Thread, arg uint64) {}}}

	var ps []*Proc
	var done []chan struct{}
	for p := 0; p < procs; p++ {
		pr, err := NewProc(arch.ProcID(p), &cfg, prog, fabric.Process(arch.ProcID(p)))
		if err != nil {
			t.Fatal(err)
		}
		ch := make(chan struct{})
		pr.OnShutdown = func() { close(ch) }
		pr.Start()
		ps = append(ps, pr)
		done = append(done, ch)
	}
	defer func() {
		for _, pr := range ps {
			pr.Close()
		}
	}()

	// Tear down immediately: no application ever starts.
	acks := ps[0].MCP.ShutdownWorkers()

	for p, ch := range done {
		select {
		case <-ch:
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
