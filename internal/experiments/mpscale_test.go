package experiments

import (
	"os"
	"strings"
	"testing"

	"repro/internal/core/launch"
)

// TestMain lets forked copies of this test binary serve as fabric
// workers for MPScale's multi-process points.
func TestMain(m *testing.M) {
	launch.MaybeWorkerProcess()
	os.Exit(m.Run())
}

func TestMPScaleQuick(t *testing.T) {
	r := bounded(t, func() (*MPScaleResult, error) { return MPScale(Quick, []int{1, 2}) })
	if len(r.Points) != 2 {
		t.Fatalf("got %d points, want 2", len(r.Points))
	}
	for _, p := range r.Points {
		if !p.Identical {
			t.Errorf("%d-process run diverged from the 1-process reference", p.Processes)
		}
	}
	if got := r.Points[1].ProcWallSec; len(got) != 2 {
		t.Errorf("2-process point carries per-proc walls %v, want 2 entries", got)
	}
	var sb strings.Builder
	r.Print(&sb)
	if !strings.Contains(sb.String(), "processes") {
		t.Errorf("print output malformed:\n%s", sb.String())
	}
}
