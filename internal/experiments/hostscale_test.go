package experiments

import (
	"bytes"
	"strings"
	"testing"
)

func TestHostScaleQuick(t *testing.T) {
	res := bounded(t, func() (*HostScaleResult, error) { return HostScale(Quick, []int{16}, []int{1, 2}) })
	if len(res.Points) != 2 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.Points[0].Speedup != 1.0 {
		t.Fatalf("base speedup = %v", res.Points[0].Speedup)
	}
	for _, p := range res.Points {
		if !p.Identical {
			t.Errorf("tiles=%d workers=%d diverged from the 1-worker result", p.Tiles, p.Workers)
		}
		if p.NSPerInstr <= 0 {
			t.Errorf("tiles=%d workers=%d has no per-instruction cost", p.Tiles, p.Workers)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "identical") {
		t.Fatal("print malformed")
	}
}

// TestHostScaleSmoke256 is the CI hostscale-smoke anchor: the 256-tile
// point at the quick problem size, run under -race by its dedicated
// workflow job. It exercises the epoch-batched barrier ledger, the dense
// construction path, and the SoA memory system at a tile count no other
// test reaches, and re-asserts the worker-count result-identity contract
// there.
func TestHostScaleSmoke256(t *testing.T) {
	res := bounded(t, func() (*HostScaleResult, error) { return HostScale(Quick, []int{256}, []int{1, 2}) })
	for _, p := range res.Points {
		if !p.Identical {
			t.Errorf("256-tile workers=%d result diverged from 1-worker run", p.Workers)
		}
	}
}
