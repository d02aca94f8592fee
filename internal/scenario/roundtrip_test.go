package scenario

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
)

// TestRunSpecJSONRoundTrip is the wire contract of the dispatch package: a
// spec shipped to a worker as JSON must decode to a spec whose re-encoding
// and config digest are identical, or distributed records would disagree
// with single-host ones.
func TestRunSpecJSONRoundTrip(t *testing.T) {
	s := &Scenario{
		Name:     "rt",
		Preset:   "small-cache",
		Workload: "radix",
		Threads:  1,
		Verify:   true,
		Base:     map[string]any{"Tiles": 8},
		Grids: []Grid{{
			Axes: []Axis{
				{Field: "line_size", Values: []any{32, 64}},
				{Field: "Sync.Model", Values: []any{"lax", "lax_p2p"}},
			},
		}},
	}
	specs, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Exercise the TileCores map-key path too.
	specs[0].Config.TileCores = map[arch.TileID]config.CoreConfig{
		3: {Kind: config.CoreOutOfOrder, ROBWindow: 128},
	}
	for i := range specs {
		buf, err := json.Marshal(&specs[i])
		if err != nil {
			t.Fatalf("spec %d: marshal: %v", i, err)
		}
		var back RunSpec
		if err := json.Unmarshal(buf, &back); err != nil {
			t.Fatalf("spec %d: unmarshal: %v", i, err)
		}
		buf2, err := json.Marshal(&back)
		if err != nil {
			t.Fatalf("spec %d: re-marshal: %v", i, err)
		}
		if !bytes.Equal(buf, buf2) {
			t.Fatalf("spec %d: round trip not byte-stable:\n  %s\n  %s", i, buf, buf2)
		}
		if d1, d2 := Digest(&specs[i].Config), Digest(&back.Config); d1 != d2 {
			t.Fatalf("spec %d: config digest drifted across round trip: %s != %s", i, d1, d2)
		}
	}
}

// TestRecordJSONRoundTrip: records come back from workers as JSON; their
// re-encoding must match what a single-host run would have written (the
// coordinator rewrites the spec-identity fields, so this covers the
// result fields).
func TestRecordJSONRoundTrip(t *testing.T) {
	okv := true
	rec := Record{
		Schema: RecordSchema, Scenario: "rt", Run: 3, Workload: "fft",
		Threads: 1, Scale: 64, Seed: 4, ConfigDigest: "abc",
		SimCycles: 123456, Checksum: 3.141592653589793, ChecksumOK: &okv,
		MissByName: map[string]uint64{"cold": 7, "sharing": 1},
		WallSec:    0.25,
	}
	buf, err := json.Marshal(&rec)
	if err != nil {
		t.Fatal(err)
	}
	var back Record
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	buf2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatalf("record round trip not byte-stable:\n  %s\n  %s", buf, buf2)
	}
}

// TestNativeMemoConcurrentMatchesSerial: verdicts filled from several
// goroutines through one memo equal those filled one by one, and records
// the memo cannot judge stay unverified.
func TestNativeMemoConcurrentMatchesSerial(t *testing.T) {
	recs := func() []Record {
		return []Record{
			{Workload: "radix", Threads: 1, Scale: 64, Checksum: 1},
			{Workload: "nosuch", Threads: 1, Scale: 1, Checksum: 0},
			{Workload: "radix", Threads: 1, Scale: 64, Checksum: 1},
			{Workload: "fft", Threads: 1, Scale: 64, Checksum: 2, Error: "boom"},
		}
	}
	a, b := recs(), recs()
	var serial, shared NativeMemo
	for i := range a {
		serial.Fill(&a[i])
	}
	var wg sync.WaitGroup
	for i := range b {
		wg.Add(1)
		go func() {
			defer wg.Done()
			shared.Fill(&b[i])
		}()
	}
	wg.Wait()
	for i := range a {
		av, bv := a[i].ChecksumOK, b[i].ChecksumOK
		if (av == nil) != (bv == nil) {
			t.Fatalf("record %d: nil mismatch between serial and concurrent fill", i)
		}
		if av != nil && *av != *bv {
			t.Fatalf("record %d: verdict mismatch: %v vs %v", i, *av, *bv)
		}
	}
	if a[0].ChecksumOK == nil {
		t.Fatal("known workload left unverified")
	}
	if a[1].ChecksumOK != nil {
		t.Fatal("unknown workload must stay unverified")
	}
	if a[3].ChecksumOK != nil {
		t.Fatal("errored record must stay unverified")
	}
}
