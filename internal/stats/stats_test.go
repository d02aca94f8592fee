package stats

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/simtest"
	"repro/internal/wire"
)

func TestMissKindStrings(t *testing.T) {
	for k := MissKind(0); k < NumMissKinds; k++ {
		if k.String() == "" || k.String() == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if MissKind(200).String() != "unknown" {
		t.Fatal("unknown kind not labeled")
	}
}

func TestAggregate(t *testing.T) {
	tiles := []Tile{
		{TileID: 0, Instructions: 100, Cycles: 500, Loads: 10, Stores: 5,
			L2Hits: 8, L2Misses: 7, MissBy: [NumMissKinds]uint64{3, 2, 1, 1},
			MemLatencyTotal: 700, MemAccesses: 7, Branches: 4, BranchMispredict: 1},
		{TileID: 1, Instructions: 200, Cycles: 900, Loads: 20, Stores: 15,
			L2Hits: 30, L2Misses: 5, MissBy: [NumMissKinds]uint64{5, 0, 0, 0},
			MemLatencyTotal: 500, MemAccesses: 5, Branches: 6, BranchMispredict: 2},
	}
	tot := Aggregate(tiles)
	if tot.Tiles != 2 || tot.Instructions != 300 {
		t.Fatalf("totals: %+v", tot)
	}
	if tot.MaxCycles != 900 || tot.SumCycles != 1400 {
		t.Fatalf("cycles: max=%d sum=%d", tot.MaxCycles, tot.SumCycles)
	}
	if tot.Loads != 30 || tot.Stores != 20 {
		t.Fatal("memory refs wrong")
	}
	if tot.MissBy[MissCold] != 8 || tot.MissBy[MissTrueSharing] != 1 {
		t.Fatalf("miss kinds: %v", tot.MissBy)
	}
	// 12 classified misses over 50 refs.
	if r := tot.MissRate(); r != 12.0/50 {
		t.Fatalf("miss rate = %v", r)
	}
	if r := tot.MissRateBy(MissCold); r != 8.0/50 {
		t.Fatalf("cold rate = %v", r)
	}
	if l := tot.AvgMemLatency(); l != 100 {
		t.Fatalf("avg latency = %v", l)
	}
}

func TestAggregateEmpty(t *testing.T) {
	tot := Aggregate(nil)
	if tot.MissRate() != 0 || tot.AvgMemLatency() != 0 || tot.MissRateBy(MissCold) != 0 {
		t.Fatal("empty totals must not divide by zero")
	}
}

func TestTileTotalL2Misses(t *testing.T) {
	ti := Tile{MissBy: [NumMissKinds]uint64{1, 2, 3, 4}}
	if ti.TotalL2Misses() != 10 {
		t.Fatalf("total = %d", ti.TotalL2Misses())
	}
}

// TestTileWireRoundtrip: tiles cross process boundaries and land in
// checkpoints through Tile.Walk, which must visit every field.
func TestTileWireRoundtrip(t *testing.T) {
	var in Tile
	simtest.Fill(t, &in)
	b := wire.Encode(in.Walk)
	var out Tile
	if err := wire.Decode(b, out.Walk); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("roundtrip mismatch:\n got  %+v\n want %+v", out, in)
	}
}

func TestTotalsJSONExport(t *testing.T) {
	// The JSON tags are the stable structured-export schema; scenario
	// JSONL records embed Totals verbatim and must round-trip exactly.
	in := Totals{Tiles: 2, Instructions: 10, MaxCycles: 99, Loads: 5, Stores: 3,
		MissBy: [NumMissKinds]uint64{1, 0, 2, 1}}
	buf, err := json.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"tiles"`, `"instructions"`, `"max_cycles"`, `"loads"`, `"stores"`, `"miss_by"`} {
		if !bytes.Contains(buf, []byte(key)) {
			t.Errorf("export missing %s: %s", key, buf)
		}
	}
	var out Totals
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatalf("round trip mismatch: %+v != %+v", out, in)
	}
}

func TestTileJSONExport(t *testing.T) {
	in := Tile{TileID: 1, Instructions: 7, L1DHits: 3, L1DMisses: 1, DRAMReads: 2}
	buf, err := json.Marshal(&in)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"tile"`, `"l1d_hits"`, `"l1d_misses"`, `"dram_reads"`} {
		if !bytes.Contains(buf, []byte(key)) {
			t.Errorf("export missing %s: %s", key, buf)
		}
	}
	var out Tile
	if err := json.Unmarshal(buf, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Fatal("round trip mismatch")
	}
}

func TestMissByName(t *testing.T) {
	tot := Totals{MissBy: [NumMissKinds]uint64{4, 3, 2, 1}}
	m := tot.MissByName()
	if m["cold"] != 4 || m["capacity"] != 3 || m["true-sharing"] != 2 || m["false-sharing"] != 1 {
		t.Fatalf("MissByName = %v", m)
	}
}
