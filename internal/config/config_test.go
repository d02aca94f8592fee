package config

import (
	"encoding/json"
	"reflect"
	"testing"

	"repro/internal/arch"
)

func TestDefaultMatchesTable1(t *testing.T) {
	c := Default()
	if c.ClockHz != 1_000_000_000 {
		t.Errorf("clock = %d Hz, Table 1 says 1 GHz", c.ClockHz)
	}
	if c.L1D.Size != 32<<10 || c.L1D.Assoc != 8 || c.L1D.LineSize != 64 {
		t.Errorf("L1D = %+v, Table 1 says 32 KB, 8-way, 64 B lines", c.L1D)
	}
	if c.L1I.Size != 32<<10 || c.L1I.Assoc != 8 || c.L1I.LineSize != 64 {
		t.Errorf("L1I = %+v, Table 1 says 32 KB, 8-way, 64 B lines", c.L1I)
	}
	if c.L2.Size != 3<<20 || c.L2.Assoc != 24 || c.L2.LineSize != 64 {
		t.Errorf("L2 = %+v, Table 1 says 3 MB, 24-way, 64 B lines", c.L2)
	}
	if c.Coherence.Kind != FullMap {
		t.Errorf("coherence = %v, Table 1 says full-map directory", c.Coherence.Kind)
	}
	if c.DRAM.TotalBandwidth != 5.13 {
		t.Errorf("DRAM bandwidth = %v GB/s, Table 1 says 5.13", c.DRAM.TotalBandwidth)
	}
	if c.MemNet.Kind != NetMeshContention {
		t.Errorf("memory network = %v, Table 1 says mesh", c.MemNet.Kind)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejectsBadGeometry(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero tiles", func(c *Config) { c.Tiles = 0 }},
		{"more procs than tiles", func(c *Config) { c.Processes = c.Tiles + 1 }},
		{"non-pow2 line", func(c *Config) { c.L2.LineSize = 48; c.L1D.LineSize = 48; c.L1I.LineSize = 48 }},
		{"L1/L2 line mismatch", func(c *Config) { c.L1D.LineSize = 32 }},
		{"L2 disabled", func(c *Config) { c.L2.Enabled = false }},
		{"zero assoc", func(c *Config) { c.L2.Assoc = 0 }},
		{"dirNB without pointers", func(c *Config) { c.Coherence.Kind = LimitedNB; c.Coherence.DirPointers = 0 }},
		{"zero bandwidth", func(c *Config) { c.DRAM.TotalBandwidth = 0 }},
		{"zero clock", func(c *Config) { c.ClockHz = 0 }},
		{"barrier without quantum", func(c *Config) { c.Sync.Model = LaxBarrier; c.Sync.BarrierQuantum = 0 }},
		{"p2p without slack", func(c *Config) { c.Sync.Model = LaxP2P; c.Sync.P2PSlack = 0 }},
		{"stack too small", func(c *Config) { c.AS.StackSize = 1 << 10 }},
		{"overlapping segments", func(c *Config) { c.AS.HeapBase = c.AS.StaticBase }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Default()
			tc.mutate(&c)
			if err := c.Validate(); err == nil {
				t.Fatalf("Validate accepted %s", tc.name)
			}
		})
	}
}

func TestCacheSets(t *testing.T) {
	c := CacheConfig{Enabled: true, Size: 32 << 10, Assoc: 8, LineSize: 64}
	if got := c.Sets(); got != 64 {
		t.Fatalf("Sets() = %d, want 64", got)
	}
	var off CacheConfig
	if got := off.Sets(); got != 0 {
		t.Fatalf("disabled cache Sets() = %d", got)
	}
}

func TestHomeTileStripesLines(t *testing.T) {
	c := Default()
	c.Tiles = 4
	line := arch.Addr(c.LineSize())
	seen := map[arch.TileID]bool{}
	for i := arch.Addr(0); i < 8; i++ {
		home := c.HomeTile(i * line)
		if home < 0 || int(home) >= c.Tiles {
			t.Fatalf("home %v out of range", home)
		}
		seen[home] = true
	}
	if len(seen) != 4 {
		t.Fatalf("line striping only reached %d of 4 tiles", len(seen))
	}
	// Two addresses on the same line share a home.
	if c.HomeTile(0) != c.HomeTile(arch.Addr(c.LineSize()-1)) {
		t.Fatal("same line mapped to different homes")
	}
}

func TestProcStriping(t *testing.T) {
	c := Default()
	c.Tiles = 10
	c.Processes = 4
	counts := make([]int, 4)
	for tile := 0; tile < c.Tiles; tile++ {
		p := c.ProcOf(arch.TileID(tile))
		counts[p]++
	}
	// 10 tiles over 4 procs stripes 3,3,2,2.
	want := []int{3, 3, 2, 2}
	for i, n := range counts {
		if n != want[i] {
			t.Fatalf("proc %d simulates %d tiles, want %d", i, n, want[i])
		}
	}
	for p := 0; p < 4; p++ {
		for _, tile := range c.TilesOf(arch.ProcID(p)) {
			if c.ProcOf(tile) != arch.ProcID(p) {
				t.Fatalf("TilesOf(%d) returned %v owned by %d", p, tile, c.ProcOf(tile))
			}
		}
	}
}

func TestBandwidthPartitioning(t *testing.T) {
	// Doubling the tile count must halve per-controller bandwidth — the
	// effect behind the Figure 9 memory-latency growth.
	a := Default()
	a.Tiles = 16
	b := Default()
	b.Tiles = 32
	ra := a.BytesPerCyclePerController()
	rb := b.BytesPerCyclePerController()
	if ra <= 0 || rb <= 0 {
		t.Fatalf("non-positive bandwidth: %v %v", ra, rb)
	}
	if ratio := ra / rb; ratio < 1.99 || ratio > 2.01 {
		t.Fatalf("16->32 tiles changed per-controller bandwidth by %vx, want 2x", ratio)
	}
}

func TestStringers(t *testing.T) {
	for _, s := range []string{Lax.String(), LaxBarrier.String(), LaxP2P.String(),
		NetMagic.String(), NetMeshHop.String(), NetMeshContention.String(),
		FullMap.String(), LimitedNB.String(), LimitLESS.String()} {
		if s == "" {
			t.Fatal("empty stringer")
		}
	}
	if SyncModel(99).String() == "" || NetworkModelKind(99).String() == "" ||
		CoherenceKind(99).String() == "" {
		t.Fatal("unknown enum produced empty string")
	}
}

func TestParsers(t *testing.T) {
	// Parsers accept both the scenario-file snake_case spellings and the
	// String() forms, case-insensitively.
	if m, err := ParseSyncModel("lax_barrier"); err != nil || m != LaxBarrier {
		t.Fatalf("ParseSyncModel(lax_barrier) = %v, %v", m, err)
	}
	if m, err := ParseSyncModel("LaxP2P"); err != nil || m != LaxP2P {
		t.Fatalf("ParseSyncModel(LaxP2P) = %v, %v", m, err)
	}
	if k, err := ParseNetworkModelKind("mesh_contention"); err != nil || k != NetMeshContention {
		t.Fatalf("ParseNetworkModelKind = %v, %v", k, err)
	}
	if k, err := ParseCoherenceKind("dir_nb"); err != nil || k != LimitedNB {
		t.Fatalf("ParseCoherenceKind = %v, %v", k, err)
	}
	if k, err := ParseCoherenceKind("LimitLESS"); err != nil || k != LimitLESS {
		t.Fatalf("ParseCoherenceKind(LimitLESS) = %v, %v", k, err)
	}
	if k, err := ParseCoreModelKind("out-of-order"); err != nil || k != CoreOutOfOrder {
		t.Fatalf("ParseCoreModelKind = %v, %v", k, err)
	}
	// Round trip: every String() form parses back to its value.
	for _, m := range []SyncModel{Lax, LaxBarrier, LaxP2P} {
		if got, err := ParseSyncModel(m.String()); err != nil || got != m {
			t.Fatalf("round trip %v: %v, %v", m, got, err)
		}
	}
	for _, k := range []NetworkModelKind{NetMagic, NetMeshHop, NetMeshContention, NetRing} {
		if got, err := ParseNetworkModelKind(k.String()); err != nil || got != k {
			t.Fatalf("round trip %v: %v, %v", k, got, err)
		}
	}
	for _, k := range []CoherenceKind{FullMap, LimitedNB, LimitLESS} {
		if got, err := ParseCoherenceKind(k.String()); err != nil || got != k {
			t.Fatalf("round trip %v: %v, %v", k, got, err)
		}
	}
	for _, bad := range []func() error{
		func() error { _, err := ParseSyncModel("chaotic"); return err },
		func() error { _, err := ParseNetworkModelKind("torus"); return err },
		func() error { _, err := ParseCoherenceKind("snooping"); return err },
		func() error { _, err := ParseCoreModelKind("vliw"); return err },
	} {
		if bad() == nil {
			t.Fatal("invalid spelling accepted")
		}
	}
}

// TestConfigJSONRoundTrip: Config is the payload of distributed sweep
// dispatch (scenario.RunSpec travels as JSON), so decode(encode(cfg)) must
// reproduce the value exactly — including the integer-keyed TileCores map.
func TestConfigJSONRoundTrip(t *testing.T) {
	cfg := Default()
	cfg.Tiles = 16
	cfg.Sync.Model = LaxP2P
	cfg.Coherence.Kind = LimitLESS
	cfg.TileCores = map[arch.TileID]CoreConfig{
		0: {Kind: CoreOutOfOrder, ROBWindow: 128},
		9: {Kind: CoreInOrder, ArithCost: 2},
	}
	buf, err := json.Marshal(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	var back Config
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg, back) {
		t.Fatalf("config did not round-trip:\n got %+v\nwant %+v", back, cfg)
	}
	buf2, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(buf2) {
		t.Fatalf("re-encoding not byte-stable:\n %s\n %s", buf, buf2)
	}
}
