package memsys

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/simtest"
	"repro/internal/stats"
	"repro/internal/transport"
)

// cluster wires N tiles' memory nodes over a channel fabric in one process.
type cluster struct {
	cfg    config.Config
	fab    *transport.ChannelFabric
	nets   []*network.Net
	nodes  []*Node
	shards sync.WaitGroup // one per Serve loop
}

func testConfig(tiles int) config.Config {
	cfg := config.Default()
	cfg.Tiles = tiles
	// Small caches so eviction paths are exercised quickly.
	cfg.L1I = config.CacheConfig{Enabled: false}
	cfg.L1D = config.CacheConfig{Enabled: true, Size: 1 << 10, Assoc: 2, LineSize: 64, HitLatency: 1}
	cfg.L2 = config.CacheConfig{Enabled: true, Size: 4 << 10, Assoc: 4, LineSize: 64, HitLatency: 8}
	return cfg
}

// newCluster serves every node from a shard of its own.
func newCluster(t testing.TB, cfg config.Config) *cluster {
	return newShardedCluster(t, cfg, cfg.Tiles)
}

// newShardedCluster serves the nodes from w shards, node i in shard i mod
// w, the layout core.Proc.Start uses.
func newShardedCluster(t testing.TB, cfg config.Config, w int) *cluster {
	t.Helper()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	c := &cluster{cfg: cfg}
	prog := clock.NewProgressWindow(cfg.ProgressWindowSize())
	models := network.NewModels(&cfg, prog)
	c.fab = transport.NewChannelFabric(transport.StripedRoute(1))
	tr := c.fab.Process(0)
	shards := make([][]*Node, w)
	for tile := 0; tile < cfg.Tiles; tile++ {
		ep, err := tr.Register(transport.TileEndpoint(arch.TileID(tile)))
		if err != nil {
			t.Fatal(err)
		}
		net := network.New(arch.TileID(tile), tr, ep, models, prog)
		net.SetPrimary(network.ClassMemory)
		node := NewNode(arch.TileID(tile), &c.cfg, net, prog)
		shards[tile%w] = append(shards[tile%w], node)
		c.nets = append(c.nets, net)
		c.nodes = append(c.nodes, node)
	}
	for _, nodes := range shards {
		// Built here, so the nodes take coroutines (Node.Go) at once.
		sh := NewShard(nodes...)
		c.shards.Add(1)
		go func() {
			defer c.shards.Done()
			sh.Run()
		}()
	}
	t.Cleanup(c.close)
	return c
}

// inShardLayouts runs test on a fresh cluster in each shard layout the
// property tests cover: one shard per node, one shard for all nodes, and
// three shards.
func inShardLayouts(t *testing.T, cfg config.Config, test func(t *testing.T, c *cluster)) {
	for _, w := range []int{cfg.Tiles, 1, 3} {
		t.Run(fmt.Sprintf("shards=%d", w), func(t *testing.T) {
			test(t, newShardedCluster(t, cfg, w))
		})
	}
}

// close tears the cluster down and waits until every shard has returned.
func (c *cluster) close() {
	for _, n := range c.nets {
		n.Close()
	}
	c.fab.Close()
	for _, n := range c.nodes {
		<-n.Stopped()
	}
	c.shards.Wait()
}

func TestReadUninitializedIsZero(t *testing.T) {
	c := newCluster(t, testConfig(2))
	buf := bytes.Repeat([]byte{0xFF}, 16)
	res := c.nodes[0].Read(0x1000, buf, 0)
	for _, b := range buf {
		if b != 0 {
			t.Fatal("uninitialized memory not zero")
		}
	}
	if res.Latency <= 0 || res.L2Misses != 1 {
		t.Fatalf("res = %+v", res)
	}
}

func TestWriteThenReadSameTile(t *testing.T) {
	c := newCluster(t, testConfig(2))
	n := c.nodes[0]
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	n.Write(0x2000, want, 0)
	got := make([]byte, 8)
	n.Read(0x2000, got, 100)
	if !bytes.Equal(got, want) {
		t.Fatalf("read back %v, want %v", got, want)
	}
}

func TestHitFasterThanMiss(t *testing.T) {
	c := newCluster(t, testConfig(4))
	n := c.nodes[0]
	buf := make([]byte, 8)
	miss := n.Read(0x3000, buf, 0)
	hit := n.Read(0x3000, buf, miss.Latency)
	if hit.Latency >= miss.Latency {
		t.Fatalf("hit (%d) not faster than miss (%d)", hit.Latency, miss.Latency)
	}
	if hit.L2Misses != 0 {
		t.Fatal("second read missed")
	}
}

func TestCrossTileSharing(t *testing.T) {
	c := newCluster(t, testConfig(4))
	want := []byte("hello, tile one!")
	c.nodes[0].Write(0x4000, want, 0)
	got := make([]byte, len(want))
	c.nodes[1].Read(0x4000, got, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("tile 1 read %q, want %q", got, want)
	}
	// Now both share; tile 0 still reads its data.
	got0 := make([]byte, len(want))
	c.nodes[0].Read(0x4000, got0, 1000)
	if !bytes.Equal(got0, want) {
		t.Fatal("tile 0 lost its copy's data")
	}
}

func TestWriteInvalidatesSharers(t *testing.T) {
	c := newCluster(t, testConfig(4))
	addr := arch.Addr(0x5000)
	c.nodes[0].Write(addr, []byte{1}, 0)
	buf := make([]byte, 1)
	c.nodes[1].Read(addr, buf, 0)
	c.nodes[2].Read(addr, buf, 0)
	// Tile 0 writes again: tiles 1 and 2 must be invalidated and re-read
	// the new value.
	c.nodes[0].Write(addr, []byte{42}, 1000)
	c.nodes[1].Read(addr, buf, 2000)
	if buf[0] != 42 {
		t.Fatalf("tile 1 read stale %d", buf[0])
	}
	c.nodes[2].Read(addr, buf, 2000)
	if buf[0] != 42 {
		t.Fatalf("tile 2 read stale %d", buf[0])
	}
}

func TestOwnershipMigration(t *testing.T) {
	c := newCluster(t, testConfig(4))
	addr := arch.Addr(0x6000)
	// The line's M ownership migrates 0 -> 1 -> 2 -> 3, each adding one.
	c.nodes[0].Write(addr, []byte{1}, 0)
	for i := 1; i < 4; i++ {
		buf := make([]byte, 1)
		c.nodes[i].Read(addr, buf, 0)
		buf[0]++
		c.nodes[i].Write(addr, buf, 100)
	}
	got := make([]byte, 1)
	c.nodes[0].Read(addr, got, 10_000)
	if got[0] != 4 {
		t.Fatalf("after migration chain, value = %d, want 4", got[0])
	}
}

func TestUpgradePath(t *testing.T) {
	c := newCluster(t, testConfig(2))
	addr := arch.Addr(0x7000)
	n := c.nodes[0]
	buf := make([]byte, 8)
	n.Read(addr, buf, 0) // S copy
	n.Write(addr, []byte{9, 9, 9, 9, 9, 9, 9, 9}, 100)
	st := n.Stats()
	if st.Upgrades != 1 {
		t.Fatalf("upgrades = %d, want 1", st.Upgrades)
	}
	n.Read(addr, buf, 200)
	if buf[0] != 9 {
		t.Fatal("upgrade lost the write")
	}
}

func TestEvictionWritebackSurvives(t *testing.T) {
	c := newCluster(t, testConfig(2))
	n := c.nodes[0]
	// Write far more lines than the 4 KB L2 holds; every value must
	// survive eviction writebacks.
	const lines = 256
	for i := 0; i < lines; i++ {
		addr := arch.Addr(0x10000 + i*64)
		var v [8]byte
		binary.LittleEndian.PutUint64(v[:], uint64(i)+1)
		n.Write(addr, v[:], arch.Cycles(i*10))
	}
	for i := 0; i < lines; i++ {
		addr := arch.Addr(0x10000 + i*64)
		var v [8]byte
		n.Read(addr, v[:], 1_000_000)
		if got := binary.LittleEndian.Uint64(v[:]); got != uint64(i)+1 {
			t.Fatalf("line %d: read %d, want %d", i, got, i+1)
		}
	}
	st := n.Stats()
	if st.L2Writebacks == 0 {
		t.Fatal("no writebacks despite capacity pressure")
	}
}

func TestFlushAllThenPeek(t *testing.T) {
	c := newCluster(t, testConfig(4))
	want := []byte("persisted through flush")
	c.nodes[2].Write(0x8000, want, 0)
	c.nodes[2].FlushAll(1000)
	got := make([]byte, len(want))
	c.nodes[0].Peek(0x8000, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("peek after flush = %q, want %q", got, want)
	}
}

func TestPokeVisibleThroughCaches(t *testing.T) {
	c := newCluster(t, testConfig(4))
	want := []byte{7, 7, 7, 7}
	c.nodes[0].Poke(0x9000, want)
	got := make([]byte, 4)
	c.nodes[3].Read(0x9000, got, 0)
	if !bytes.Equal(got, want) {
		t.Fatalf("read after poke = %v", got)
	}
}

func TestLineStraddlingAccess(t *testing.T) {
	c := newCluster(t, testConfig(2))
	n := c.nodes[0]
	// 16 bytes starting 8 bytes before a line boundary.
	addr := arch.Addr(0xA000 + 64 - 8)
	want := []byte("0123456789abcdef")
	n.Write(addr, want, 0)
	got := make([]byte, 16)
	n.Read(addr, got, 100)
	if !bytes.Equal(got, want) {
		t.Fatalf("straddling read = %q", got)
	}
}

func TestMissClassificationCold(t *testing.T) {
	c := newCluster(t, testConfig(2))
	n := c.nodes[0]
	buf := make([]byte, 8)
	n.Read(0xB000, buf, 0)
	st := n.Stats()
	if st.MissBy[stats.MissCold] != 1 {
		t.Fatalf("cold misses = %d, want 1", st.MissBy[stats.MissCold])
	}
}

func TestMissClassificationCapacity(t *testing.T) {
	c := newCluster(t, testConfig(2))
	n := c.nodes[0]
	buf := make([]byte, 8)
	// Touch enough lines to evict the first, then re-read it.
	const lines = 256
	for i := 0; i < lines; i++ {
		n.Read(arch.Addr(0xC000+i*64), buf, 0)
	}
	n.Read(0xC000, buf, 1_000_000)
	st := n.Stats()
	if st.MissBy[stats.MissCapacity] == 0 {
		t.Fatalf("no capacity miss recorded: %v", st.MissBy)
	}
}

func TestMissClassificationTrueSharing(t *testing.T) {
	c := newCluster(t, testConfig(2))
	addr := arch.Addr(0xD000)
	buf := make([]byte, 8)
	c.nodes[0].Read(addr, buf, 0)      // tile 0 caches word 0
	c.nodes[1].Write(addr, buf, 0)     // tile 1 writes word 0: invalidates tile 0
	c.nodes[0].Read(addr, buf, 10_000) // tile 0 re-reads word 0: true sharing
	st := c.nodes[0].Stats()
	if st.MissBy[stats.MissTrueSharing] != 1 {
		t.Fatalf("true-sharing misses = %d (%v)", st.MissBy[stats.MissTrueSharing], st.MissBy)
	}
}

func TestMissClassificationFalseSharing(t *testing.T) {
	c := newCluster(t, testConfig(2))
	base := arch.Addr(0xE000)
	buf := make([]byte, 8)
	c.nodes[0].Read(base, buf, 0)      // tile 0 reads word 0
	c.nodes[1].Write(base+32, buf, 0)  // tile 1 writes word 4 (same line)
	c.nodes[0].Read(base, buf, 10_000) // tile 0 re-reads word 0: false sharing
	st := c.nodes[0].Stats()
	if st.MissBy[stats.MissFalseSharing] != 1 {
		t.Fatalf("false-sharing misses = %d (%v)", st.MissBy[stats.MissFalseSharing], st.MissBy)
	}
}

func TestDirNBPointerReclaim(t *testing.T) {
	cfg := testConfig(4)
	cfg.Coherence = config.CoherenceConfig{Kind: config.LimitedNB, DirPointers: 1, DirLatency: 10}
	c := newCluster(t, cfg)
	addr := arch.Addr(0xF000)
	buf := make([]byte, 8)
	c.nodes[0].Read(addr, buf, 0)
	c.nodes[1].Read(addr, buf, 0) // evicts tile 0's pointer and copy
	// Tile 0 must re-miss (its copy was invalidated by the reclaim).
	before := c.nodes[0].Stats().L2Misses
	c.nodes[0].Read(addr, buf, 10_000)
	after := c.nodes[0].Stats().L2Misses
	if after != before+1 {
		t.Fatalf("Dir_1NB did not invalidate displaced sharer (misses %d -> %d)", before, after)
	}
}

func TestLimitLESSKeepsAllSharersAndTraps(t *testing.T) {
	cfg := testConfig(8)
	cfg.Coherence = config.CoherenceConfig{Kind: config.LimitLESS, DirPointers: 2, TrapLatency: 100, DirLatency: 10}
	c := newCluster(t, cfg)
	addr := arch.Addr(0x1F000)
	buf := make([]byte, 8)
	for i := 0; i < 8; i++ {
		c.nodes[i].Read(addr, buf, 0)
	}
	// All eight keep their copy: re-reads all hit.
	for i := 0; i < 8; i++ {
		before := c.nodes[i].Stats().L2Misses
		c.nodes[i].Read(addr, buf, 10_000)
		if c.nodes[i].Stats().L2Misses != before {
			t.Fatalf("tile %d lost its copy under LimitLESS", i)
		}
	}
	var traps uint64
	for i := 0; i < 8; i++ {
		traps += c.nodes[i].Stats().DirTraps
	}
	if traps == 0 {
		t.Fatal("no LimitLESS traps for 8 sharers with 2 pointers")
	}
}

func TestRemoteLatencyExceedsLocal(t *testing.T) {
	cfg := testConfig(16)
	c := newCluster(t, cfg)
	buf := make([]byte, 8)
	// Line homed at tile 0 (line 16k*64... choose addr so home==0): line L
	// homes at L % 16 == 0.
	localAddr := arch.Addr(16 * 64 * 100) // line 1600, home 0
	remoteAddr := arch.Addr((16*100 + 15) * 64)
	resLocal := c.nodes[0].Read(localAddr, buf, 0)
	resRemote := c.nodes[0].Read(remoteAddr, buf, 0)
	if resRemote.Latency <= resLocal.Latency {
		t.Fatalf("remote home (%d) not slower than local home (%d)",
			resRemote.Latency, resLocal.Latency)
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	cfg := testConfig(8)
	c := newCluster(t, cfg)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := c.nodes[i]
			base := arch.Addr(0x100000 + i*0x10000)
			for k := 0; k < 200; k++ {
				var v [8]byte
				binary.LittleEndian.PutUint64(v[:], uint64(i*1000+k))
				n.Write(base+arch.Addr(k*64), v[:], arch.Cycles(k))
			}
			for k := 0; k < 200; k++ {
				var v [8]byte
				n.Read(base+arch.Addr(k*64), v[:], 100_000)
				if got := binary.LittleEndian.Uint64(v[:]); got != uint64(i*1000+k) {
					t.Errorf("tile %d line %d: got %d", i, k, got)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

func TestConcurrentSharedCounterCoherence(t *testing.T) {
	// Tiles ping-pong ownership of interleaved words in the same lines.
	// Every tile owns word (tile%8) of each line; after the storm, each
	// word holds its owner's final value — no lost or torn writes.
	cfg := testConfig(4)
	c := newCluster(t, cfg)
	const lines = 16
	const iters = 50
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := c.nodes[i]
			rng := rand.New(rand.NewSource(int64(i)))
			for k := 0; k < iters; k++ {
				line := rng.Intn(lines)
				addr := arch.Addr(0x200000 + line*64 + i*8)
				var v [8]byte
				binary.LittleEndian.PutUint64(v[:], uint64(i+1)*1_000_000+uint64(k))
				n.Write(addr, v[:], arch.Cycles(k*100))
			}
		}(i)
	}
	wg.Wait()
	// Verify: every word belongs to exactly its writer (value prefix).
	for i := 0; i < 4; i++ {
		for line := 0; line < lines; line++ {
			addr := arch.Addr(0x200000 + line*64 + i*8)
			var v [8]byte
			c.nodes[0].Read(addr, v[:], 1_000_000)
			got := binary.LittleEndian.Uint64(v[:])
			if got != 0 && (got < uint64(i+1)*1_000_000 || got >= uint64(i+2)*1_000_000) {
				t.Fatalf("word of tile %d line %d holds foreign value %d", i, line, got)
			}
		}
	}
}

func TestFetchFillsL1I(t *testing.T) {
	cfg := testConfig(2)
	cfg.L1I = config.CacheConfig{Enabled: true, Size: 1 << 10, Assoc: 2, LineSize: 64, HitLatency: 1}
	c := newCluster(t, cfg)
	n := c.nodes[0]
	pc := arch.Addr(0x400000)
	first := n.Fetch(pc, 4, 0)
	second := n.Fetch(pc, 4, first.Latency)
	if second.Latency >= first.Latency {
		t.Fatalf("refetch (%d) not faster than cold fetch (%d)", second.Latency, first.Latency)
	}
	st := n.Stats()
	if st.L1IHits == 0 {
		t.Fatal("no L1I hits")
	}
}

func TestDRAMQueueingContention(t *testing.T) {
	cfg := testConfig(2)
	c := newCluster(t, cfg)
	n := c.nodes[0]
	buf := make([]byte, 8)
	// Repeated same-timestamp misses to lines with the same home build up
	// queueing delay at that home's DRAM controller.
	first := n.Read(arch.Addr(0*2*64), buf, 1000)
	var last AccessResult
	for i := 1; i < 40; i++ {
		last = n.Read(arch.Addr(i*2*64), buf, 1000)
	}
	if last.Latency <= first.Latency {
		t.Fatalf("DRAM queueing did not grow: first %d, last %d", first.Latency, last.Latency)
	}
}

func TestStatsAccounting(t *testing.T) {
	c := newCluster(t, testConfig(2))
	n := c.nodes[0]
	buf := make([]byte, 8)
	// A remotely homed line (line 0x10040>>6 = 1025, home 1025%2 = tile 1),
	// so the miss crosses the network: the local-home shortcut serves
	// locally homed lines without any packets at all.
	n.Read(0x10040, buf, 0)
	n.Write(0x10040, buf, 100)
	st := n.Stats()
	if st.Loads != 1 || st.Stores != 1 {
		t.Fatalf("loads=%d stores=%d", st.Loads, st.Stores)
	}
	if st.MemAccesses == 0 || st.MemLatencyTotal <= 0 {
		t.Fatalf("latency accounting: %d accesses, %d cycles", st.MemAccesses, st.MemLatencyTotal)
	}
	if st.NetPacketsSent == 0 {
		t.Fatal("network counters empty")
	}
}

func TestManyTilesSameLineReadStorm(t *testing.T) {
	cfg := testConfig(16)
	c := newCluster(t, cfg)
	addr := arch.Addr(0x300000)
	c.nodes[0].Write(addr, []byte{99}, 0)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			buf := make([]byte, 1)
			c.nodes[i].Read(addr, buf, 0)
			if buf[0] != 99 {
				t.Errorf("tile %d read %d", i, buf[0])
			}
		}(i)
	}
	wg.Wait()
}

func TestWriteStormOneLine(t *testing.T) {
	cfg := testConfig(8)
	c := newCluster(t, cfg)
	addr := arch.Addr(0x310000)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 25; k++ {
				c.nodes[i].Write(addr+arch.Addr(i), []byte{byte(i)}, arch.Cycles(k))
			}
		}(i)
	}
	wg.Wait()
	// Each byte holds its final writer's value.
	for i := 0; i < 8; i++ {
		var b [1]byte
		c.nodes[0].Read(addr+arch.Addr(i), b[:], 1_000_000)
		if b[0] != byte(i) {
			t.Fatalf("byte %d = %d", i, b[0])
		}
	}
}

func TestMsgNames(t *testing.T) {
	for m := uint8(0); m <= msgPokeAck; m++ {
		if msgName(m) == "" {
			t.Fatal("empty message name")
		}
	}
	if msgName(200) != fmt.Sprintf("msg(%d)", 200) {
		t.Fatal("unknown message name")
	}
}

// TestHitPathZeroAllocAt256Tiles pins the steady-state allocation budget
// of the lock-free hit path at a 256-tile geometry: once a line is cached
// locally, reads and writes must index the structure-of-arrays cache and
// directory state without allocating per access. A regression here turns
// every simulated memory reference into garbage-collector work, which at
// thousand-tile scale dominates the run.
func TestHitPathZeroAllocAt256Tiles(t *testing.T) {
	c := newCluster(t, testConfig(256))
	n := c.nodes[0]
	buf := make([]byte, 8)
	// Warm: the write takes the line Modified in the local L1D, so every
	// access below is a pure hit.
	n.Write(0x9000, buf, 0)
	n.Read(0x9000, buf, 100)
	now := arch.Cycles(200)
	allocs := testing.AllocsPerRun(1000, func() {
		n.Read(0x9000, buf, now)
		n.Write(0x9000, buf, now+1)
		now += 2
	})
	if allocs != 0 {
		t.Fatalf("hit path allocates %.1f objects per access pair, want 0", allocs)
	}
}

// BenchmarkLocalHitPath256 drives the same steady-state hit path for
// profiling (-benchmem / -memprofile should show zero per-access
// allocations).
func BenchmarkLocalHitPath256(b *testing.B) {
	c := newCluster(b, testConfig(256))
	n := c.nodes[0]
	buf := make([]byte, 8)
	n.Write(0x9000, buf, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Read(0x9000, buf, arch.Cycles(i))
	}
}

// BenchmarkRemoteMiss: two tiles write one line in turn, so every write
// finds it Modified at the other tile and is a full remote miss through
// the home — the exchange of benchmark/'s memsys.remote_miss_us fixture.
// It runs with both writers in one shard and with them in two.
func BenchmarkRemoteMiss(b *testing.B) {
	for _, w := range []int{1, 2} {
		b.Run(fmt.Sprintf("shards=%d", w), func(b *testing.B) {
			cfg := config.Default()
			cfg.Tiles = 4
			c := newShardedCluster(b, cfg, w)
			buf := make([]byte, 8)
			now := arch.Cycles(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now += c.nodes[i&1].Write(0xA000, buf, now).Latency
			}
		})
	}
}

// TestAccessAfterTeardownReturns pins the teardown contract a wedged run
// relies on: a core that misses, peeks or pokes for the first time after
// its tile's server has already exited (Cluster.Close racing a thread that
// is still computing) must come back, not wait for a completion nobody is
// left to send.
func TestAccessAfterTeardownReturns(t *testing.T) {
	c := newCluster(t, testConfig(2))
	c.close()
	simtest.Deadline(t, 30*time.Second, func() {
		buf := make([]byte, 8)
		c.nodes[0].Read(0x1040, buf, 0)  // homed remotely
		c.nodes[1].Write(0x1040, buf, 0) // a second tile, a write
		c.nodes[0].Read(0x2080, buf, 10) // and again on the same tile
		c.nodes[0].Peek(0x1040, buf)
		c.nodes[0].Poke(0x1040, buf)
	})
}

// TestShardDrainsClosedNodeThenTearsItDown: a shard serves what a closed
// node's endpoint still holds before it tears that node down, keeps
// serving its other nodes, and returns once every node is down; from
// then on EnqueueCtrl refuses control functions.
func TestShardDrainsClosedNodeThenTearsItDown(t *testing.T) {
	c := newShardedCluster(t, testConfig(3), 1)
	tr := c.fab.Process(0)
	ep, err := tr.Register(transport.LCP(0))
	if err != nil {
		t.Fatal(err)
	}
	ctrl := network.New(arch.TileID(transport.LCP(0)), tr, ep, network.NewModels(&c.cfg, nil), nil)
	ctrl.SetPrimary(network.ClassMemory)
	// Hold the shard inside a control function of tile 0 while a peek of
	// a line homed at tile 2 lands in tile 2's endpoint and tile 2's
	// network closes.
	held, release := make(chan struct{}), make(chan struct{})
	if err := c.nodes[0].EnqueueCtrl(func() {
		close(held)
		<-release
	}); err != nil {
		t.Fatal(err)
	}
	simtest.Deadline(t, 30*time.Second, func() {
		<-held
		peek := encodePeek(nil, peekPayload{addr: 2 * 64, n: 8})
		if _, err := ctrl.Send(network.ClassMemory, msgPeek, 2, 1, peek, 0); err != nil {
			t.Error(err)
		}
		c.nets[2].Close()
		close(release)
		if rep, ok := ctrl.Recv(network.ClassMemory); !ok || rep.Type != msgPeekRep {
			t.Errorf("closed tile's held peek answered with %s (ok=%v), want its PeekRep", msgName(rep.Type), ok)
			return
		}
		<-c.nodes[2].Stopped()

		// Tiles 0 and 1 keep their server: a line homed at tile 1 moves
		// from tile 0's cache to tile 1's.
		c.nodes[0].Write(1*64, []byte{7}, 0)
		got := make([]byte, 1)
		c.nodes[1].Read(1*64, got, 100)
		if got[0] != 7 {
			t.Errorf("tile 1 read %d after tile 0 wrote 7", got[0])
		}
		c.close() // waits for the shard to return
		if err := c.nodes[0].EnqueueCtrl(func() { t.Error("a control function ran after its shard returned") }); err == nil {
			t.Error("EnqueueCtrl accepted a function after the shard returned")
		}
	})
}

// A read that overflows LimitLESS's hardware pointers traps to software,
// and the trap's latency is part of the read's: with two pointers and a
// 100 000-cycle trap, the third, fourth and fifth readers of a line each
// take longer than the trap, and the first two far less.
func TestLimitLESSReadTrapIsCharged(t *testing.T) {
	const trap = 100_000
	cfg := testConfig(8)
	cfg.Coherence = config.CoherenceConfig{Kind: config.LimitLESS, DirPointers: 2, TrapLatency: trap, DirLatency: 10}
	c := newCluster(t, cfg)
	buf := make([]byte, 8)
	for i := 0; i < 5; i++ {
		lat := c.nodes[i].Read(0x1F000, buf, 0).Latency
		if trapped := i >= 2; trapped != (lat > trap) {
			t.Errorf("reader %d: %d cycles with a %d-cycle trap (overflows the pointers: %v)", i+1, lat, trap, trapped)
		}
	}
	var traps uint64
	for _, n := range c.nodes {
		traps += n.Stats().DirTraps
	}
	if traps != 3 {
		t.Fatalf("traps = %d, want 3", traps)
	}
}
