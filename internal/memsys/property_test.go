package memsys

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/config"
	"repro/internal/stats"
)

// TestSingleTileVsReferenceModel drives one tile with a long random
// load/store sequence and cross-checks every load against a plain map —
// the memory system (caches, evictions, writebacks, protocol) must be
// functionally invisible.
func TestSingleTileVsReferenceModel(t *testing.T) {
	cfg := testConfig(2)
	// Tiny caches maximize eviction/refill traffic.
	cfg.L1D = config.CacheConfig{Enabled: true, Size: 512, Assoc: 2, LineSize: 64, HitLatency: 1}
	cfg.L2 = config.CacheConfig{Enabled: true, Size: 2 << 10, Assoc: 2, LineSize: 64, HitLatency: 8}
	c := newCluster(t, cfg)
	n := c.nodes[0]
	ref := make(map[arch.Addr]byte)
	rng := rand.New(rand.NewSource(7))
	const region = 1 << 14 // 16 KB working set over 2 KB of cache
	for op := 0; op < 4000; op++ {
		addr := arch.Addr(0x40000 + rng.Intn(region))
		size := 1 << rng.Intn(4) // 1, 2, 4, 8 bytes
		if addr%arch.Addr(size) != 0 {
			addr &^= arch.Addr(size - 1) // align
		}
		if rng.Intn(2) == 0 {
			buf := make([]byte, size)
			rng.Read(buf)
			n.Write(addr, buf, arch.Cycles(op))
			for i, b := range buf {
				ref[addr+arch.Addr(i)] = b
			}
		} else {
			buf := make([]byte, size)
			n.Read(addr, buf, arch.Cycles(op))
			for i, b := range buf {
				if want := ref[addr+arch.Addr(i)]; b != want {
					t.Fatalf("op %d: read %#x+%d = %d, want %d", op, uint64(addr), i, b, want)
				}
			}
		}
	}
}

// TestMultiTileDisjointVsReference runs the same property from four tiles
// over disjoint regions concurrently.
func TestMultiTileDisjointVsReference(t *testing.T) {
	cfg := testConfig(4)
	c := newCluster(t, cfg)
	var wg sync.WaitGroup
	for tile := 0; tile < 4; tile++ {
		wg.Add(1)
		go func(tile int) {
			defer wg.Done()
			n := c.nodes[tile]
			ref := make(map[arch.Addr]uint64)
			rng := rand.New(rand.NewSource(int64(tile)))
			base := arch.Addr(0x100000 * (tile + 1))
			for op := 0; op < 1500; op++ {
				addr := base + arch.Addr(rng.Intn(1<<12))&^7
				if rng.Intn(2) == 0 {
					v := rng.Uint64()
					var b [8]byte
					binary.LittleEndian.PutUint64(b[:], v)
					n.Write(addr, b[:], arch.Cycles(op))
					ref[addr] = v
				} else {
					var b [8]byte
					n.Read(addr, b[:], arch.Cycles(op))
					if got := binary.LittleEndian.Uint64(b[:]); got != ref[addr] {
						t.Errorf("tile %d op %d: %#x = %d, want %d", tile, op, uint64(addr), got, ref[addr])
						return
					}
				}
			}
		}(tile)
	}
	wg.Wait()
}

// TestReaderSeesLatestWriterChain: a chain of writers each reading the
// previous value and writing a derived one exercises M-ownership
// migration with interleaved sharers; the final value proves no write was
// lost or reordered.
func TestReaderSeesLatestWriterChain(t *testing.T) {
	cfg := testConfig(4)
	c := newCluster(t, cfg)
	addr := arch.Addr(0x77000)
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], 1)
	c.nodes[0].Write(addr, b[:], 0)
	for round := 0; round < 30; round++ {
		writer := c.nodes[(round+1)%4]
		reader := c.nodes[(round+2)%4]
		// Reader takes an S copy first (forcing the writer to upgrade
		// through an invalidation).
		reader.Read(addr, b[:], arch.Cycles(round*100))
		writer.Read(addr, b[:], arch.Cycles(round*100))
		v := binary.LittleEndian.Uint64(b[:])
		binary.LittleEndian.PutUint64(b[:], v*3+1)
		writer.Write(addr, b[:], arch.Cycles(round*100+50))
	}
	c.nodes[3].Read(addr, b[:], 1_000_000)
	want := uint64(1)
	for round := 0; round < 30; round++ {
		want = want*3 + 1
	}
	if got := binary.LittleEndian.Uint64(b[:]); got != want {
		t.Fatalf("chain result %d, want %d", got, want)
	}
}

// TestDowngradeKeepsSharedCopy: after another tile reads a Modified line,
// the former owner must retain a readable S copy (no invalidation on
// read sharing).
func TestDowngradeKeepsSharedCopy(t *testing.T) {
	c := newCluster(t, testConfig(2))
	addr := arch.Addr(0x88000)
	c.nodes[0].Write(addr, []byte{5}, 0)
	buf := make([]byte, 1)
	c.nodes[1].Read(addr, buf, 0) // downgrades tile 0 to S
	missesBefore := c.nodes[0].Stats().L2Misses
	c.nodes[0].Read(addr, buf, 1000)
	if c.nodes[0].Stats().L2Misses != missesBefore {
		t.Fatal("former owner lost its copy on downgrade")
	}
	if buf[0] != 5 {
		t.Fatal("data corrupted by downgrade")
	}
}

// TestEvictionNotifiesDirectory: after a sharer's clean eviction, a write
// by another tile must not send it an invalidation.
func TestEvictionNotifiesDirectory(t *testing.T) {
	cfg := testConfig(2)
	// Direct-mapped-ish tiny L2 to force the eviction deterministically.
	cfg.L1D = config.CacheConfig{Enabled: false}
	cfg.L2 = config.CacheConfig{Enabled: true, Size: 512, Assoc: 1, LineSize: 64, HitLatency: 8}
	c := newCluster(t, cfg)
	buf := make([]byte, 8)
	target := arch.Addr(0x10000) // line 0x400, maps to set (0x400 % 8)
	c.nodes[1].Read(target, buf, 0)
	// Evict it from tile 1 by reading another line in the same set
	// (same set index: add 8 lines * 64B = 512).
	c.nodes[1].Read(target+512, buf, 100)
	// Tile 0 writes the target line: no sharers should remain.
	c.nodes[0].Write(target, buf, 1000)
	st0 := c.nodes[0].Stats()
	st1 := c.nodes[1].Stats()
	total := st0.InvSent + st1.InvSent
	if total != 0 {
		t.Fatalf("%d invalidations sent despite clean eviction notification", total)
	}
}

// TestWriteMaskTracksWords: the accumulated write mask travels with
// writebacks so later sharing misses classify correctly even when the
// conflicting words were written after the initial GetX.
func TestWriteMaskTracksWords(t *testing.T) {
	c := newCluster(t, testConfig(2))
	base := arch.Addr(0x99000)
	buf := make([]byte, 8)
	c.nodes[0].Read(base+16, buf, 0) // tile 0 caches word 2
	// Tile 1 takes M via word 0, then also writes word 2 while M.
	c.nodes[1].Write(base, buf, 0)
	c.nodes[1].Write(base+16, buf, 10)
	// Tile 0 re-reads word 2: the writer's accumulated mask covers word
	// 2, so this must classify as true sharing.
	c.nodes[0].Read(base+16, buf, 10_000)
	st := c.nodes[0].Stats()
	if st.MissBy[stats.MissTrueSharing] != 1 {
		t.Fatalf("mask did not accumulate: %v", st.MissBy)
	}
}

// TestLockFreeHitPathUnderInvalidationStorm hammers one tile's lock-free
// hit path while remote tiles concurrently force invalidations, flushes,
// and upgrade demotions of the very same lines (each tile owns one 8-byte
// word per line, remote tiles write — and sometimes first read, forcing
// S-copy upgrades — their words). Run under -race this is the memory-model
// check of the single-writer ownership protocol (DESIGN.md §13); the
// assertions check that no write is lost or torn and that the core-owned
// hit/miss counters stay exact:
//
//   - tile 0 reads back exactly what it wrote, every iteration, even when
//     the line was invalidated or downgraded in between;
//   - Loads/Stores equal the issued operation counts;
//   - every load consults the L1D exactly once (L1DHits+L1DMisses ==
//     Loads) and the L2 is consulted exactly once per store and per L1D
//     miss — identities that would be violated if an intervention ever
//     raced the hit path into a double count or a lost one.
//
// It runs in every shard layout: a shard serving several of the four
// tiles must keep all of this while it interleaves their traffic.
func TestLockFreeHitPathUnderInvalidationStorm(t *testing.T) {
	inShardLayouts(t, testConfig(4), invalidationStorm)
}

func invalidationStorm(t *testing.T, c *cluster) {
	const lines = 8
	const iters = 300
	base := arch.Addr(0x500000)
	var wg sync.WaitGroup
	for tile := 1; tile < 4; tile++ {
		wg.Add(1)
		go func(tile int) {
			defer wg.Done()
			n := c.nodes[tile]
			rng := rand.New(rand.NewSource(int64(tile) * 9973))
			var b [8]byte
			for k := 0; k < iters; k++ {
				line := rng.Intn(lines)
				addr := base + arch.Addr(line*64+tile*8)
				if rng.Intn(3) == 0 {
					// Take a Shared copy first so the write becomes an
					// upgrade — which a concurrent writer can demote.
					n.Read(addr, b[:], arch.Cycles(k))
				}
				binary.LittleEndian.PutUint64(b[:], uint64(tile)<<32|uint64(k+1))
				n.Write(addr, b[:], arch.Cycles(k))
			}
		}(tile)
	}
	var loads, stores uint64
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := c.nodes[0]
		var b [8]byte
		for k := 0; k < 4*iters; k++ {
			addr := base + arch.Addr((k%lines)*64)
			binary.LittleEndian.PutUint64(b[:], uint64(k))
			n.Write(addr, b[:], arch.Cycles(k))
			stores++
			n.Read(addr, b[:], arch.Cycles(k))
			loads++
			if got := binary.LittleEndian.Uint64(b[:]); got != uint64(k) {
				t.Errorf("iter %d: read back %d, want %d", k, got, k)
				return
			}
		}
	}()
	wg.Wait()

	st := c.nodes[0].Stats()
	if st.Loads != loads || st.Stores != stores {
		t.Fatalf("counters loads=%d stores=%d, issued %d/%d", st.Loads, st.Stores, loads, stores)
	}
	if st.L1DHits+st.L1DMisses != st.Loads {
		t.Fatalf("L1D consults %d+%d != loads %d", st.L1DHits, st.L1DMisses, st.Loads)
	}
	if st.L2Hits+st.L2Misses != st.Stores+st.L1DMisses {
		t.Fatalf("L2 consults %d+%d != stores %d + L1D misses %d",
			st.L2Hits, st.L2Misses, st.Stores, st.L1DMisses)
	}
	// Every tile's final word values: tile 0's word holds its last write,
	// remote words carry their writer's tag (or were never written).
	var b [8]byte
	for line := 0; line < lines; line++ {
		c.nodes[0].Read(base+arch.Addr(line*64), b[:], 1_000_000)
		// The last write to this line by tile 0 was the largest k < 4*iters
		// with k%lines == line.
		if got, want := binary.LittleEndian.Uint64(b[:]), uint64(4*iters-lines+line); got != want {
			t.Fatalf("line %d word 0 = %d, want %d", line, got, want)
		}
		for tile := 1; tile < 4; tile++ {
			c.nodes[0].Read(base+arch.Addr(line*64+tile*8), b[:], 1_000_000)
			if got := binary.LittleEndian.Uint64(b[:]); got != 0 && got>>32 != uint64(tile) {
				t.Fatalf("line %d word of tile %d holds foreign value %#x", line, tile, got)
			}
		}
	}
}

// TestManySharerInvalidationStormSoA exercises the structure-of-arrays
// directory beyond one sharer word: 72 tiles (a two-word full-map bit
// vector) all read the same line concurrently, then one writer upgrades
// and must invalidate every other sharer found by the stride-2 bitset
// walk. Under -race the concurrent readers hammer the SoA cache handles
// and the home's shared directory store; the exact invalidation count
// proves no sharer bit in either word is lost or double-counted across
// rounds, in every shard layout.
func TestManySharerInvalidationStormSoA(t *testing.T) {
	inShardLayouts(t, testConfig(72), manySharerStorm)
}

func manySharerStorm(t *testing.T, c *cluster) {
	const tiles = 72
	const rounds = 20
	addr := arch.Addr(0x660000)
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for tile := 0; tile < tiles; tile++ {
			wg.Add(1)
			go func(tile int) {
				defer wg.Done()
				var b [8]byte
				c.nodes[tile].Read(addr, b[:], arch.Cycles(r*100))
				if got := binary.LittleEndian.Uint64(b[:]); got != uint64(r) {
					t.Errorf("round %d tile %d read %d", r, tile, got)
				}
			}(tile)
		}
		wg.Wait()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(r+1))
		c.nodes[0].Write(addr, b[:], arch.Cycles(r*100+50))
	}
	var invs uint64
	for _, n := range c.nodes {
		invs += n.Stats().InvSent
	}
	// Every round all 72 tiles hold S copies when tile 0 upgrades: 71
	// invalidations, every one discovered in the two-word sharer vector.
	if want := uint64(rounds * (tiles - 1)); invs != want {
		t.Fatalf("invalidations sent = %d, want %d", invs, want)
	}
}

// TestPeekPokeStraddlesLines exercises the functional path across line
// and home boundaries.
func TestPeekPokeStraddlesLines(t *testing.T) {
	c := newCluster(t, testConfig(4))
	data := bytes.Repeat([]byte{0xA5, 0x5A}, 100) // 200 bytes over 4 lines
	addr := arch.Addr(0xAB000 + 32)               // unaligned start
	c.nodes[0].Poke(addr, data)
	got := make([]byte, len(data))
	c.nodes[2].Peek(addr, got)
	if !bytes.Equal(got, data) {
		t.Fatal("straddling peek/poke mismatch")
	}
}

// TestFlushAllIdempotent: flushing twice (second time with cold caches)
// must be harmless.
func TestFlushAllIdempotent(t *testing.T) {
	c := newCluster(t, testConfig(2))
	n := c.nodes[0]
	n.Write(0xCC000, []byte{1, 2, 3}, 0)
	n.FlushAll(100)
	n.FlushAll(200)
	got := make([]byte, 3)
	n.Peek(0xCC000, got)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatal("double flush lost data")
	}
}

// TestLineAddrHomeStability: the home of a line must be a pure function
// of the address (no drift across nodes).
func TestLineAddrHomeStability(t *testing.T) {
	cfg := testConfig(4)
	c := newCluster(t, cfg)
	for _, addr := range []arch.Addr{0, 64, 4096, 0xFFFFC0} {
		line := c.nodes[0].lineOf(addr)
		h0 := c.nodes[0].homeOf(line)
		h3 := c.nodes[3].homeOf(line)
		if h0 != h3 {
			t.Fatalf("home of %#x differs across nodes: %v vs %v", uint64(addr), h0, h3)
		}
		if h0 != cfg.HomeTile(addr) {
			t.Fatalf("node home %v != config home %v", h0, cfg.HomeTile(addr))
		}
	}
	_ = cache.LineAddr(0)
}
