package cache

import (
	"bytes"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/config"
)

func testCfg(size, assoc, line int) config.CacheConfig {
	return config.CacheConfig{Enabled: true, Size: size, Assoc: assoc, LineSize: line, HitLatency: 3}
}

func TestLookupMissThenHit(t *testing.T) {
	c := New(testCfg(1024, 2, 64))
	if _, ok := c.Lookup(5); ok {
		t.Fatal("hit in empty cache")
	}
	data := bytes.Repeat([]byte{0xAB}, 64)
	c.Insert(5, Shared, data)
	ln, ok := c.Lookup(5)
	if !ok {
		t.Fatal("miss after insert")
	}
	if ln.State() != Shared || !bytes.Equal(ln.Data(), data) {
		t.Fatalf("bad line: state=%v", ln.State())
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("counters: hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestInsertCopiesData(t *testing.T) {
	c := New(testCfg(1024, 2, 64))
	data := make([]byte, 64)
	data[0] = 1
	c.Insert(1, Modified, data)
	data[0] = 99 // caller reuses its buffer
	if ln, ok := c.Peek(1); !ok || ln.Data()[0] != 1 {
		t.Fatal("cache aliased caller's buffer")
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 64 B lines, 256 B total -> 2 sets. Lines 0,2,4 map to set 0.
	c := New(testCfg(256, 2, 64))
	zero := make([]byte, 64)
	c.Insert(0, Shared, zero)
	c.Insert(2, Shared, zero)
	c.Lookup(0) // make line 2 the LRU
	victim, evicted := c.Insert(4, Shared, zero)
	if !evicted {
		t.Fatal("no eviction from full set")
	}
	if victim.Addr != 2 {
		t.Fatalf("evicted line %d, want LRU line 2", victim.Addr)
	}
	if _, ok := c.Peek(0); !ok {
		t.Fatal("line 0 missing after eviction")
	}
	if _, ok := c.Peek(4); !ok {
		t.Fatal("line 4 missing after eviction")
	}
	if _, ok := c.Peek(2); ok {
		t.Fatal("evicted line 2 still resident")
	}
}

func TestInsertNeverDuplicatesLine(t *testing.T) {
	c := New(testCfg(256, 2, 64))
	zero := make([]byte, 64)
	// Fill slot 1 of set 0, leave slot 0 invalid, then re-insert line 2:
	// the existing copy must be upgraded, not duplicated into the empty slot.
	c.Insert(2, Shared, zero)
	c.Insert(0, Shared, zero)
	c.Invalidate(0)
	c.Insert(2, Modified, zero)
	count := 0
	c.ForEach(func(l Line) {
		if l.Addr() == 2 {
			count++
			if l.State() != Modified {
				t.Fatalf("upgrade lost: %v", l.State())
			}
		}
	})
	if count != 1 {
		t.Fatalf("line duplicated %d times", count)
	}
}

func TestUpgradePreservesDirtyAndMask(t *testing.T) {
	c := New(testCfg(256, 2, 64))
	zero := make([]byte, 64)
	c.Insert(2, Modified, zero)
	ln, _ := c.Peek(2)
	ln.SetDirty(true)
	ln.setWriteMask(0b1010)
	c.Insert(2, Modified, zero) // refill in place
	ln, _ = c.Peek(2)
	if !ln.Dirty() || ln.WriteMask() != 0b1010 {
		t.Fatalf("in-place refill dropped dirty/mask: %v %b", ln.Dirty(), ln.WriteMask())
	}
}

func TestInvalidate(t *testing.T) {
	c := New(testCfg(256, 2, 64))
	data := bytes.Repeat([]byte{7}, 64)
	c.Insert(3, Modified, data)
	v, ok := c.Invalidate(3)
	if !ok || !bytes.Equal(v.Data, data) || v.State != Modified {
		t.Fatalf("invalidate returned %v %v", ok, v.State)
	}
	if _, ok := c.Peek(3); ok {
		t.Fatal("line still present")
	}
	if _, ok := c.Invalidate(3); ok {
		t.Fatal("double invalidate reported present")
	}
}

func TestDowngrade(t *testing.T) {
	c := New(testCfg(256, 2, 64))
	c.Insert(3, Modified, make([]byte, 64))
	ln, _ := c.Peek(3)
	ln.SetDirty(true)
	ln.setWriteMask(5)
	got, ok := c.Downgrade(3)
	if !ok || got.State() != Shared || got.Dirty() || got.WriteMask() != 0 {
		t.Fatalf("downgrade: state=%v dirty=%v mask=%b ok=%v", got.State(), got.Dirty(), got.WriteMask(), ok)
	}
	if _, ok := c.Downgrade(99); ok {
		t.Fatal("downgraded absent line")
	}
}

func TestWritebackCounter(t *testing.T) {
	c := New(testCfg(128, 1, 64)) // direct-mapped, 2 sets
	c.Insert(0, Modified, make([]byte, 64))
	ln, _ := c.Peek(0)
	ln.SetDirty(true)
	_, evicted := c.Insert(2, Shared, make([]byte, 64)) // same set as line 0
	if !evicted {
		t.Fatal("expected eviction")
	}
	if c.Writebacks != 1 {
		t.Fatalf("writebacks = %d", c.Writebacks)
	}
}

func TestLineAddrConversion(t *testing.T) {
	c := New(testCfg(1024, 2, 64))
	if c.Base(3) != 192 {
		t.Fatalf("Base(3) = %d", c.Base(3))
	}
	if c.LineBits() != 6 {
		t.Fatalf("LineBits = %d", c.LineBits())
	}
}

func TestOccupancyAndForEach(t *testing.T) {
	c := New(testCfg(1024, 2, 64))
	if c.occupancy() != 0 {
		t.Fatal("empty cache occupied")
	}
	for i := LineAddr(0); i < 5; i++ {
		c.Insert(i, Shared, make([]byte, 64))
	}
	if c.occupancy() != 5 {
		t.Fatalf("occupancy = %d", c.occupancy())
	}
	seen := map[LineAddr]bool{}
	c.ForEach(func(l Line) { seen[l.Addr()] = true })
	if len(seen) != 5 {
		t.Fatalf("ForEach visited %d lines", len(seen))
	}
}

func TestReleaseRecyclesStorage(t *testing.T) {
	cfg := testCfg(1024, 2, 64)
	c := New(cfg)
	c.Insert(7, Modified, bytes.Repeat([]byte{0xEE}, 64))
	c.Release()
	// A fresh instance of the same geometry must start empty even if it
	// reuses the released arrays.
	c2 := New(cfg)
	if c2.occupancy() != 0 {
		t.Fatalf("recycled cache not empty: occupancy=%d", c2.occupancy())
	}
	if _, ok := c2.Peek(7); ok {
		t.Fatal("stale line visible after recycle")
	}
}

func TestWordMask(t *testing.T) {
	if m := WordMask(0, 8, 64); m != 1 {
		t.Fatalf("first word mask = %b", m)
	}
	if m := WordMask(0, 4, 64); m != 1 {
		t.Fatalf("sub-word mask = %b", m)
	}
	if m := WordMask(8, 8, 64); m != 2 {
		t.Fatalf("second word mask = %b", m)
	}
	if m := WordMask(4, 8, 64); m != 3 {
		t.Fatalf("straddling mask = %b", m)
	}
	if m := WordMask(0, 64, 64); m != 0xFF {
		t.Fatalf("full 64B line mask = %b", m)
	}
	if m := WordMask(0, 0, 64); m != 0 {
		t.Fatalf("empty mask = %b", m)
	}
	if m := WordMask(0, 1, 1024); m != ^uint64(0) {
		t.Fatal("oversize lines must saturate")
	}
	if m := WordMask(248, 8, 256); m != 1<<31 {
		t.Fatalf("256B line last word = %b", m)
	}
}

func TestCacheNeverExceedsCapacityQuick(t *testing.T) {
	c := New(testCfg(512, 2, 64)) // 8 lines max
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			c.Insert(LineAddr(a), Shared, make([]byte, 64))
		}
		return c.occupancy() <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLookupAfterManyInsertsFindsLatestData(t *testing.T) {
	c := New(testCfg(512, 2, 64))
	f := func(addr uint8, v1, v2 byte) bool {
		l := LineAddr(addr)
		d := make([]byte, 64)
		d[0] = v1
		c.Insert(l, Modified, d)
		d[0] = v2
		c.Insert(l, Modified, d)
		ln, ok := c.Peek(l)
		return ok && ln.Data()[0] == v2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheFillsItsCacheLines(t *testing.T) {
	// The padding in Cache is sized by hand; a new field must shrink it,
	// not push the struct back into a size class whose objects share host
	// cache lines with a neighbouring cache.
	if size := unsafe.Sizeof(Cache{}); size != 320 {
		t.Fatalf("Cache is %d bytes, want 320 (adjust the padding)", size)
	}
}
