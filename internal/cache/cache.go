// Package cache implements the set-associative caches of the target memory
// hierarchy (paper §3.2). Following Graphite's design, the cache is both a
// timing model and the functional store: lines carry real data bytes, and
// the application's loads and stores are served from them. A simulation
// that produces correct program output therefore certifies the coherence
// protocol built on top.
//
// Storage is structure-of-arrays: per-slot metadata (tag, state, dirty,
// write mask, LRU stamp) lives in parallel slices and the payload bytes in
// one contiguous buffer, all indexed by set×assoc+way. A set lookup walks
// a short contiguous run of tags instead of chasing per-line pointers,
// which is what keeps lookups cheap when a single host process simulates
// hundreds or thousands of tiles. Line is a lightweight handle (cache
// pointer + slot index) over that storage.
//
// An invalid slot's tag is a sentinel no line address can take
// (invalidTag), kept so by New, Invalidate and Restore, also over pooled
// arrays that hold a prior run's tags. A tag match alone then means a
// valid copy: Lookup, Peek, Downgrade and Invalidate read one array, and
// Insert finds an existing copy, the first free slot and the LRU victim
// in one pass over the tags and stamps.
//
// Every simulated load writes a cache's tick and hit counter, so the
// Cache struct is padded to a size class whose objects start on host
// cache-line boundaries (see Cache).
package cache

import (
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/config"
)

// State is the MSI coherence state of a line at the coherence point (L2).
type State uint8

const (
	// Invalid means the line is not present.
	Invalid State = iota
	// Shared means a clean, read-only copy.
	Shared
	// Modified means an exclusive, writable, possibly dirty copy.
	Modified
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// LineAddr is a cache-line-granular address: Addr >> log2(lineSize).
type LineAddr uint64

// Line is a handle to one resident cache slot: a cache pointer plus a slot
// index into the structure-of-arrays storage. Handles are values; copying
// one copies the reference, not the line. A handle stays valid until the
// slot's occupant changes (an Insert landing in the slot or an Invalidate
// of the line); the single-writer ownership rules in internal/memsys
// guarantee no concurrent mutation in between.
type Line struct {
	c   *Cache
	idx int32
}

// Addr returns the line address.
func (h Line) Addr() LineAddr { return h.c.addrs[h.idx] }

// State returns the MSI state.
func (h Line) State() State { return h.c.states[h.idx] }

// SetState sets the MSI state: Shared or Modified. A line leaves the
// cache only through Invalidate, which also retires its tag.
func (h Line) SetState(s State) {
	if s == Invalid {
		panic("cache: SetState(Invalid); use Invalidate")
	}
	h.c.states[h.idx] = s
}

// Dirty reports whether Data differs from the home memory copy.
func (h Line) Dirty() bool { return h.c.dirtys[h.idx] }

// SetDirty sets the dirty flag.
func (h Line) SetDirty(d bool) { h.c.dirtys[h.idx] = d }

// WriteMask returns the 8-byte-word write mask accumulated while the line
// was held Modified; it feeds true/false-sharing classification.
func (h Line) WriteMask() uint64 { return h.c.masks[h.idx] }

// setWriteMask replaces the write mask.
func (h Line) setWriteMask(m uint64) { h.c.masks[h.idx] = m }

// OrWriteMask accumulates bits into the write mask.
func (h Line) OrWriteMask(m uint64) { h.c.masks[h.idx] |= m }

// Data returns the line payload (lineSize bytes), a slice into the cache's
// contiguous data buffer.
func (h Line) Data() []byte {
	off := int(h.idx) * h.c.lineSize
	return h.c.data[off : off+h.c.lineSize : off+h.c.lineSize]
}

// Victim is a snapshot of a line leaving the cache (eviction or
// invalidation). Data points into cache-owned storage — the shared victim
// scratch buffer for Insert evictions, the slot itself for Invalidate —
// and is valid only until the next Insert touching that storage; callers
// must consume it (typically by encoding a writeback) first. An Insert
// eviction copies the bytes only for a Modified victim, the only kind
// whose data anyone writes back: a Shared victim's Data is nil.
type Victim struct {
	Addr      LineAddr
	State     State
	Dirty     bool
	WriteMask uint64
	Data      []byte
}

// Cache is one set-associative cache array with LRU replacement. It is not
// internally synchronized: the owning core context serializes access (see
// the single-writer ownership rules in internal/memsys and DESIGN.md §13).
//
// A tile's caches are allocated side by side and every hit writes tick
// and Hits, so the struct is padded to 320 bytes, a size class whose
// objects start on cache-line boundaries. At 280 bytes (the 288-byte
// class) one tile's L2 shared a host line with the next tile's L1I, and
// the two tiles' shards bounced it between host CPUs.
type Cache struct {
	cfg      config.CacheConfig
	setMask  uint64
	lineBits uint
	assoc    int
	lineSize int
	tick     uint64

	// Structure-of-arrays slot storage, indexed by set*assoc+way.
	addrs  []LineAddr
	states []State
	dirtys []bool
	masks  []uint64
	lrus   []uint64
	data   []byte // slots*lineSize contiguous payload bytes

	// victimBuf backs the Data slice of victims returned by Insert on
	// eviction, so the steady state allocates nothing: the evicted slot
	// keeps its storage for the incoming line and the victim's bytes are
	// copied here. One buffer suffices because victims are consumed
	// (encoded into a writeback message) before the next Insert.
	victimBuf []byte

	// Statistics.
	Hits, Misses, Evictions, Writebacks uint64

	_ [40]byte // to 320 bytes (see above)
}

// invalidTag is the tag of every invalid slot. A line address is a byte
// address shifted right by the line bits, so it never reaches it (Insert
// refuses it).
const invalidTag = ^LineAddr(0)

// lineArrays bundles one geometry's slot storage for pooling.
type lineArrays struct {
	addrs  []LineAddr
	states []State
	dirtys []bool
	masks  []uint64
	lrus   []uint64
	data   []byte
}

// linePools recycles slot storage — including the contiguous data
// buffer — across cache instances of the same geometry. Sweep-style
// workloads construct thousands of short-lived simulator instances; the
// slot arrays are the single largest construction allocation, and
// recycling them turns that recurring garbage (and the GC churn it causes
// between runs) into a handful of long-lived arrays.
var linePools sync.Map // packed geometry key -> *sync.Pool

func linePool(lines, lineSize int) *sync.Pool {
	key := uint64(lines)<<16 | uint64(lineSize)
	if p, ok := linePools.Load(key); ok {
		return p.(*sync.Pool)
	}
	p, _ := linePools.LoadOrStore(key, &sync.Pool{})
	return p.(*sync.Pool)
}

// New builds a cache from a validated configuration. It panics on invalid
// geometry; configs must be validated at simulation start.
func New(cfg config.CacheConfig) *Cache {
	if err := cfg.Validate("cache"); err != nil {
		panic(err)
	}
	if !cfg.Enabled {
		panic("cache: New called for disabled cache")
	}
	sets := cfg.Sets()
	lines := sets * cfg.Assoc
	c := &Cache{
		cfg:       cfg,
		setMask:   uint64(sets - 1),
		assoc:     cfg.Assoc,
		lineSize:  cfg.LineSize,
		victimBuf: make([]byte, cfg.LineSize),
	}
	if v := linePool(lines, cfg.LineSize).Get(); v != nil {
		a := v.(*lineArrays)
		// Reset metadata but keep the payload buffer: the bytes are
		// unreachable once every tag is the sentinel.
		clear(a.states)
		clear(a.dirtys)
		clear(a.masks)
		clear(a.lrus)
		c.addrs, c.states, c.dirtys, c.masks, c.lrus, c.data =
			a.addrs, a.states, a.dirtys, a.masks, a.lrus, a.data
	} else {
		c.addrs = make([]LineAddr, lines)
		c.states = make([]State, lines)
		c.dirtys = make([]bool, lines)
		c.masks = make([]uint64, lines)
		c.lrus = make([]uint64, lines)
		c.data = make([]byte, lines*cfg.LineSize)
	}
	retire(c.addrs)
	for ls := cfg.LineSize; ls > 1; ls >>= 1 {
		c.lineBits++
	}
	return c
}

// Release returns the cache's slot storage (with its data buffer) to the
// geometry pool for reuse by a future instance. The cache must not be
// used afterwards; callers must guarantee no other goroutine can still
// touch it (simulation torn down, server stopped).
func (c *Cache) Release() {
	if c.states == nil {
		return
	}
	linePool(len(c.states), c.cfg.LineSize).Put(&lineArrays{
		addrs: c.addrs, states: c.states, dirtys: c.dirtys,
		masks: c.masks, lrus: c.lrus, data: c.data,
	})
	c.addrs, c.states, c.dirtys, c.masks, c.lrus, c.data = nil, nil, nil, nil, nil, nil
}

// LineSize returns the line size in bytes.
func (c *Cache) LineSize() int { return c.cfg.LineSize }

// LineBits returns log2(lineSize).
func (c *Cache) LineBits() uint { return c.lineBits }

// HitLatency returns the configured hit latency.
func (c *Cache) HitLatency() arch.Cycles { return c.cfg.HitLatency }

// Base returns the first byte address of a line.
func (c *Cache) Base(l LineAddr) arch.Addr { return arch.Addr(uint64(l) << c.lineBits) }

// setBase returns the first slot index of the line's set.
func (c *Cache) setBase(l LineAddr) int {
	return int(uint64(l)&c.setMask) * c.assoc
}

// retire sets every tag in addrs to the invalid sentinel.
func retire(addrs []LineAddr) {
	for i := range addrs {
		addrs[i] = invalidTag
	}
}

func (c *Cache) slotData(i int) []byte {
	off := i * c.lineSize
	return c.data[off : off+c.lineSize : off+c.lineSize]
}

// Lookup returns a handle to the line if present, updating LRU and
// hit/miss counters.
func (c *Cache) Lookup(l LineAddr) (Line, bool) {
	base := c.setBase(l)
	for i := base; i < base+c.assoc; i++ {
		if c.addrs[i] == l {
			c.tick++
			c.lrus[i] = c.tick
			c.Hits++
			return Line{c, int32(i)}, true
		}
	}
	c.Misses++
	return Line{}, false
}

// Peek returns a handle to the line if present without touching LRU or
// counters.
func (c *Cache) Peek(l LineAddr) (Line, bool) {
	base := c.setBase(l)
	for i := base; i < base+c.assoc; i++ {
		if c.addrs[i] == l {
			return Line{c, int32(i)}, true
		}
	}
	return Line{}, false
}

// Insert places a line with the given state and data, evicting the LRU
// victim of the set if needed. The returned victim (valid when evicted is
// true) carries the bytes of a Modified victim in a cache-owned scratch
// buffer that the next Insert overwrites: callers must consume the victim
// (typically by encoding its writeback) before inserting again. A Shared
// victim carries no bytes. data is copied into the cache's own storage,
// so the steady state allocates nothing.
//
// One pass over the set finds an existing copy of the line (refilled in
// place, keeping its dirty flag and write mask, so a line can never be
// duplicated within a set), else the first free slot, else the least
// recently used slot — the lowest such index on a tie.
//
//graphite:hotpath
func (c *Cache) Insert(l LineAddr, st State, data []byte) (victim Victim, evicted bool) {
	if st == Invalid || l == invalidTag {
		panic("cache: inserting an Invalid line or the invalid tag")
	}
	base := c.setBase(l)
	slot, free, lru := -1, -1, base
	for i := base; i < base+c.assoc; i++ {
		a := c.addrs[i]
		if a == l {
			slot = i
			break
		}
		if a == invalidTag {
			if free < 0 {
				free = i
			}
		} else if c.lrus[i] < c.lrus[lru] {
			lru = i
		}
	}
	switch {
	case slot >= 0:
		copy(c.slotData(slot), data)
		c.states[slot] = st
		c.tick++
		c.lrus[slot] = c.tick
		return Victim{}, false
	case free >= 0:
		slot = free
	default:
		// Evict the least recently used line; the slot keeps its storage
		// for the new line.
		slot = lru
		victim = Victim{
			Addr:      c.addrs[slot],
			State:     c.states[slot],
			Dirty:     c.dirtys[slot],
			WriteMask: c.masks[slot],
		}
		if victim.State == Modified {
			copy(c.victimBuf, c.slotData(slot))
			victim.Data = c.victimBuf
		}
		evicted = true
		c.Evictions++
		if victim.Dirty {
			c.Writebacks++
		}
	}
	copy(c.slotData(slot), data)
	c.addrs[slot] = l
	c.states[slot] = st
	c.dirtys[slot] = false
	c.masks[slot] = 0
	c.tick++
	c.lrus[slot] = c.tick
	return victim, evicted
}

// Invalidate removes a line, returning a snapshot of it and whether it was
// present. The snapshot's Data aliases the slot's storage, which stays in
// place for the slot's next occupant: it is valid only until the next
// Insert that lands in this line's set. The slot's tag becomes the
// invalid sentinel.
func (c *Cache) Invalidate(l LineAddr) (Victim, bool) {
	base := c.setBase(l)
	for i := base; i < base+c.assoc; i++ {
		if c.addrs[i] == l {
			out := Victim{
				Addr:      l,
				State:     c.states[i],
				Dirty:     c.dirtys[i],
				WriteMask: c.masks[i],
				Data:      c.slotData(i),
			}
			c.addrs[i] = invalidTag
			c.states[i] = Invalid
			c.dirtys[i] = false
			c.masks[i] = 0
			c.lrus[i] = 0
			return out, true
		}
	}
	return Victim{}, false
}

// Downgrade moves a Modified line to Shared, clearing dirty state, and
// returns a handle to it (without removing it). ok is false if absent.
func (c *Cache) Downgrade(l LineAddr) (Line, bool) {
	base := c.setBase(l)
	for i := base; i < base+c.assoc; i++ {
		if c.addrs[i] == l {
			c.states[i] = Shared
			c.dirtys[i] = false
			c.masks[i] = 0
			return Line{c, int32(i)}, true
		}
	}
	return Line{}, false
}

// ForEach visits every valid line. The callback must not insert or
// invalidate lines.
func (c *Cache) ForEach(fn func(Line)) {
	for i := range c.states {
		if c.states[i] != Invalid {
			fn(Line{c, int32(i)})
		}
	}
}

// occupancy returns the number of valid lines.
func (c *Cache) occupancy() int {
	n := 0
	for i := range c.states {
		if c.states[i] != Invalid {
			n++
		}
	}
	return n
}

// WordMask returns the write-mask bits covering [off, off+n) within a
// line, at 8-byte word granularity. Line sizes up to 512 bytes map onto
// the 64 mask bits; larger lines saturate the mask (all bits), which only
// makes sharing classification more conservative.
func WordMask(off, n, lineSize int) uint64 {
	if n <= 0 {
		return 0
	}
	if lineSize > 512 {
		return ^uint64(0)
	}
	first := off / 8
	last := (off + n - 1) / 8
	var m uint64
	for w := first; w <= last && w < 64; w++ {
		m |= 1 << uint(w)
	}
	return m
}
