package cache

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/config"
)

// oracle is the cache as it was before invalid slots carried a sentinel
// tag: validity is the state array, an invalid slot keeps its departed
// line's address, and Insert walks the set three times (existing copy,
// free slot, LRU victim) and copies every victim's bytes. It is kept
// verbatim as the reference the one-pass Insert and the one-array
// lookups must agree with.
type oracle struct {
	setMask  uint64
	assoc    int
	lineSize int
	tick     uint64

	addrs  []LineAddr
	states []State
	dirtys []bool
	masks  []uint64
	lrus   []uint64
	data   []byte

	victimBuf []byte

	Hits, Misses, Evictions, Writebacks uint64
}

func newOracle(cfg config.CacheConfig) *oracle {
	lines := cfg.Sets() * cfg.Assoc
	return &oracle{
		setMask:   uint64(cfg.Sets() - 1),
		assoc:     cfg.Assoc,
		lineSize:  cfg.LineSize,
		victimBuf: make([]byte, cfg.LineSize),
		addrs:     make([]LineAddr, lines),
		states:    make([]State, lines),
		dirtys:    make([]bool, lines),
		masks:     make([]uint64, lines),
		lrus:      make([]uint64, lines),
		data:      make([]byte, lines*cfg.LineSize),
	}
}

func (c *oracle) setBase(l LineAddr) int { return int(uint64(l)&c.setMask) * c.assoc }

func (c *oracle) slotData(i int) []byte {
	off := i * c.lineSize
	return c.data[off : off+c.lineSize : off+c.lineSize]
}

// find is the old Lookup/Peek/Downgrade/Invalidate walk; -1 when absent.
func (c *oracle) find(l LineAddr) int {
	base := c.setBase(l)
	for i := base; i < base+c.assoc; i++ {
		if c.states[i] != Invalid && c.addrs[i] == l {
			return i
		}
	}
	return -1
}

func (c *oracle) Lookup(l LineAddr) int {
	i := c.find(l)
	if i < 0 {
		c.Misses++
		return -1
	}
	c.tick++
	c.lrus[i] = c.tick
	c.Hits++
	return i
}

func (c *oracle) Insert(l LineAddr, st State, data []byte) (victim Victim, evicted bool) {
	if st == Invalid {
		panic("cache: inserting Invalid line")
	}
	base := c.setBase(l)
	// Prefer an existing copy of the line (state upgrade in place) over an
	// empty slot, so a line can never be duplicated within a set.
	slot := -1
	for i := base; i < base+c.assoc; i++ {
		if c.states[i] != Invalid && c.addrs[i] == l {
			slot = i
			break
		}
	}
	if slot < 0 {
		for i := base; i < base+c.assoc; i++ {
			if c.states[i] == Invalid {
				slot = i
				break
			}
		}
	}
	if slot < 0 {
		// Evict the least recently used line. The victim's bytes move to
		// the scratch buffer; the slot keeps its storage for the new line.
		slot = base
		for i := base + 1; i < base+c.assoc; i++ {
			if c.lrus[i] < c.lrus[slot] {
				slot = i
			}
		}
		copy(c.victimBuf, c.slotData(slot))
		victim = Victim{
			Addr:      c.addrs[slot],
			State:     c.states[slot],
			Dirty:     c.dirtys[slot],
			WriteMask: c.masks[slot],
			Data:      c.victimBuf,
		}
		evicted = true
		c.Evictions++
		if victim.Dirty {
			c.Writebacks++
		}
	}
	prevMask := uint64(0)
	prevDirty := false
	if !evicted && c.states[slot] != Invalid && c.addrs[slot] == l {
		prevMask = c.masks[slot]
		prevDirty = c.dirtys[slot]
	}
	copy(c.slotData(slot), data)
	c.addrs[slot] = l
	c.states[slot] = st
	c.dirtys[slot] = prevDirty
	c.masks[slot] = prevMask
	c.tick++
	c.lrus[slot] = c.tick
	return victim, evicted
}

func (c *oracle) Invalidate(l LineAddr) (Victim, bool) {
	i := c.find(l)
	if i < 0 {
		return Victim{}, false
	}
	out := Victim{
		Addr:      c.addrs[i],
		State:     c.states[i],
		Dirty:     c.dirtys[i],
		WriteMask: c.masks[i],
		Data:      c.slotData(i),
	}
	c.states[i] = Invalid
	c.dirtys[i] = false
	c.masks[i] = 0
	c.lrus[i] = 0
	return out, true
}

func (c *oracle) Downgrade(l LineAddr) int {
	i := c.find(l)
	if i >= 0 {
		c.states[i] = Shared
		c.dirtys[i] = false
		c.masks[i] = 0
	}
	return i
}

func (c *oracle) Capture() *checkpoint.CacheState {
	s := &checkpoint.CacheState{
		Slots:      uint32(len(c.states)),
		LineSize:   uint32(c.lineSize),
		Tick:       c.tick,
		Hits:       c.Hits,
		Misses:     c.Misses,
		Evictions:  c.Evictions,
		Writebacks: c.Writebacks,
	}
	for i, st := range c.states {
		if st == Invalid {
			continue
		}
		s.Valid = append(s.Valid, checkpoint.CacheSlot{
			Index: uint32(i),
			Addr:  uint64(c.addrs[i]),
			State: uint8(st),
			Dirty: c.dirtys[i],
			Mask:  c.masks[i],
			LRU:   c.lrus[i],
		})
		s.Data = append(s.Data, c.slotData(i)...)
	}
	return s
}

func (c *oracle) Restore(s *checkpoint.CacheState) {
	clear(c.addrs)
	clear(c.states)
	clear(c.dirtys)
	clear(c.masks)
	clear(c.lrus)
	clear(c.data)
	for k, sl := range s.Valid {
		i := int(sl.Index)
		c.addrs[i] = LineAddr(sl.Addr)
		c.states[i] = State(sl.State)
		c.dirtys[i] = sl.Dirty
		c.masks[i] = sl.Mask
		c.lrus[i] = sl.LRU
		copy(c.slotData(i), s.Data[k*c.lineSize:])
	}
	c.tick = s.Tick
	c.Hits = s.Hits
	c.Misses = s.Misses
	c.Evictions = s.Evictions
	c.Writebacks = s.Writebacks
}

// agree reports the first difference between the cache and the oracle:
// per slot the state, and for a valid slot its tag, dirty flag, mask, LRU
// stamp and bytes; an invalid slot of the cache must carry the sentinel.
// Then the tick and the counters.
func agree(c *Cache, o *oracle) error {
	for i := range o.states {
		if c.states[i] != o.states[i] {
			return fmt.Errorf("slot %d: state %v, oracle %v", i, c.states[i], o.states[i])
		}
		if o.states[i] == Invalid {
			if c.addrs[i] != invalidTag {
				return fmt.Errorf("invalid slot %d: tag %#x, want the sentinel", i, uint64(c.addrs[i]))
			}
			continue
		}
		if c.addrs[i] != o.addrs[i] || c.dirtys[i] != o.dirtys[i] || c.masks[i] != o.masks[i] || c.lrus[i] != o.lrus[i] {
			return fmt.Errorf("slot %d: line %d dirty %v mask %b lru %d, oracle line %d dirty %v mask %b lru %d",
				i, c.addrs[i], c.dirtys[i], c.masks[i], c.lrus[i], o.addrs[i], o.dirtys[i], o.masks[i], o.lrus[i])
		}
		if !bytes.Equal(c.slotData(i), o.slotData(i)) {
			return fmt.Errorf("slot %d: bytes differ from the oracle's", i)
		}
	}
	if c.tick != o.tick || c.Hits != o.Hits || c.Misses != o.Misses || c.Evictions != o.Evictions || c.Writebacks != o.Writebacks {
		return fmt.Errorf("tick/hits/misses/evictions/writebacks %d/%d/%d/%d/%d, oracle %d/%d/%d/%d/%d",
			c.tick, c.Hits, c.Misses, c.Evictions, c.Writebacks, o.tick, o.Hits, o.Misses, o.Evictions, o.Writebacks)
	}
	return nil
}

// sameVictim compares an Insert or Invalidate victim with the oracle's.
// The bytes count where a caller reads them: for a Modified victim, and
// for every Invalidate. An Insert's Shared victim carries none.
func sameVictim(v Victim, ok bool, ov Victim, ook bool, insert bool) error {
	if ok != ook {
		return fmt.Errorf("victim %v, oracle %v", ok, ook)
	}
	if !ok {
		return nil
	}
	if v.Addr != ov.Addr || v.State != ov.State || v.Dirty != ov.Dirty || v.WriteMask != ov.WriteMask {
		return fmt.Errorf("victim %+v, oracle %+v", v, ov)
	}
	if insert && v.State != Modified {
		if v.Data != nil {
			return fmt.Errorf("Shared victim of line %d carries %d bytes", v.Addr, len(v.Data))
		}
		return nil
	}
	if !bytes.Equal(v.Data, ov.Data) {
		return fmt.Errorf("victim of line %d: bytes differ from the oracle's", v.Addr)
	}
	return nil
}

// TestCacheMatchesOracle drives seeded random sequences of every cache
// operation through the cache and the oracle on 1-, 2-, 8- and 24-way
// geometries, and checks after each step that both chose the same slot
// and victim and hold the same stamps, bytes and counters. Captures are
// restored into a fresh cache built from pooled arrays, so the sequence
// goes on over storage that holds a prior cache's residue.
func TestCacheMatchesOracle(t *testing.T) {
	for _, geo := range []struct{ sets, assoc, line int }{
		{16, 1, 64}, {8, 2, 64}, {4, 8, 64}, {4, 24, 32}, {1, 8, 64},
	} {
		cfg := testCfg(geo.sets*geo.assoc*geo.line, geo.assoc, geo.line)
		for seed := int64(1); seed <= 8; seed++ {
			name := fmt.Sprintf("assoc=%d/sets=%d/seed=%d", geo.assoc, geo.sets, seed)
			t.Run(name, func(t *testing.T) {
				if err := runOracle(cfg, seed, 4000); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

func runOracle(cfg config.CacheConfig, seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	c, o := New(cfg), newOracle(cfg)
	defer func() { c.Release() }()
	// Three lines per slot, so sets overflow and lines come back.
	span := cfg.Sets() * cfg.Assoc * 3
	line := func() LineAddr { return LineAddr(rng.Intn(span)) }
	data := make([]byte, cfg.LineSize)
	for step := 0; step < steps; step++ {
		var err error
		op := rng.Intn(100)
		switch {
		case op < 35:
			l := line()
			st := Shared
			if rng.Intn(2) == 0 {
				st = Modified
			}
			rng.Read(data)
			v, ok := c.Insert(l, st, data)
			ov, ook := o.Insert(l, st, data)
			err = sameVictim(v, ok, ov, ook, true)
		case op < 60:
			l := line()
			h, ok := c.Lookup(l)
			i := o.Lookup(l)
			if ok != (i >= 0) || ok && int(h.idx) != i {
				err = fmt.Errorf("Lookup(%d): slot %d %v, oracle %d", l, h.idx, ok, i)
			}
		case op < 70:
			l := line()
			h, ok := c.Peek(l)
			if i := o.find(l); ok != (i >= 0) || ok && int(h.idx) != i {
				err = fmt.Errorf("Peek(%d): slot %d %v, oracle %d", l, h.idx, ok, i)
			}
		case op < 80:
			// Write into a present line: dirty, mask and bytes, as a store
			// hit does.
			l := line()
			h, ok := c.Peek(l)
			if i := o.find(l); ok && i >= 0 && c.states[h.idx] == Modified {
				m := uint64(1) << rng.Intn(64)
				b := byte(rng.Intn(256))
				h.SetDirty(true)
				h.OrWriteMask(m)
				h.Data()[0] = b
				o.dirtys[i] = true
				o.masks[i] |= m
				o.slotData(i)[0] = b
			}
		case op < 88:
			l := line()
			v, ok := c.Invalidate(l)
			ov, ook := o.Invalidate(l)
			err = sameVictim(v, ok, ov, ook, false)
		case op < 96:
			l := line()
			h, ok := c.Downgrade(l)
			if i := o.Downgrade(l); ok != (i >= 0) || ok && int(h.idx) != i {
				err = fmt.Errorf("Downgrade(%d): slot %d %v, oracle %d", l, h.idx, ok, i)
			}
		default:
			s, os := c.Capture(), o.Capture()
			if !reflect.DeepEqual(s, os) {
				return fmt.Errorf("step %d: capture differs from the oracle's", step)
			}
			// Restore into a cache over pooled arrays (the released ones,
			// full of this cache's lines) and go on with it.
			c.Release()
			c = New(cfg)
			if err := c.Restore(s); err != nil {
				return fmt.Errorf("step %d: restore: %v", step, err)
			}
			o.Restore(os)
		}
		if err == nil {
			err = agree(c, o)
		}
		if err != nil {
			return fmt.Errorf("step %d (op %d): %v", step, op, err)
		}
	}
	return nil
}

// TestStaleTagsNeverHit: a cache over pooled arrays, and a cache restored
// from a snapshot, hold the addresses and bytes of lines that are no
// longer there. None of them may hit, be found, or be refilled in place.
func TestStaleTagsNeverHit(t *testing.T) {
	cfg := testCfg(512, 2, 64) // 4 sets, 8 slots
	fill := func(c *Cache) {
		for l := LineAddr(0); l < 8; l++ {
			c.Insert(l, Modified, bytes.Repeat([]byte{byte(l + 1)}, 64))
		}
	}
	absent := func(t *testing.T, c *Cache, lines ...LineAddr) {
		t.Helper()
		for _, l := range lines {
			if _, ok := c.Peek(l); ok {
				t.Errorf("Peek found stale line %d", l)
			}
			if _, ok := c.Lookup(l); ok {
				t.Errorf("Lookup hit stale line %d", l)
			}
			if _, ok := c.Downgrade(l); ok {
				t.Errorf("Downgrade found stale line %d", l)
			}
			if _, ok := c.Invalidate(l); ok {
				t.Errorf("Invalidate found stale line %d", l)
			}
		}
	}

	t.Run("pooled", func(t *testing.T) {
		// sync.Pool may drop an entry; retry until the arrays come back.
		for try := 0; ; try++ {
			old := New(cfg)
			fill(old)
			addrs := &old.addrs[0]
			old.Release()
			c := New(cfg)
			if &c.addrs[0] != addrs {
				c.Release()
				if try == 100 {
					t.Skip("the pool never handed the released arrays back")
				}
				continue
			}
			absent(t, c, 0, 1, 2, 3, 4, 5, 6, 7)
			// Re-inserting a stale line lands in a free slot with a clean
			// dirty flag and mask, and evicts nothing.
			if _, evicted := c.Insert(5, Shared, make([]byte, 64)); evicted {
				t.Error("insert into a recycled, empty cache evicted")
			}
			if ln, ok := c.Peek(5); !ok || ln.Dirty() || ln.WriteMask() != 0 || ln.Data()[0] != 0 {
				t.Errorf("re-inserted line 5: present %v, stale state or bytes", ok)
			}
			c.Release()
			return
		}
	})

	t.Run("restored", func(t *testing.T) {
		src := New(cfg)
		defer src.Release()
		src.Insert(9, Shared, bytes.Repeat([]byte{9}, 64)) // set 1
		snap := src.Capture()
		c := New(cfg)
		defer c.Release()
		fill(c)
		if err := c.Restore(snap); err != nil {
			t.Fatal(err)
		}
		absent(t, c, 0, 1, 2, 3, 4, 5, 6, 7)
		if ln, ok := c.Peek(9); !ok || ln.Data()[0] != 9 {
			t.Error("the snapshot's own line is missing after restore")
		}
	})
}
