package cache

import (
	"fmt"

	"repro/internal/checkpoint"
)

// Capture snapshots the cache: its geometry, every valid slot in
// ascending slot index with its payload, and the LRU tick and counters.
// Slot indices and LRU stamps are kept, so a restored cache replays the
// original's eviction decisions bit for bit. Invalid slots are left out:
// Invalidate leaves the departed line's payload in the arrays, and pooled
// slot storage (Release/New) carries a prior simulation's bytes — neither
// is observable through cache operations, but either would leak host
// history into the snapshot digest and break replay verification across
// runs.
func (c *Cache) Capture() *checkpoint.CacheState {
	s := &checkpoint.CacheState{
		Slots:      uint32(len(c.states)),
		LineSize:   uint32(c.lineSize),
		Tick:       c.tick,
		Hits:       c.Hits,
		Misses:     c.Misses,
		Evictions:  c.Evictions,
		Writebacks: c.Writebacks,
	}
	n := c.occupancy()
	if n == 0 {
		return s
	}
	s.Valid = make([]checkpoint.CacheSlot, 0, n)
	s.Data = make([]byte, 0, n*c.lineSize)
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

// Restore overwrites the cache's state from a snapshot taken by Capture
// on a cache of identical geometry. Every slot is cleared first, its tag
// retired to the invalid sentinel — an unlisted slot is an invalid one,
// and pooled arrays hold residue — then the valid slots are scattered
// back. A snapshot of another geometry, or with slots out of range, out
// of order, in no valid state or holding the invalid tag, is an error,
// and the cache is left untouched.
func (c *Cache) Restore(s *checkpoint.CacheState) error {
	if int(s.Slots) != len(c.states) || int(s.LineSize) != c.lineSize {
		return fmt.Errorf("cache: restore geometry mismatch: snapshot %d slots of %d bytes, cache %d slots of %d bytes",
			s.Slots, s.LineSize, len(c.states), c.lineSize)
	}
	if len(s.Data) != len(s.Valid)*c.lineSize {
		return fmt.Errorf("cache: restore snapshot has %d data bytes for %d valid slots", len(s.Data), len(s.Valid))
	}
	next := 0
	for _, sl := range s.Valid {
		if int(sl.Index) < next || int(sl.Index) >= len(c.states) {
			return fmt.Errorf("cache: restore slot index %d out of range or out of order", sl.Index)
		}
		if st := State(sl.State); st != Shared && st != Modified {
			return fmt.Errorf("cache: restore slot %d in state %v", sl.Index, st)
		}
		if LineAddr(sl.Addr) == invalidTag {
			return fmt.Errorf("cache: restore slot %d holds the invalid tag", sl.Index)
		}
		next = int(sl.Index) + 1
	}
	retire(c.addrs)
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
	return nil
}
