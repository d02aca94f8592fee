// Package directory implements the sharer-tracking policies of Graphite's
// directory-based MSI coherence protocols (paper §3.2 and §4.4): the
// full-map directory, the limited directory Dir_iNB of Agarwal et al., and
// the LimitLESS scheme of Chaiken et al., in which a limited number of
// hardware pointers track the first sharers and overflow is handled by a
// software trap that preserves the full sharer set at extra latency.
//
// The package is purely bookkeeping: protocol message flow and timing live
// in internal/memsys, and so does the locking — a Store belongs to one
// tile's home.
package directory

import (
	"repro/internal/arch"
	"repro/internal/config"
)

// Store is a structure-of-arrays arena of directory entries. Instead of
// one object per line embedding its sharer state (and, beyond 64 tiles, a
// per-line heap-allocated bit vector), a Store packs the state of every
// line homed at one tile into parallel slices: owners, last
// writers and their masks, sharer counts, and — per policy — either a
// fixed stride of sharer bit-vector words (full map, LimitLESS) or a
// fixed stride of pointer slots (Dir_iNB). A thousand-tile simulation
// then costs one bulk allocation per growth step instead of one bit
// vector per line ever homed, and a directory walk touches contiguous
// memory.
//
// A Store belongs to a single tile's home and inherits its locking: all
// access happens with the home mutex held (see internal/memsys).
// Ref is the lightweight handle (store pointer + entry index) through
// which protocol code reads and mutates one entry.
type Store struct {
	kind   config.CoherenceKind
	stride int // bit-vector words per entry (FullMap, LimitLESS)
	pcap   int // pointer slots per entry (LimitedNB); trap threshold (LimitLESS)

	owners  []arch.TileID
	writers []arch.TileID
	wmasks  []uint64
	counts  []int32
	bits    []uint64      // FullMap/LimitLESS: stride words per entry
	ptrs    []arch.TileID // LimitedNB: pcap slots per entry
	cursors []int32       // LimitedNB: round-robin eviction cursor
}

// NewStore builds an empty entry arena for the configured protocol. hint
// presizes the arena (entries); zero is fine — the arena grows by
// amortized doubling.
func NewStore(cfg config.CoherenceConfig, tiles, hint int) *Store {
	s := &Store{kind: cfg.Kind, pcap: cfg.DirPointers}
	switch cfg.Kind {
	case config.FullMap, config.LimitLESS:
		s.stride = (tiles + 63) / 64
	case config.LimitedNB:
	default:
		panic("directory: unknown coherence kind")
	}
	if hint > 0 {
		s.presize(hint)
	}
	return s
}

// presize reserves capacity for n entries across every parallel slice.
func (s *Store) presize(n int) {
	s.owners = make([]arch.TileID, 0, n)
	s.writers = make([]arch.TileID, 0, n)
	s.wmasks = make([]uint64, 0, n)
	s.counts = make([]int32, 0, n)
	if s.stride > 0 {
		s.bits = make([]uint64, 0, n*s.stride)
	}
	if s.kind == config.LimitedNB {
		s.ptrs = make([]arch.TileID, 0, n*s.pcap)
		s.cursors = make([]int32, 0, n)
	}
}

// Len returns the number of allocated entries.
func (s *Store) Len() int { return len(s.owners) }

// Alloc appends one idle entry and returns its handle.
func (s *Store) Alloc() Ref {
	if cap(s.owners) == 0 {
		// First entry of an unhinted store: jump straight to a useful
		// capacity. Growing seven parallel slices through append's early
		// doubling schedule costs ~40 small allocations per store before
		// reaching 64 entries; one presize costs seven. The capacity is
		// sized by sharer-vector width — 64 entries up to 64 tiles (and
		// for Dir_iNB), four at 1024 tiles, where 64 would reserve 8 KB
		// of sharer bits at a home that holds only a few lines — and
		// amortized doubling does the rest. A home never touched (a tile
		// whose lines nobody reads) still costs nothing.
		s.presize(max(4, 64/max(1, s.stride)))
	}
	i := int32(len(s.owners))
	s.owners = append(s.owners, arch.InvalidTile)
	s.writers = append(s.writers, arch.InvalidTile)
	s.wmasks = append(s.wmasks, 0)
	s.counts = append(s.counts, 0)
	if s.stride > 0 {
		for w := 0; w < s.stride; w++ {
			s.bits = append(s.bits, 0)
		}
	}
	if s.kind == config.LimitedNB {
		for p := 0; p < s.pcap; p++ {
			s.ptrs = append(s.ptrs, arch.InvalidTile)
		}
		s.cursors = append(s.cursors, 0)
	}
	return Ref{s: s, i: i}
}

// Ref is a handle to one directory entry: a store pointer plus an entry
// index. Refs are values; they stay valid for the life of the store
// (entries are never freed — a line's home state persists, as with the
// embedded-Entry design it replaces).
type Ref struct {
	s *Store
	i int32
}

// Owner returns the Modified-state owner, or arch.InvalidTile.
func (r Ref) Owner() arch.TileID { return r.s.owners[r.i] }

// SetOwner records the Modified-state owner.
func (r Ref) SetOwner(t arch.TileID) { r.s.owners[r.i] = t }

// LastWriter returns the most recent writer (for true/false-sharing
// classification of later misses; paper §4.4).
func (r Ref) LastWriter() arch.TileID { return r.s.writers[r.i] }

// SetLastWriter records the most recent writer.
func (r Ref) SetLastWriter(t arch.TileID) { r.s.writers[r.i] = t }

// LastWriterMask returns the 8-byte-word mask the last writer dirtied.
func (r Ref) LastWriterMask() uint64 { return r.s.wmasks[r.i] }

// SetLastWriterMask records the last writer's mask.
func (r Ref) SetLastWriterMask(m uint64) { r.s.wmasks[r.i] = m }

// sharerCount returns the number of tracked sharers.
func (r Ref) sharerCount() int { return int(r.s.counts[r.i]) }

// idle reports whether no tile caches the line.
func (r Ref) idle() bool {
	return r.s.owners[r.i] == arch.InvalidTile && r.s.counts[r.i] == 0
}

func (r Ref) words() []uint64 {
	base := int(r.i) * r.s.stride
	return r.s.bits[base : base+r.s.stride]
}

func (r Ref) slots() []arch.TileID {
	base := int(r.i) * r.s.pcap
	return r.s.ptrs[base : base+r.s.pcap]
}

// AddSharer records t as a sharer under the entry's policy. If the policy
// must reclaim a pointer, it returns the tile to invalidate (Dir_iNB);
// otherwise evict is arch.InvalidTile. trap reports that the add
// overflowed into software (LimitLESS) and must be charged the trap
// latency. Semantics match the test oracle's SharerSet.Add exactly
// (oracle_test.go).
func (r Ref) AddSharer(t arch.TileID) (evict arch.TileID, trap bool) {
	s := r.s
	switch s.kind {
	case config.FullMap, config.LimitLESS:
		words := r.words()
		w, b := int(t)/64, uint(t)%64
		if words[w]&(1<<b) != 0 {
			return arch.InvalidTile, false
		}
		trap = s.kind == config.LimitLESS && int(s.counts[r.i]) >= s.pcap
		words[w] |= 1 << b
		s.counts[r.i]++
		return arch.InvalidTile, trap
	case config.LimitedNB:
		slots := r.slots()
		n := int(s.counts[r.i])
		for _, p := range slots[:n] {
			if p == t {
				return arch.InvalidTile, false
			}
		}
		if n < s.pcap {
			slots[n] = t
			s.counts[r.i]++
			return arch.InvalidTile, false
		}
		// Reclaim a pointer round-robin: the caller must invalidate the
		// returned tile's copy before granting the new one.
		cur := int(s.cursors[r.i]) % n
		victim := slots[cur]
		slots[cur] = t
		s.cursors[r.i]++
		return victim, false
	}
	panic("directory: unknown coherence kind")
}

// RemoveSharer forgets a sharer. Removing an absent tile is a no-op.
func (r Ref) RemoveSharer(t arch.TileID) {
	s := r.s
	switch s.kind {
	case config.FullMap, config.LimitLESS:
		words := r.words()
		w, b := int(t)/64, uint(t)%64
		if words[w]&(1<<b) != 0 {
			words[w] &^= 1 << b
			s.counts[r.i]--
		}
	case config.LimitedNB:
		slots := r.slots()
		n := int(s.counts[r.i])
		for j, p := range slots[:n] {
			if p == t {
				slots[j] = slots[n-1]
				slots[n-1] = arch.InvalidTile
				s.counts[r.i]--
				return
			}
		}
	}
}

// ContainsSharer reports whether t is currently tracked as a sharer.
func (r Ref) ContainsSharer(t arch.TileID) bool {
	s := r.s
	switch s.kind {
	case config.FullMap, config.LimitLESS:
		return r.words()[int(t)/64]&(1<<(uint(t)%64)) != 0
	case config.LimitedNB:
		for _, p := range r.slots()[:s.counts[r.i]] {
			if p == t {
				return true
			}
		}
	}
	return false
}

// ForEachSharer visits every tracked sharer.
func (r Ref) ForEachSharer(fn func(arch.TileID)) {
	s := r.s
	switch s.kind {
	case config.FullMap, config.LimitLESS:
		for w, word := range r.words() {
			for word != 0 {
				b := word & -word
				bit := 0
				for m := b; m > 1; m >>= 1 {
					bit++
				}
				fn(arch.TileID(w*64 + bit))
				word &^= b
			}
		}
	case config.LimitedNB:
		for _, p := range r.slots()[:s.counts[r.i]] {
			fn(p)
		}
	}
}

// ClearSharers forgets all sharers.
func (r Ref) ClearSharers() {
	s := r.s
	switch s.kind {
	case config.FullMap, config.LimitLESS:
		words := r.words()
		for j := range words {
			words[j] = 0
		}
	case config.LimitedNB:
		slots := r.slots()
		for j := range slots[:s.counts[r.i]] {
			slots[j] = arch.InvalidTile
		}
	}
	s.counts[r.i] = 0
}

// InvTrap reports whether invalidating the current sharer set requires a
// software trap (LimitLESS with overflowed pointers).
func (r Ref) InvTrap() bool {
	return r.s.kind == config.LimitLESS && int(r.s.counts[r.i]) > r.s.pcap
}
