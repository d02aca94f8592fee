// The pre-SoA sharer sets, kept as the reference model the Store is
// tested against (store_test.go): one interface, three small
// implementations, an Entry that embeds one per line.

package directory

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/config"
)

// SharerSet tracks which tiles hold a line in Shared state, under one of
// the three directory policies.
type SharerSet interface {
	// Add records t as a sharer. If the policy must reclaim a pointer, it
	// returns the tile to invalidate (Dir_iNB); otherwise evict is
	// arch.InvalidTile. trap reports that the add overflowed into
	// software (LimitLESS) and must be charged the trap latency.
	Add(t arch.TileID) (evict arch.TileID, trap bool)
	// Remove forgets a sharer. Removing an absent tile is a no-op.
	Remove(t arch.TileID)
	// Contains reports whether t is currently tracked as a sharer.
	Contains(t arch.TileID) bool
	// Count returns the number of tracked sharers.
	Count() int
	// ForEach visits every tracked sharer.
	ForEach(fn func(arch.TileID))
	// Clear forgets all sharers.
	Clear()
	// InvTrap reports whether invalidating the current sharer set
	// requires a software trap (LimitLESS with overflowed pointers).
	InvTrap() bool
}

// New builds a sharer set for the configured protocol. tiles bounds the
// full-map bit vector; pointers is i for Dir_iNB and LimitLESS(i).
func New(kind config.CoherenceKind, pointers, tiles int) SharerSet {
	switch kind {
	case config.FullMap:
		return newFullMap(tiles)
	case config.LimitedNB:
		return &limitedNB{cap: pointers}
	case config.LimitLESS:
		return &limitless{cap: pointers, fullMap: newFullMap(tiles)}
	default:
		panic(fmt.Sprintf("directory: unknown coherence kind %d", int(kind)))
	}
}

// fullMap is a bit-vector sharer set. Targets of at most 64 tiles (the
// common case) fit in the inline word, so an in-place init allocates
// nothing.
type fullMap struct {
	bits   []uint64
	inline [1]uint64
	count  int
}

func newFullMap(tiles int) *fullMap {
	f := &fullMap{}
	f.init(tiles)
	return f
}

// init prepares the map for tiles sharers, reusing the inline word when it
// suffices.
func (f *fullMap) init(tiles int) {
	if tiles <= 64 {
		f.inline[0] = 0
		f.bits = f.inline[:]
	} else {
		f.bits = make([]uint64, (tiles+63)/64)
	}
	f.count = 0
}

func (f *fullMap) Add(t arch.TileID) (arch.TileID, bool) {
	w, b := int(t)/64, uint(t)%64
	if f.bits[w]&(1<<b) == 0 {
		f.bits[w] |= 1 << b
		f.count++
	}
	return arch.InvalidTile, false
}

func (f *fullMap) Remove(t arch.TileID) {
	w, b := int(t)/64, uint(t)%64
	if f.bits[w]&(1<<b) != 0 {
		f.bits[w] &^= 1 << b
		f.count--
	}
}

func (f *fullMap) Contains(t arch.TileID) bool {
	return f.bits[int(t)/64]&(1<<(uint(t)%64)) != 0
}

func (f *fullMap) Count() int { return f.count }

func (f *fullMap) ForEach(fn func(arch.TileID)) {
	for w, word := range f.bits {
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
}

func (f *fullMap) Clear() {
	for i := range f.bits {
		f.bits[i] = 0
	}
	f.count = 0
}

func (f *fullMap) InvTrap() bool { return false }

// limitedNB is the Dir_iNB limited directory: i pointers, no broadcast.
// When the pointers are exhausted, adding a sharer evicts an existing one.
type limitedNB struct {
	cap  int
	ptrs []arch.TileID
	next int // round-robin eviction cursor
}

func (d *limitedNB) Add(t arch.TileID) (arch.TileID, bool) {
	for _, p := range d.ptrs {
		if p == t {
			return arch.InvalidTile, false
		}
	}
	if len(d.ptrs) < d.cap {
		d.ptrs = append(d.ptrs, t)
		return arch.InvalidTile, false
	}
	// Reclaim a pointer round-robin: the caller must invalidate the
	// returned tile's copy before granting the new one.
	victim := d.ptrs[d.next%len(d.ptrs)]
	d.ptrs[d.next%len(d.ptrs)] = t
	d.next++
	return victim, false
}

func (d *limitedNB) Remove(t arch.TileID) {
	for i, p := range d.ptrs {
		if p == t {
			d.ptrs[i] = d.ptrs[len(d.ptrs)-1]
			d.ptrs = d.ptrs[:len(d.ptrs)-1]
			return
		}
	}
}

func (d *limitedNB) Contains(t arch.TileID) bool {
	for _, p := range d.ptrs {
		if p == t {
			return true
		}
	}
	return false
}

func (d *limitedNB) Count() int { return len(d.ptrs) }

func (d *limitedNB) ForEach(fn func(arch.TileID)) {
	for _, p := range d.ptrs {
		fn(p)
	}
}

func (d *limitedNB) Clear() { d.ptrs = d.ptrs[:0] }

func (d *limitedNB) InvTrap() bool { return false }

// limitless keeps the first cap sharers in "hardware" and overflows to a
// software-maintained full map; overflow operations trap.
type limitless struct {
	cap     int
	fullMap *fullMap
}

func (l *limitless) Add(t arch.TileID) (arch.TileID, bool) {
	if l.fullMap.Contains(t) {
		return arch.InvalidTile, false
	}
	trap := l.fullMap.Count() >= l.cap
	l.fullMap.Add(t)
	return arch.InvalidTile, trap
}

func (l *limitless) Remove(t arch.TileID)        { l.fullMap.Remove(t) }
func (l *limitless) Contains(t arch.TileID) bool { return l.fullMap.Contains(t) }
func (l *limitless) Count() int                  { return l.fullMap.Count() }
func (l *limitless) ForEach(fn func(arch.TileID)) {
	l.fullMap.ForEach(fn)
}
func (l *limitless) Clear() { l.fullMap.Clear() }

// InvTrap implements SharerSet: walking an overflowed sharer list is done
// by the software handler.
func (l *limitless) InvTrap() bool { return l.fullMap.Count() > l.cap }

// Entry is the directory state of one line at its home tile.
type Entry struct {
	// Sharers tracks Shared-state copies.
	Sharers SharerSet
	// Owner is the Modified-state owner, or arch.InvalidTile.
	Owner arch.TileID
	// LastWriter and LastWriterMask record the most recent writer and the
	// 8-byte-word mask it dirtied, for true/false-sharing classification
	// of later misses (paper §4.4, Figure 8).
	LastWriter     arch.TileID
	LastWriterMask uint64

	// full backs Sharers for the full-map protocol so that an Entry
	// embedded in a larger home-side record costs no extra allocations
	// (directories hold one entry per line ever homed — the dominant
	// steady-state allocation before entries were embedded).
	full fullMap
}

// InitEntry initializes an idle entry in place for the configured
// protocol. Full-map targets reuse the entry's inline sharer storage;
// limited directories allocate their pointer state.
func InitEntry(e *Entry, cfg config.CoherenceConfig, tiles int) {
	e.Owner = arch.InvalidTile
	e.LastWriter = arch.InvalidTile
	e.LastWriterMask = 0
	if cfg.Kind == config.FullMap {
		e.full.init(tiles)
		e.Sharers = &e.full
	} else {
		e.Sharers = New(cfg.Kind, cfg.DirPointers, tiles)
	}
}

// NewEntry builds an idle entry for the configured protocol.
func NewEntry(cfg config.CoherenceConfig, tiles int) *Entry {
	e := &Entry{}
	InitEntry(e, cfg, tiles)
	return e
}

// Idle reports whether no tile caches the line.
func (e *Entry) Idle() bool {
	return e.Owner == arch.InvalidTile && e.Sharers.Count() == 0
}
