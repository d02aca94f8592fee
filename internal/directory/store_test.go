package directory

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/config"
)

// sharersOf collects and sorts a Ref's sharer set.
func sharersOf(r Ref) []int {
	var out []int
	r.ForEachSharer(func(t arch.TileID) { out = append(out, int(t)) })
	sort.Ints(out)
	return out
}

// sharersOfSet collects and sorts a reference SharerSet.
func sharersOfSet(s SharerSet) []int {
	var out []int
	s.ForEach(func(t arch.TileID) { out = append(out, int(t)) })
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestStoreMatchesReference drives a Store entry and the reference
// SharerSet implementation through the same random operation sequence for
// every directory policy and asserts identical observable behavior:
// Add's evict/trap results, membership, counts, the sharer sets
// themselves, and InvTrap. This is the equivalence property that lets the
// memory system switch to the structure-of-arrays arena without
// re-deriving the protocol arguments.
func TestStoreMatchesReference(t *testing.T) {
	cases := []struct {
		name  string
		kind  config.CoherenceKind
		ptrs  int
		tiles int
	}{
		{"fullmap-16", config.FullMap, 0, 16},
		{"fullmap-100", config.FullMap, 0, 100},
		{"fullmap-1024", config.FullMap, 0, 1024},
		{"dirinb-4", config.LimitedNB, 4, 64},
		{"dirinb-2-1024", config.LimitedNB, 2, 1024},
		{"limitless-4", config.LimitLESS, 4, 64},
		{"limitless-4-1024", config.LimitLESS, 4, 1024},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := config.CoherenceConfig{Kind: tc.kind, DirPointers: tc.ptrs}
			store := NewStore(cfg, tc.tiles, 0)
			ref := store.Alloc()
			want := New(tc.kind, tc.ptrs, tc.tiles)
			rng := rand.New(rand.NewSource(int64(tc.tiles)*31 + int64(tc.ptrs)))
			for op := 0; op < 4096; op++ {
				tile := arch.TileID(rng.Intn(tc.tiles))
				switch rng.Intn(10) {
				case 0, 1, 2, 3, 4: // Add dominates: sharer sets grow in practice
					ge, gt := ref.AddSharer(tile)
					we, wt := want.Add(tile)
					// Dir_iNB eviction order depends only on operation order,
					// which is identical here, so even the evicted pointer
					// must match.
					if ge != we || gt != wt {
						t.Fatalf("op %d: Add(%d) = (%v,%v), reference (%v,%v)", op, tile, ge, gt, we, wt)
					}
				case 5, 6:
					ref.RemoveSharer(tile)
					want.Remove(tile)
				case 7:
					if got := ref.ContainsSharer(tile); got != want.Contains(tile) {
						t.Fatalf("op %d: Contains(%d) = %v, reference %v", op, tile, got, want.Contains(tile))
					}
				case 8:
					if rng.Intn(8) == 0 { // Clear rarely: keep sets populated
						ref.ClearSharers()
						want.Clear()
					}
				case 9:
					if got := ref.InvTrap(); got != want.InvTrap() {
						t.Fatalf("op %d: InvTrap = %v, reference %v", op, got, want.InvTrap())
					}
				}
				if ref.sharerCount() != want.Count() {
					t.Fatalf("op %d: count %d, reference %d", op, ref.sharerCount(), want.Count())
				}
				if !equalInts(sharersOf(ref), sharersOfSet(want)) {
					t.Fatalf("op %d: sharers %v, reference %v", op, sharersOf(ref), sharersOfSet(want))
				}
			}
		})
	}
}

// TestStoreEntryLifecycle mirrors TestEntryLifecycle against the arena:
// owner and last-writer bookkeeping plus idleness.
func TestStoreEntryLifecycle(t *testing.T) {
	s := NewStore(config.CoherenceConfig{Kind: config.FullMap}, 16, 0)
	e := s.Alloc()
	if !e.idle() {
		t.Fatal("fresh entry not idle")
	}
	if e.Owner() != arch.InvalidTile || e.LastWriter() != arch.InvalidTile {
		t.Fatal("fresh entry has owner or writer")
	}
	e.AddSharer(3)
	if e.idle() {
		t.Fatal("entry with sharer reported idle")
	}
	e.ClearSharers()
	e.SetOwner(5)
	e.SetLastWriter(5)
	e.SetLastWriterMask(0xF0)
	if e.idle() {
		t.Fatal("owned entry reported idle")
	}
	if e.Owner() != 5 || e.LastWriter() != 5 || e.LastWriterMask() != 0xF0 {
		t.Fatal("owner/writer state lost")
	}
	e.SetOwner(arch.InvalidTile)
	if !e.idle() {
		t.Fatal("released entry not idle")
	}
}

// TestStoreManyEntries checks that handles into a grown arena stay
// consistent: interleaved mutations of many entries never bleed into each
// other (the per-entry strides must be disjoint).
func TestStoreManyEntries(t *testing.T) {
	const entries = 300
	tiles := 130 // three bit-vector words per entry
	s := NewStore(config.CoherenceConfig{Kind: config.FullMap}, tiles, 0)
	refs := make([]Ref, entries)
	for i := range refs {
		refs[i] = s.Alloc()
		refs[i].AddSharer(arch.TileID(i % tiles))
		refs[i].SetLastWriterMask(uint64(i))
	}
	if s.Len() != entries {
		t.Fatalf("Len = %d, want %d", s.Len(), entries)
	}
	for i := range refs {
		if !refs[i].ContainsSharer(arch.TileID(i % tiles)) {
			t.Fatalf("entry %d lost its sharer", i)
		}
		if refs[i].sharerCount() != 1 {
			t.Fatalf("entry %d count = %d", i, refs[i].sharerCount())
		}
		if refs[i].LastWriterMask() != uint64(i) {
			t.Fatalf("entry %d mask = %d", i, refs[i].LastWriterMask())
		}
	}
}

// TestFirstAllocSizedBySharerWidth pins what a home reserves for its
// first line: 64 entries where an entry's sharer bits are one word (and
// for Dir_iNB, which has none), but no more than 1 KB of sharer bits at
// 1024 tiles, where most homes hold only a few lines.
func TestFirstAllocSizedBySharerWidth(t *testing.T) {
	for _, c := range []struct {
		name    string
		cfg     config.CoherenceConfig
		tiles   int
		entries int
	}{
		{"fullmap-4", config.CoherenceConfig{Kind: config.FullMap}, 4, 64},
		{"fullmap-64", config.CoherenceConfig{Kind: config.FullMap}, 64, 64},
		{"limitless-64", config.CoherenceConfig{Kind: config.LimitLESS, DirPointers: 4}, 64, 64},
		{"dirnb-1024", config.CoherenceConfig{Kind: config.LimitedNB, DirPointers: 4}, 1024, 64},
		{"fullmap-256", config.CoherenceConfig{Kind: config.FullMap}, 256, 16},
		{"fullmap-1024", config.CoherenceConfig{Kind: config.FullMap}, 1024, 4},
	} {
		s := NewStore(c.cfg, c.tiles, 0)
		if cap(s.owners) != 0 {
			t.Fatalf("%s: untouched store holds capacity %d", c.name, cap(s.owners))
		}
		s.Alloc()
		if cap(s.owners) != c.entries {
			t.Errorf("%s: first Alloc reserved %d entries, want %d", c.name, cap(s.owners), c.entries)
		}
		if bytes := cap(s.bits) * 8; bytes > 1024 {
			t.Errorf("%s: first Alloc reserved %d bytes of sharer bits, want at most 1024", c.name, bytes)
		}
	}
	// Growth past the first reservation keeps every entry intact.
	s := NewStore(config.CoherenceConfig{Kind: config.FullMap}, 1024, 0)
	refs := make([]Ref, 100)
	for i := range refs {
		refs[i] = s.Alloc()
		refs[i].AddSharer(arch.TileID(1023 - i))
	}
	for i := range refs {
		if !refs[i].ContainsSharer(arch.TileID(1023-i)) || refs[i].sharerCount() != 1 {
			t.Fatalf("entry %d lost its sharer across growth", i)
		}
	}
}
