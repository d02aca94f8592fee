package directory

import "repro/internal/config"

// Checkpoint accessors. A directory entry is captured as (arena index,
// owner, last writer + mask, sharers, cursor) and rebuilt by re-Allocing
// entries in arena-index order and re-adding sharers in ForEachSharer's
// order — slot order for limited-pointer policies, ascending tile order
// for bit vectors — which reproduces the arena byte for byte, including
// pointer-slot layout and round-robin cursors.

// Index returns the entry's arena index within its store.
func (r Ref) Index() int { return int(r.i) }

// Cursor returns the LimitedNB round-robin eviction cursor (zero for
// other policies).
func (r Ref) Cursor() int32 {
	if r.s.kind != config.LimitedNB {
		return 0
	}
	return r.s.cursors[r.i]
}

// SetCursor restores the LimitedNB eviction cursor; a no-op for other
// policies.
func (r Ref) SetCursor(v int32) {
	if r.s.kind != config.LimitedNB {
		return
	}
	r.s.cursors[r.i] = v
}
