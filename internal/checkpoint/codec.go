package checkpoint

// The per-process state file, in the encoding of internal/wire. Layout,
// in order:
//
//	magic "GRPHCKPT", uvarint Version
//	ProcState: varint Proc, varint Epoch, string ConfigDigest, list Tiles
//	TileState: varint Tile, varint Clock; Core, L1I, L1D and L2, each a
//	  presence bool and the body; Home; uvarint ReqSeq; sorted
//	  EverAccessed, sorted Invalidated; Stats (stats.Tile.Walk)
//	CacheState: uvarint Slots, uvarint LineSize, list Valid of (uvarint
//	  Index, uvarint Addr, byte State, bool Dirty, uvarint Mask, uvarint
//	  LRU); bytes Data; uvarint Tick and the four counters
//	HomeState: list Entries; uvarint HomeSeq and the three counters; DRAM
//	DRAMState: list Lines of (delta-uvarint Addr, bytes Data); uvarint
//	  Reads, Writes; varint TotalQueueDelay

import (
	"repro/internal/wire"
)

// stateMagic opens every state file. Its first byte is not '{', so a
// version-1 JSON state file fails here.
const stateMagic = "GRPHCKPT"

// encodeProcState returns the canonical encoding of ps.
func encodeProcState(ps *ProcState) []byte {
	return wire.Encode(ps.walk)
}

// decodeProcState parses a state file. It rejects a bad magic, another
// version, any malformed or out-of-range field, a varint longer than it
// needs to be, and trailing bytes, so the one encoding of a state is the
// only file it accepts.
func decodeProcState(b []byte) (*ProcState, error) {
	ps := &ProcState{}
	if err := wire.Decode(b, ps.walk); err != nil {
		return nil, err
	}
	return ps, nil
}

func (ps *ProcState) walk(c *wire.Codec) {
	c.Magic(stateMagic)
	v := uint64(ps.Version)
	c.Uvarint(&v)
	if c.Reading() {
		if v != Version {
			c.Fail("version %d, want %d", v, Version)
			return
		}
		ps.Version = int(v)
	}
	c.I32(&ps.Proc)
	c.Varint(&ps.Epoch)
	c.Str(&ps.ConfigDigest)
	wire.List(c, &ps.Tiles, minTile, func(ts *TileState) { ts.walk(c) })
}

func (ts *TileState) walk(c *wire.Codec) {
	c.I32(&ts.Tile)
	c.Varint(&ts.Clock)
	wire.Opt(c, &ts.Core, func(cs *CoreState) { cs.walk(c) })
	for _, p := range [...]**CacheState{&ts.L1I, &ts.L1D, &ts.L2} {
		wire.Opt(c, p, func(cs *CacheState) { cs.walk(c) })
	}
	ts.Home.walk(c)
	c.Uvarint(&ts.ReqSeq)
	c.Sorted(&ts.EverAccessed)
	c.Sorted(&ts.Invalidated)
	ts.Stats.Walk(c)
}

func (cs *CoreState) walk(c *wire.Codec) {
	c.Uvarint(&cs.PC)
	c.Uvarint(&cs.FetchedLine)
	c.Blob(&cs.Predictor)
	wire.List(c, &cs.StoreBuf, 1, c.Varint)
	c.Uvarint(&cs.Instructions)
	c.Uvarint(&cs.Branches)
	c.Uvarint(&cs.Mispredicts)
	c.Varint(&cs.ComputeCyc)
	c.Varint(&cs.MemStallCyc)
}

func (cs *CacheState) walk(c *wire.Codec) {
	c.U32(&cs.Slots)
	c.U32(&cs.LineSize)
	wire.List(c, &cs.Valid, minSlot, func(s *CacheSlot) { s.walk(c) })
	c.Blob(&cs.Data)
	c.Uvarint(&cs.Tick)
	c.Uvarint(&cs.Hits)
	c.Uvarint(&cs.Misses)
	c.Uvarint(&cs.Evictions)
	c.Uvarint(&cs.Writebacks)
}

func (s *CacheSlot) walk(c *wire.Codec) {
	c.U32(&s.Index)
	c.Uvarint(&s.Addr)
	c.U8(&s.State)
	c.Bool(&s.Dirty)
	c.Uvarint(&s.Mask)
	c.Uvarint(&s.LRU)
}

func (h *HomeState) walk(c *wire.Codec) {
	wire.List(c, &h.Entries, minEntry, func(e *DirEntryState) { e.walk(c) })
	c.Uvarint(&h.HomeSeq)
	c.Uvarint(&h.DirRequests)
	c.Uvarint(&h.DirTraps)
	c.Uvarint(&h.InvSent)
	h.DRAM.walk(c)
}

func (e *DirEntryState) walk(c *wire.Codec) {
	c.I32(&e.Index)
	c.Uvarint(&e.Line)
	c.I32(&e.Owner)
	c.I32(&e.LastWriter)
	c.Uvarint(&e.LastWriterMask)
	wire.List(c, &e.Sharers, 1, c.I32)
	c.I32(&e.Cursor)
}

func (d *DRAMState) walk(c *wire.Codec) {
	var prev uint64
	wire.List(c, &d.Lines, minLine, func(l *DRAMLine) {
		delta := l.Addr - prev
		c.Uvarint(&delta)
		if c.Reading() {
			l.Addr = prev + delta
		}
		prev = l.Addr
		c.Blob(&l.Data)
	})
	c.Uvarint(&d.Reads)
	c.Uvarint(&d.Writes)
	c.Varint(&d.TotalQueueDelay)
}

// Shortest encodings of the list elements a length is checked against:
// those of zero values, which are the shortest there are.
var (
	minTile  = wire.SizeOf((&TileState{}).walk)
	minSlot  = wire.SizeOf((&CacheSlot{}).walk)
	minEntry = wire.SizeOf((&DirEntryState{}).walk)
	minLine  = 2 // a zero address delta and an empty byte string
)
