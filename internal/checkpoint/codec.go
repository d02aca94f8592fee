package checkpoint

// The per-process state file. Layout, in order:
//
//	magic "GRPHCKPT", uvarint Version
//	ProcState: varint Proc, varint Epoch, string ConfigDigest, list Tiles
//	TileState: varint Tile, varint Clock; Core, L1I, L1D and L2, each a
//	  presence bool and the body; list DirShards; DRAM; uvarint ReqSeq;
//	  sorted EverAccessed, sorted Invalidated; Stats field by field
//	CacheState: uvarint Slots, uvarint LineSize, list Valid of (uvarint
//	  Index, uvarint Addr, byte State, bool Dirty, uvarint Mask, uvarint
//	  LRU); bytes Data; uvarint Tick and the four counters
//	DRAMState: list Lines of (delta-uvarint Addr, bytes Data); uvarint
//	  Reads, Writes; varint TotalQueueDelay
//
// Unsigned integers are uvarints and signed ones zigzag varints; a list
// or a byte string starts with its length as a uvarint; a bool is one
// byte, 0 or 1. A sorted set is a list of differences from the previous
// value. Every field is written, so equal states give equal bytes.
//
// One walk per type defines the layout for all three passes: sizing
// (count the bytes), writing (append into a buffer allocated once at that
// size) and reading. Reading checks every length against the bytes left
// before it allocates, so a hostile file cannot make it allocate much
// more than its own length, and it accepts only the bytes the writer
// would produce. Byte strings in a decoded state alias the input.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/stats"
)

// stateMagic opens every state file. Its first byte is not '{', so a
// version-1 JSON state file fails here.
var stateMagic = []byte("GRPHCKPT")

// encodeProcState returns the canonical encoding of ps.
func encodeProcState(ps *ProcState) []byte {
	size := codec{mode: sizing}
	size.procState(ps)
	c := codec{mode: writing, buf: make([]byte, 0, size.n)}
	c.procState(ps)
	return c.buf
}

// decodeProcState parses a state file. It rejects a bad magic, another
// version, any malformed or out-of-range field, a varint longer than it
// needs to be, and trailing bytes, so the one encoding of a state is the
// only file it accepts.
func decodeProcState(b []byte) (*ProcState, error) {
	c := codec{mode: reading, buf: b}
	ps := &ProcState{}
	c.procState(ps)
	if c.err == nil && len(c.buf) != 0 {
		c.fail("%d trailing bytes", len(c.buf))
	}
	if c.err != nil {
		return nil, c.err
	}
	return ps, nil
}

type mode uint8

const (
	sizing mode = iota
	writing
	reading
)

// codec runs one pass over a state. Each method takes a pointer to a
// field: sizing and writing only read it, reading sets it. While
// reading, the first error sticks and empties the input, so every later
// field reads as zero and every later length as 0.
type codec struct {
	mode mode
	n    int    // sizing: bytes counted
	buf  []byte // writing: the output; reading: the input not yet read
	err  error
}

func (c *codec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
	}
	c.buf = nil
}

func (c *codec) u8(p *uint8) {
	switch c.mode {
	case sizing:
		c.n++
	case writing:
		c.buf = append(c.buf, *p)
	case reading:
		if len(c.buf) == 0 {
			c.fail("truncated")
			return
		}
		*p, c.buf = c.buf[0], c.buf[1:]
	}
}

func (c *codec) flag(p *bool) {
	var v uint8
	if *p {
		v = 1
	}
	c.u8(&v)
	if v > 1 {
		c.fail("bad bool %d", v)
	}
	if c.mode == reading {
		*p = v == 1
	}
}

func (c *codec) uvarint(p *uint64) {
	switch c.mode {
	case sizing:
		c.n += (bits.Len64(*p|1) + 6) / 7
	case writing:
		c.buf = binary.AppendUvarint(c.buf, *p)
	case reading:
		v, n := binary.Uvarint(c.buf)
		if n <= 0 {
			c.fail("truncated or overflowing varint")
			return
		}
		if n > 1 && c.buf[n-1] == 0 {
			c.fail("varint not in its shortest form")
			return
		}
		*p, c.buf = v, c.buf[n:]
	}
}

// varint zigzag-encodes *p, so small negative values stay short.
func (c *codec) varint(p *int64) {
	u := uint64(*p<<1) ^ uint64(*p>>63)
	c.uvarint(&u)
	if c.mode == reading {
		*p = int64(u>>1) ^ -int64(u&1)
	}
}

func (c *codec) i32(p *int32) {
	v := int64(*p)
	c.varint(&v)
	if v < math.MinInt32 || v > math.MaxInt32 {
		c.fail("value %d overflows int32", v)
		return
	}
	if c.mode == reading {
		*p = int32(v)
	}
}

func (c *codec) u32(p *uint32) {
	v := uint64(*p)
	c.uvarint(&v)
	if v > math.MaxUint32 {
		c.fail("value %d overflows uint32", v)
		return
	}
	if c.mode == reading {
		*p = uint32(v)
	}
}

// length codes *n; reading, it also checks that *n elements of at least
// minLen bytes each fit in what is left.
func (c *codec) length(n *int, minLen int) {
	v := uint64(*n)
	c.uvarint(&v)
	if c.mode == reading && v > uint64(len(c.buf)/minLen) {
		c.fail("length %d does not fit in the %d bytes left", v, len(c.buf))
		v = 0
	}
	*n = int(v)
}

func (c *codec) blob(p *[]byte) {
	n := len(*p)
	c.length(&n, 1)
	switch c.mode {
	case sizing:
		c.n += n
	case writing:
		c.buf = append(c.buf, *p...)
	case reading:
		if n > 0 {
			*p, c.buf = c.buf[:n:n], c.buf[n:]
		}
	}
}

func (c *codec) str(p *string) {
	b := []byte(*p)
	c.blob(&b)
	if c.mode == reading {
		*p = string(b)
	}
}

// list codes a length and then each element of *s with f; reading, it
// allocates the elements first (none for length 0). minLen is the
// shortest encoding of one element.
func list[T any](c *codec, s *[]T, minLen int, f func(*T)) {
	n := len(*s)
	c.length(&n, minLen)
	if c.mode == reading && n > 0 {
		*s = make([]T, n)
	}
	for i := range *s {
		f(&(*s)[i])
	}
}

// opt codes a presence bool and then, if present, the value with f.
func opt[T any](c *codec, p **T, f func(*T)) {
	present := *p != nil
	c.flag(&present)
	if c.mode == reading && present {
		*p = new(T)
	}
	if *p != nil {
		f(*p)
	}
}

// sorted codes an ascending set as differences from the previous value.
// They wrap modulo 2^64, so any slice round-trips; sorted ones stay short.
func (c *codec) sorted(s *[]uint64) {
	var prev uint64
	list(c, s, 1, func(v *uint64) {
		d := *v - prev
		c.uvarint(&d)
		if c.mode == reading {
			*v = prev + d
		}
		prev = *v
	})
}

func (c *codec) procState(ps *ProcState) {
	switch c.mode {
	case sizing:
		c.n += len(stateMagic)
	case writing:
		c.buf = append(c.buf, stateMagic...)
	case reading:
		if !bytes.HasPrefix(c.buf, stateMagic) {
			c.fail("not a state file (bad magic)")
			return
		}
		c.buf = c.buf[len(stateMagic):]
	}
	v := uint64(ps.Version)
	c.uvarint(&v)
	if c.mode == reading {
		if c.err == nil && v != Version {
			c.fail("version %d, want %d", v, Version)
			return
		}
		ps.Version = int(v)
	}
	c.i32(&ps.Proc)
	c.varint(&ps.Epoch)
	c.str(&ps.ConfigDigest)
	list(c, &ps.Tiles, minTile, c.tile)
}

func (c *codec) tile(ts *TileState) {
	c.i32(&ts.Tile)
	c.varint(&ts.Clock)
	opt(c, &ts.Core, c.core)
	for _, p := range [...]**CacheState{&ts.L1I, &ts.L1D, &ts.L2} {
		opt(c, p, c.cache)
	}
	list(c, &ts.DirShards, minShard, c.shard)
	c.dram(&ts.DRAM)
	c.uvarint(&ts.ReqSeq)
	c.sorted(&ts.EverAccessed)
	c.sorted(&ts.Invalidated)
	c.stats(&ts.Stats)
}

func (c *codec) core(cs *CoreState) {
	c.uvarint(&cs.PC)
	c.uvarint(&cs.FetchedLine)
	c.blob(&cs.Predictor)
	list(c, &cs.StoreBuf, 1, c.varint)
	c.uvarint(&cs.Instructions)
	c.uvarint(&cs.Branches)
	c.uvarint(&cs.Mispredicts)
	c.varint(&cs.ComputeCyc)
	c.varint(&cs.MemStallCyc)
}

func (c *codec) cache(cs *CacheState) {
	c.u32(&cs.Slots)
	c.u32(&cs.LineSize)
	list(c, &cs.Valid, minSlot, c.slot)
	c.blob(&cs.Data)
	c.uvarint(&cs.Tick)
	c.uvarint(&cs.Hits)
	c.uvarint(&cs.Misses)
	c.uvarint(&cs.Evictions)
	c.uvarint(&cs.Writebacks)
}

func (c *codec) slot(s *CacheSlot) {
	c.u32(&s.Index)
	c.uvarint(&s.Addr)
	c.u8(&s.State)
	c.flag(&s.Dirty)
	c.uvarint(&s.Mask)
	c.uvarint(&s.LRU)
}

func (c *codec) shard(s *DirShardState) {
	list(c, &s.Entries, minEntry, c.entry)
	c.uvarint(&s.HomeSeq)
	c.uvarint(&s.DirRequests)
	c.uvarint(&s.DirTraps)
	c.uvarint(&s.InvSent)
}

func (c *codec) entry(e *DirEntryState) {
	c.i32(&e.Index)
	c.uvarint(&e.Line)
	c.i32(&e.Owner)
	c.i32(&e.LastWriter)
	c.uvarint(&e.LastWriterMask)
	list(c, &e.Sharers, 1, c.i32)
	c.i32(&e.Cursor)
}

func (c *codec) dram(d *DRAMState) {
	var prev uint64
	list(c, &d.Lines, minLine, func(l *DRAMLine) {
		delta := l.Addr - prev
		c.uvarint(&delta)
		if c.mode == reading {
			l.Addr = prev + delta
		}
		prev = l.Addr
		c.blob(&l.Data)
	})
	c.uvarint(&d.Reads)
	c.uvarint(&d.Writes)
	c.varint(&d.TotalQueueDelay)
}

func (c *codec) stats(s *stats.Tile) {
	c.i32((*int32)(&s.TileID))
	c.uvarint(&s.Instructions)
	c.varint((*int64)(&s.Cycles))
	c.uvarint(&s.Branches)
	c.uvarint(&s.BranchMispredict)
	c.varint((*int64)(&s.ComputeCycles))
	c.varint((*int64)(&s.MemStallCycles))
	c.varint((*int64)(&s.SyncWaitCycles))
	c.uvarint(&s.Loads)
	c.uvarint(&s.Stores)
	c.uvarint(&s.L1IHits)
	c.uvarint(&s.L1IMisses)
	c.uvarint(&s.L1DHits)
	c.uvarint(&s.L1DMisses)
	c.uvarint(&s.L2Hits)
	c.uvarint(&s.L2Misses)
	c.uvarint(&s.L2Evictions)
	c.uvarint(&s.L2Writebacks)
	c.uvarint(&s.Upgrades)
	for i := range s.MissBy {
		c.uvarint(&s.MissBy[i])
	}
	c.uvarint(&s.IFetchMisses)
	c.varint((*int64)(&s.MemLatencyTotal))
	c.uvarint(&s.MemAccesses)
	c.uvarint(&s.DirRequests)
	c.uvarint(&s.DirTraps)
	c.uvarint(&s.InvSent)
	c.uvarint(&s.DRAMReads)
	c.uvarint(&s.DRAMWrites)
	c.varint((*int64)(&s.DRAMQueueWait))
	c.uvarint(&s.NetPacketsSent)
	c.uvarint(&s.NetBytesSent)
	c.uvarint(&s.NetPacketsRecv)
}

// Shortest encodings of the list elements a length is checked against:
// those of zero values, which are the shortest there are.
var (
	minTile  = sizeOf(func(c *codec) { c.tile(&TileState{}) })
	minSlot  = sizeOf(func(c *codec) { c.slot(&CacheSlot{}) })
	minShard = sizeOf(func(c *codec) { c.shard(&DirShardState{}) })
	minEntry = sizeOf(func(c *codec) { c.entry(&DirEntryState{}) })
	minLine  = 2 // a zero address delta and an empty byte string
)

func sizeOf(f func(*codec)) int {
	c := codec{mode: sizing}
	f(&c)
	return c.n
}
