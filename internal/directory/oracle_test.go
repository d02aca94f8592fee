// Two reference models. The pre-SoA sharer sets, which the Store is
// tested against (store_test.go): one interface, three small
// implementations, an Entry that embeds one per line. And the home's
// coherence handlers as the memory server had them before Step, which
// the step is tested against (explore_test.go).

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

// oracleTxn is the memory server's transaction record before Step, less
// its timing (latest, trapExtra) and its I/O (the requester's sequence
// number, the flushed data and its mask).
type oracleTxn struct {
	homeSeq   uint64
	reqType   EventKind // ShReq or ExReq
	requester arch.TileID
	reqMask   uint64
	upgrade   bool
	waitAcks  int
	waitData  bool
	dataFrom  arch.TileID
	haveData  bool
}

// oracleHome is one line at its home as the handlers below see it: its
// entry, open transaction and queued requests. The handlers are the
// memory server's startTxn, completeTxn, popPending, handleHomeReply,
// handleEvictM, its EvictS dispatch, and the local-home shortcuts
// localMiss and localEvict, as they were before Step, verbatim but for
// two things. Each send and DRAM access becomes the Action it stands for
// (an Inv fan-out one OpInv per sharer), and each change of the
// transaction's timing one of OpStart, OpJoin, OpTrap and OpComplete.
// And completeTxn charges a read's trap (OpTrap before OpComplete): the
// handlers added it after the grant time was taken, so it was lost.
type oracleHome struct {
	e       Ref
	busy    *oracleTxn
	pending []Event
	homeSeq uint64
	acts    []Action
	// writer and wmask are the last grant's payload.
	writer arch.TileID
	wmask  uint64
}

func (o *oracleHome) emit(op Op, to arch.TileID) { o.acts = append(o.acts, Action{op, to}) }

// event is the server's dispatch of a home-side message.
func (o *oracleHome) event(ev Event) {
	switch ev.Kind {
	case ShReq, ExReq:
		if o.busy != nil {
			o.pending = append(o.pending, ev)
			o.emit(OpQueue, ev.Src)
			return
		}
		o.startTxn(ev)
	case EvictS:
		o.e.RemoveSharer(ev.Src)
	case EvictM:
		o.handleEvictM(ev)
	default:
		o.handleHomeReply(ev)
	}
}

func (o *oracleHome) startTxn(ev Event) {
	e := o.e
	o.homeSeq++
	tx := &oracleTxn{homeSeq: o.homeSeq, reqType: ev.Kind, requester: ev.Src, reqMask: ev.Mask, upgrade: ev.Upgrade}
	o.emit(OpStart, ev.Src)

	if ev.Kind == ShReq {
		if e.Owner() != arch.InvalidTile && e.Owner() != ev.Src {
			// Downgrade the Modified owner and collect its data.
			tx.waitData = true
			tx.dataFrom = e.Owner()
			o.emit(OpWb, e.Owner())
			o.busy = tx
			return
		}
		o.completeTxn(tx)
		return
	}

	// ExReq.
	if e.Owner() != arch.InvalidTile && e.Owner() != ev.Src {
		tx.waitData = true
		tx.dataFrom = e.Owner()
		o.emit(OpFlush, e.Owner())
		o.busy = tx
		return
	}
	// The upgrade is only valid if the requester still holds its S copy.
	tx.upgrade = tx.upgrade && e.ContainsSharer(ev.Src)
	if e.InvTrap() {
		o.emit(OpTrap, ev.Src)
	}
	e.ForEachSharer(func(s arch.TileID) {
		if s == ev.Src {
			return
		}
		tx.waitAcks++
		o.emit(OpInv, s)
	})
	e.ClearSharers()
	if tx.waitAcks > 0 {
		o.busy = tx
		return
	}
	o.completeTxn(tx)
}

func (o *oracleHome) completeTxn(tx *oracleTxn) {
	e := o.e
	o.writer, o.wmask = e.LastWriter(), e.LastWriterMask()

	if tx.reqType == ShReq {
		evict, trap := e.AddSharer(tx.requester)
		if trap {
			o.emit(OpTrap, tx.requester)
		}
		// The grant's time: the handlers took it first, which lost the trap.
		o.emit(OpComplete, tx.requester)
		if evict != arch.InvalidTile && evict != tx.requester {
			tx.waitAcks++
			o.emit(OpInv, evict)
			o.busy = tx // re-enters completeTxn when the ack arrives
			return
		}
		if tx.haveData {
			o.emit(OpWriteBack, tx.requester)
		} else {
			o.emit(OpReadDRAM, tx.requester)
		}
		o.emit(OpGrantSh, tx.requester)
	} else {
		o.emit(OpComplete, tx.requester)
		e.SetLastWriter(tx.requester)
		e.SetLastWriterMask(tx.reqMask)
		if tx.upgrade && !tx.haveData {
			e.SetOwner(tx.requester)
			o.emit(OpGrantUpg, tx.requester)
		} else {
			if !tx.haveData {
				o.emit(OpReadDRAM, tx.requester)
			}
			e.SetOwner(tx.requester)
			o.emit(OpGrantEx, tx.requester)
		}
	}
	o.busy = nil
	o.popPending()
}

func (o *oracleHome) popPending() {
	for o.busy == nil && len(o.pending) > 0 {
		ev := o.pending[0]
		o.pending = o.pending[1:]
		o.startTxn(ev)
	}
}

func (o *oracleHome) handleHomeReply(ev Event) {
	if o.busy == nil || o.busy.homeSeq != ev.Seq {
		o.emit(OpDrop, ev.Src)
		return // stale reply from a completed transaction
	}
	tx := o.busy
	o.emit(OpJoin, ev.Src)
	e := o.e
	switch ev.Kind {
	case InvRep:
		tx.waitAcks--
		if ev.Data {
			o.emit(OpWriteDRAM, ev.Src)
		}
	case WbRep:
		if !ev.Data {
			panic("memsys: WbRep(notPresent) for open transaction")
		}
		tx.waitData = false
		tx.haveData = true
		o.emit(OpKeep, ev.Src)
		e.SetOwner(arch.InvalidTile)
		if evict, _ := e.AddSharer(ev.Src); evict != arch.InvalidTile && evict != ev.Src {
			tx.waitAcks++
			o.emit(OpInv, evict)
		}
		e.SetLastWriter(ev.Src)
		e.SetLastWriterMask(ev.Mask)
	case FlushRep:
		if !ev.Data {
			panic("memsys: FlushRep(notPresent) for open transaction")
		}
		tx.waitData = false
		tx.haveData = true
		o.emit(OpKeep, ev.Src)
		e.SetOwner(arch.InvalidTile)
		e.SetLastWriter(ev.Src)
		e.SetLastWriterMask(ev.Mask)
	}
	if tx.waitAcks == 0 && !tx.waitData {
		o.completeTxn(tx)
	}
}

func (o *oracleHome) handleEvictM(ev Event) {
	o.emit(OpAck, ev.Src)
	e := o.e
	o.emit(OpWriteDRAM, ev.Src)
	if o.busy != nil && o.busy.waitData && o.busy.dataFrom == ev.Src {
		tx := o.busy
		tx.waitData = false
		tx.haveData = true
		o.emit(OpKeep, ev.Src)
		o.emit(OpJoin, ev.Src)
		e.SetOwner(arch.InvalidTile)
		e.SetLastWriter(ev.Src)
		e.SetLastWriterMask(ev.Mask)
		if tx.waitAcks == 0 {
			o.completeTxn(tx)
		}
		return
	}
	if e.Owner() == ev.Src {
		e.SetOwner(arch.InvalidTile)
		e.SetLastWriter(ev.Src)
		e.SetLastWriterMask(ev.Mask)
	}
}

// localMiss is the shortcut's decision and directory update; ok is false
// where it made the miss take the messaged path. ev.Upgrade is whether
// the tile's L2 holds a Shared copy. The self-directed-message guard is
// the caller's.
func (o *oracleHome) localMiss(ev Event) (ok bool) {
	e := o.e
	if e.s.kind != config.FullMap || o.busy != nil || e.Owner() != arch.InvalidTile {
		return false
	}
	upgrade := false
	if ev.Kind == ExReq {
		foreign := false
		e.ForEachSharer(func(s arch.TileID) {
			if s != ev.Src {
				foreign = true
			}
		})
		if foreign {
			return false
		}
		if ev.Upgrade {
			upgrade = e.ContainsSharer(ev.Src)
		}
	}
	o.writer, o.wmask = e.LastWriter(), e.LastWriterMask()
	if ev.Kind == ShReq {
		e.AddSharer(ev.Src) // full map: never evicts, never traps
		o.emit(OpReadDRAM, ev.Src)
		o.emit(OpGrantSh, ev.Src)
		return true
	}
	e.ClearSharers()
	e.SetLastWriter(ev.Src)
	e.SetLastWriterMask(ev.Mask)
	if upgrade {
		o.emit(OpGrantUpg, ev.Src)
	} else {
		o.emit(OpReadDRAM, ev.Src)
		o.emit(OpGrantEx, ev.Src)
	}
	e.SetOwner(ev.Src)
	return true
}

// localEvict is the eviction shortcut's decision and directory update.
func (o *oracleHome) localEvict(ev Event) (ok bool) {
	if o.busy != nil {
		return false
	}
	e := o.e
	if ev.Kind == EvictS {
		e.RemoveSharer(ev.Src)
		return true
	}
	o.emit(OpWriteDRAM, ev.Src)
	if e.Owner() == ev.Src {
		e.SetOwner(arch.InvalidTile)
		e.SetLastWriter(ev.Src)
		e.SetLastWriterMask(ev.Mask)
	}
	return true
}
