package directory

import (
	"repro/internal/arch"
	"repro/internal/config"
)

// EventKind is what reaches a line's home.
type EventKind uint8

const (
	ShReq    EventKind = iota // read miss: request a Shared copy
	ExReq                     // write miss or upgrade: request the Modified copy
	InvRep                    // a sharer answers an invalidation
	WbRep                     // the owner answers a downgrade
	FlushRep                  // the owner answers a flush
	EvictS                    // a Shared copy was dropped
	EvictM                    // a Modified copy was written back
)

// Event is one input of Step.
type Event struct {
	Kind EventKind
	Src  arch.TileID
	// Seq is, for a reply, the sub-request number it answers; for a
	// request, the number a transaction opened by it takes.
	Seq uint64
	// Mask is the words a request accesses, or the words the owner wrote
	// (WbRep, FlushRep, EvictM).
	Mask    uint64
	Upgrade bool // ExReq: the requester holds a Shared copy
	Data    bool // InvRep, WbRep, FlushRep: the reply carries the line
	// Local marks a request or eviction of the home's own tile that it
	// would serve inline, without messages. The step refuses it, touching
	// nothing, unless the row involves no other tile and no trap under a
	// full-map directory; the tile then sends it as a message.
	Local bool
}

// Txn is the decision state of a line's open transaction: the blocking
// directory keeps at most one per line, and requests arriving meanwhile
// queue behind it.
type Txn struct {
	Open      bool
	Ex        bool // the request is an ExReq
	Upgrade   bool // grant Upg: the requester kept the S copy this grant upgrades
	WaitData  bool // a WbRep or FlushRep from DataFrom is due
	HaveData  bool // the former owner's line arrived; the grant carries it
	Seq       uint64
	Requester arch.TileID
	DataFrom  arch.TileID
	Mask      uint64
	WaitAcks  int32 // InvReps due
}

// Op is one action of a step's result.
type Op uint8

const (
	OpQueue     Op = iota // hold the request until the transaction closes
	OpDrop                // the reply is stale: its transaction is closed
	OpStart               // open the transaction at the request's arrival, numbered Event.Seq
	OpJoin                // the event answers the transaction: its arrival joins the latest one
	OpKeep                // keep the event's line for the grant
	OpInvAll              // invalidate every sharer but To, and forget them (Ref.TakeSharers)
	OpInv                 // invalidate To
	OpWb                  // downgrade the owner To
	OpFlush               // flush the owner To
	OpTrap                // charge a software trap
	OpComplete            // the wait is over: the grant leaves at the latest arrival plus the traps
	OpReadDRAM            // read the line from DRAM for the grant
	OpWriteDRAM           // write the event's line to DRAM
	OpWriteBack           // write the kept line to DRAM, so every Shared copy is clean
	OpGrantSh             // grant To a Shared copy
	OpGrantEx             // grant To the Modified copy
	OpGrantUpg            // grant To the upgrade of its Shared copy, without data
	OpAck                 // acknowledge To's writeback
)

// Action is an Op and the tile it addresses.
type Action struct {
	Op Op
	To arch.TileID
}

// maxActions bounds a result: the longest row is an EvictM that completes
// a read (Ack, WriteDRAM, Join, Keep, Complete, Trap, WriteBack, GrantSh).
const maxActions = 8

// Result is what a step decided: its actions in order and, for a grant,
// the last writer and mask the grant reports (as they were before a write
// grant replaced them). Refused is set, and nothing else, when the step
// refuses a Local event, which the tile then sends as a message.
type Result struct {
	acts    [maxActions]Action
	n       int
	Refused bool
	Writer  arch.TileID
	WMask   uint64
}

// Actions returns the actions in the order they are carried out.
func (r *Result) Actions() []Action { return r.acts[:r.n] }

func (r *Result) add(op Op, to arch.TileID) { r.acts[r.n] = Action{op, to}; r.n++ }

// Step applies one event to a line's directory entry e and its
// transaction tx: it updates both and returns the actions the home
// carries out, in order. It is the home's whole coherence rule (DESIGN.md
// §4): the memory server and the local-home shortcut interpret its
// result, and do no bookkeeping of their own. An event for a closed
// transaction passes tx as it was left. An OpInvAll leaves the sharers it
// invalidates in e, for the caller to take with Ref.TakeSharers.
func Step(e Ref, tx *Txn, ev Event) (r Result) {
	switch ev.Kind {
	case ShReq, ExReq:
		if !tx.Open {
			r.start(e, tx, ev)
		} else if ev.Local {
			r.Refused = true
		} else {
			r.add(OpQueue, ev.Src)
		}
	case EvictS:
		if ev.Local && tx.Open {
			r.Refused = true
			break
		}
		e.RemoveSharer(ev.Src)
	case EvictM:
		if ev.Local && tx.Open {
			r.Refused = true
			break
		}
		r.add(OpAck, ev.Src)
		r.add(OpWriteDRAM, ev.Src)
		if tx.Open && tx.WaitData && tx.DataFrom == ev.Src {
			r.answer(e, tx, ev) // the writeback is the flush the transaction waits for
			r.add(OpJoin, ev.Src)
		} else if e.Owner() == ev.Src {
			release(e, ev)
		}
	default:
		if !tx.Open || tx.Seq != ev.Seq {
			r.add(OpDrop, ev.Src)
			break
		}
		r.add(OpJoin, ev.Src)
		if ev.Kind == InvRep {
			tx.WaitAcks--
			if ev.Data { // defensive: the invalidated copy was Modified
				r.add(OpWriteDRAM, ev.Src)
			}
		} else if !ev.Data {
			if ev.Kind == WbRep {
				// Per-sender FIFO brings the owner's EvictM before its
				// not-present reply, which then matches no open transaction.
				panic("directory: WbRep(notPresent) for open transaction")
			}
			panic("directory: FlushRep(notPresent) for open transaction")
		} else {
			r.answer(e, tx, ev)
		}
	}
	// A transaction that has nothing more due completes.
	if tx.Open && tx.WaitAcks == 0 && !tx.WaitData {
		r.complete(e, tx)
	}
	return
}

// release forgets the owner ev.Src, which wrote ev.Mask last.
func release(e Ref, ev Event) {
	e.SetOwner(arch.InvalidTile)
	e.SetLastWriter(ev.Src)
	e.SetLastWriterMask(ev.Mask)
}

// answer takes the former owner's line: a WbRep, a FlushRep, or an
// EvictM that crossed the request for it.
func (r *Result) answer(e Ref, tx *Txn, ev Event) {
	r.add(OpKeep, ev.Src)
	tx.WaitData, tx.HaveData = false, true
	release(e, ev)
	if ev.Kind == WbRep {
		// The former owner keeps a Shared copy. An M line has no other
		// sharers, so no pointer is reclaimed; should one be, its holder
		// is invalidated rather than left untracked.
		if evict, _ := e.AddSharer(ev.Src); evict != arch.InvalidTile && evict != ev.Src {
			tx.WaitAcks++
			r.add(OpInv, evict)
		}
	}
}

// start opens a transaction for a request on a line without one.
func (r *Result) start(e Ref, tx *Txn, ev Event) {
	owner := e.Owner()
	ex := ev.Kind == ExReq
	others := e.sharerCount()
	if e.ContainsSharer(ev.Src) {
		others--
	}
	if ev.Local && (e.s.kind != config.FullMap || owner != arch.InvalidTile || ex && others > 0) {
		r.Refused = true
		return
	}
	*tx = Txn{Open: true, Ex: ex, Upgrade: ev.Upgrade, Seq: ev.Seq, Requester: ev.Src, Mask: ev.Mask}
	r.add(OpStart, ev.Src)
	if owner != arch.InvalidTile && owner != ev.Src {
		tx.WaitData, tx.DataFrom = true, owner
		if ex {
			r.add(OpFlush, owner)
		} else {
			r.add(OpWb, owner)
		}
		return
	}
	if ex {
		// Upgrade only a Shared copy the directory still tracks.
		tx.Upgrade = tx.Upgrade && e.ContainsSharer(ev.Src)
		if e.InvTrap() {
			r.add(OpTrap, ev.Src)
		}
		if others > 0 {
			tx.WaitAcks = int32(others)
			r.add(OpInvAll, ev.Src) // the caller takes the sharers
			return
		}
		e.ClearSharers()
	}
	r.complete(e, tx)
}

// complete grants the request and closes the transaction, unless a read
// must first invalidate the holder of the pointer it reclaims.
func (r *Result) complete(e Ref, tx *Txn) {
	r.Writer, r.WMask = e.LastWriter(), e.LastWriterMask()
	if !tx.Ex {
		// A limited directory (Dir_iNB) may reclaim a pointer: the
		// displaced sharer must be invalidated before the grant, or it
		// would keep a copy no later invalidation reaches.
		evict, trap := e.AddSharer(tx.Requester)
		if trap {
			r.add(OpTrap, tx.Requester) // charged at OpComplete, as a write's is
		}
		r.add(OpComplete, tx.Requester)
		if evict != arch.InvalidTile && evict != tx.Requester {
			tx.WaitAcks++
			r.add(OpInv, evict)
			return // completes again when the InvRep arrives
		}
		if tx.HaveData {
			r.add(OpWriteBack, tx.Requester)
		} else {
			r.add(OpReadDRAM, tx.Requester)
		}
		r.add(OpGrantSh, tx.Requester)
	} else {
		r.add(OpComplete, tx.Requester)
		e.SetLastWriter(tx.Requester)
		e.SetLastWriterMask(tx.Mask)
		switch {
		case tx.Upgrade && !tx.HaveData:
			r.add(OpGrantUpg, tx.Requester)
		case tx.HaveData:
			r.add(OpGrantEx, tx.Requester)
		default:
			r.add(OpReadDRAM, tx.Requester)
			r.add(OpGrantEx, tx.Requester)
		}
		e.SetOwner(tx.Requester)
	}
	tx.Open = false
}
