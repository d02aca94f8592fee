package directory

import (
	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/stats"
)

// Copy is one line at a requesting cache: its L2 state and its history,
// which classifies the line's next miss.
type Copy struct {
	State cache.State
	Hist  Hist
}

// Hist is a line's miss history at a cache.
type Hist uint8

const (
	Seen        Hist = 1 << iota // granted at least once: a later miss is not cold
	Invalidated                  // invalidated since its last grant
)

// CacheEventKind is what reaches a line at a requesting cache: a miss of
// its thread, a message from the home, or an eviction.
type CacheEventKind uint8

const (
	ReadMiss  CacheEventKind = iota // a load finds no copy
	WriteMiss                       // a store finds no Modified copy
	FetchMiss                       // an instruction fetch finds no copy
	ShRep                           // the home grants a Shared copy
	ExRep                           // the home grants the Modified copy
	UpgRep                          // the home upgrades the Shared copy, without data
	InvReq                          // the home invalidates a copy
	WbReq                           // the home downgrades its owner
	FlushReq                        // the home takes its owner's copy
	Evict                           // the L2 gives the copy up for another line
)

// CacheEvent is one input of CacheStep. A grant carries the miss it
// completes and what classifies it: the cache's own tile, the words the
// miss accesses, and the line's last writer and the words it wrote, as
// the home reports them.
type CacheEvent struct {
	Kind   CacheEventKind
	Miss   CacheEventKind // a grant: ReadMiss, WriteMiss or FetchMiss
	Self   arch.TileID
	Mask   uint64
	Writer arch.TileID
	WMask  uint64
}

// CacheOp is one action of a requester step.
type CacheOp uint8

const (
	SendShReq    CacheOp = iota // request a Shared copy
	SendExReq                   // request the Modified copy (CacheResult.Upgrade)
	SendInvRep                  // answer an InvReq (CacheResult.Data, Absent)
	SendWbRep                   // answer a WbReq
	SendFlushRep                // answer a FlushReq
	SendEvictS                  // tell the home a Shared copy is gone
	SendEvictM                  // write the Modified copy back
	Install                     // put the granted line in the L2 at Copy.State
	Upgrade                     // make the Shared copy Modified in place
	Downgrade                   // make the Modified copy Shared and clean
	Drop                        // invalidate the L2 copy
	InvL1                       // invalidate the L1 copies
	FillL1D                     // put the line in the L1D
	FillL1I                     // put the line in the L1I
	DoRead                      // perform the miss's load or fetch
	DoWrite                     // perform the miss's store
	CountMiss                   // count a data miss of CacheResult.Kind
	CountFetch                  // count an instruction-fetch miss
	CountUpgrade                // count an upgrade
)

// maxCacheActions bounds a requester result: the longest rows are a read
// grant (Install, DoRead, FillL1D, CountMiss) and an upgrade.
const maxCacheActions = 4

// CacheResult is what a requester step decided: its actions in order, the
// request's upgrade flag, whether a reply carries the line or says the
// copy is absent, and the kind of a counted miss.
type CacheResult struct {
	acts    [maxCacheActions]CacheOp
	n       int
	Upgrade bool
	Data    bool
	Absent  bool
	Kind    stats.MissKind
}

// Actions returns the actions in the order they are carried out.
func (r *CacheResult) Actions() []CacheOp { return r.acts[:r.n] }

func (r *CacheResult) add(ops ...CacheOp) {
	for _, op := range ops {
		r.acts[r.n] = op
		r.n++
	}
}

// CacheStep applies one event to a line's copy c at a requesting cache:
// it updates c and returns the actions the cache carries out, in order.
// It is the requester's whole coherence rule (DESIGN.md §4), the
// counterpart of Step: the memory server and the thread's miss path
// interpret its result, and keep the arrays, the line's bytes, the
// timing and the messages. It runs on misses, grants, interventions and
// evictions, never on a hit. Misses and evictions neither read nor
// change c.Hist, so their callers may leave it zero.
func CacheStep(c *Copy, ev CacheEvent) (r CacheResult) {
	switch ev.Kind {
	case ReadMiss, FetchMiss:
		if c.State != cache.Invalid {
			panic("directory: a read misses on a present copy")
		}
		r.add(SendShReq)
	case WriteMiss:
		if c.State == cache.Modified {
			panic("directory: a write misses on a Modified copy")
		}
		r.Upgrade = c.State == cache.Shared
		r.add(SendExReq)
	case ShRep, ExRep:
		if ev.Kind == ShRep && ev.Miss == WriteMiss {
			panic("directory: a Shared grant for a write miss")
		}
		if c.State != cache.Invalid {
			// A miss that found a Shared copy gets an upgrade, unless an
			// InvReq dropped the copy first: the home sent it before the
			// grant.
			panic("directory: a grant with data finds a present copy")
		}
		c.State = cache.Shared
		if ev.Kind == ExRep {
			c.State = cache.Modified
		}
		r.add(Install)
		switch ev.Miss {
		case WriteMiss:
			r.add(DoWrite)
		case ReadMiss:
			r.add(DoRead, FillL1D)
		default:
			r.add(DoRead, FillL1I, CountFetch)
		}
		if ev.Miss != FetchMiss {
			r.Kind = classify(c.Hist, ev)
			r.add(CountMiss)
		}
		c.Hist = Seen
	case UpgRep:
		if c.State != cache.Shared || ev.Miss != WriteMiss {
			// The home serializes per line: nothing can invalidate the copy
			// between the upgrade grant and its arrival (an invalidation
			// racing the upgrade demotes it to a full ExRep instead).
			panic("directory: an upgrade grant finds no Shared copy to upgrade")
		}
		c.State = cache.Modified
		r.add(Upgrade, DoWrite, CountUpgrade)
	case InvReq:
		switch c.State {
		case cache.Invalid:
			r.Absent = true
		case cache.Modified:
			// The home invalidates only sharers, and a copy becomes
			// Modified only by a grant that waited for every sharer's
			// InvRep, so the InvReq that reaches it was answered first.
			panic("directory: an InvReq finds a Modified copy")
		default:
			r.drop(c)
		}
		r.add(SendInvRep)
	case WbReq, FlushReq:
		switch c.State {
		case cache.Invalid:
			// The owner's EvictM went first: the home takes it as the
			// data it waits for, and drops this reply as stale.
			r.Absent = true
		case cache.Shared:
			// Only the owner gets a WbReq or FlushReq, and it holds the
			// Modified copy until one of them or its EvictM is served.
			panic("directory: a WbReq or FlushReq finds a Shared copy")
		default:
			r.Data = true
			if ev.Kind == WbReq {
				c.State = cache.Shared
				r.add(Downgrade)
			} else {
				r.drop(c)
			}
		}
		r.add(SendWbRep + CacheOp(ev.Kind-WbReq))
	case Evict:
		if c.State == cache.Invalid {
			panic("directory: evicting an absent copy")
		}
		r.add(InvL1, SendEvictS+CacheOp(c.State-cache.Shared))
		c.State = cache.Invalid
	}
	return
}

// drop invalidates the copy, after which its next miss is a coherence
// miss.
func (r *CacheResult) drop(c *Copy) {
	c.State = cache.Invalid
	c.Hist |= Invalidated
	r.add(Drop, InvL1)
}

// classify is a data miss's kind (paper §4.4, Figure 8): cold before the
// line's first grant, a coherence miss after an invalidation (true
// sharing when another tile last wrote a word the miss accesses), and a
// capacity miss otherwise.
func classify(h Hist, ev CacheEvent) stats.MissKind {
	switch {
	case h&Seen == 0:
		return stats.MissCold
	case h&Invalidated == 0:
		return stats.MissCapacity
	case ev.Writer != ev.Self && ev.Writer != arch.InvalidTile && ev.WMask&ev.Mask != 0:
		return stats.MissTrueSharing
	}
	return stats.MissFalseSharing
}
