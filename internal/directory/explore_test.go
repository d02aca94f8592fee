package directory

import (
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
)

// The explorer checks Step by explicit-state search, in the spirit of
// Murphi or TLC: from the initial state it takes every enabled event in
// every reachable state, and hashes states so that each is expanded once.
// The model is the memory system's: one home, on tile 0, for every line;
// a private cache per tile that runs a bounded program of reads, writes
// (each stores a value no other write stores) and evictions; and a FIFO
// channel per (source tile, destination tile), which tile 0's cache and
// home share, as they share its endpoint. The home steps each message
// through Step and carries out the actions. The cache side is the memory
// server's: applyIntervention answers Inv, Wb and Flush against present
// and absent lines, applyGrant installs Sh, Ex and Upg grants, and an
// eviction sends EvictS or EvictM. Tile 0's cache takes the local-home
// shortcut (Event.Local) whenever no message from tile 0 to itself is in
// flight, which is the runtime's selfInflight guard.
//
// Every home event is also run through the handlers Step replaced
// (oracleHome), on a copy of the entry: the actions, the entry, the
// transaction and the queue must come out the same. In every state the
// search checks:
//
//   - single writer, multiple readers among installed copies;
//   - every copy is tracked: its cache is a sharer or the owner, an
//     invalidation or eviction of it is in flight, or its cache is the
//     requester of the line's open transaction (an upgrade's own copy,
//     cleared from the sharers while the other copies are invalidated);
//   - a read returns the value of the latest write performed (each write
//     is performed in the one writable copy, so the home has ordered it);
//   - where no event is enabled, every program has ended, no cache waits
//     and no transaction is open: every request was answered;
//   - no panic, in the step or in the cache.
//
// Each path is finite: every event runs a program operation or consumes
// a message, and each message is caused by one of the finitely many
// operations.

const (
	maxTiles = 3
	maxLines = 2
	chanCap  = 6 // messages a channel can hold; more is a model error
	home     = 0 // the home tile
)

// op is one operation of a cache's program.
type op struct {
	kind uint8 // opRead, opWrite, opEvict
	line uint8
}

const (
	opRead uint8 = iota
	opWrite
	opEvict
)

func (o op) String() string {
	return fmt.Sprintf("%s l%d", [...]string{"read", "write", "evict"}[o.kind], o.line)
}

// mtype is a message type of the model.
type mtype uint8

const (
	mShReq mtype = iota
	mExReq
	mEvictS
	mEvictM
	mInvRep
	mWbRep
	mFlushRep
	mInvReq
	mWbReq
	mFlushReq
	mShRep
	mExRep
	mUpgRep
	mEvictAck
)

var mnames = [...]string{"ShReq", "ExReq", "EvictS", "EvictM", "InvRep", "WbRep", "FlushRep",
	"InvReq", "WbReq", "FlushReq", "ShRep", "ExRep", "UpgRep", "EvictAck"}

// toHome reports whether the home, not the cache, takes the message.
func (t mtype) toHome() bool { return t <= mFlushRep }

// event is the message's directory event kind (home-bound messages).
func (t mtype) event() EventKind {
	return [...]EventKind{ShReq, ExReq, EvictS, EvictM, InvRep, WbRep, FlushRep}[t]
}

type msg struct {
	typ  mtype
	line uint8
	seq  uint8 // the home transaction an Inv/Wb/Flush or its reply belongs to
	val  uint8 // the line's value, if data
	mask uint8
	data bool
	up   bool // ExReq: the requester holds a Shared copy
}

func (m msg) String() string {
	s := fmt.Sprintf("%s l%d", mnames[m.typ], m.line)
	if m.seq != 0 {
		s += fmt.Sprintf(" #%d", m.seq)
	}
	if m.data {
		s += fmt.Sprintf(" data=%d", m.val)
	}
	if m.up {
		s += " upgrade"
	}
	return s
}

type channel struct {
	n uint8
	m [chanCap]msg
}

const (
	cI uint8 = iota
	cS
	cM
)

type cline struct{ st, val, mask uint8 }

type cacheState struct {
	pc    uint8
	wait  bool // a miss for prog[pc] is outstanding
	lines [maxLines]cline
}

// queued is a request waiting behind a line's open transaction.
type queued struct {
	src  int8
	kind EventKind
	up   bool
	mask uint8
}

// homeLine is a line at its home: its directory entry in compact form
// (rebuilt into a Store to step it), its transaction (zero while
// closed), the requests queued behind it, DRAM, and the line kept for the
// grant.
type homeLine struct {
	owner, writer int8
	wmask         uint8
	ns            uint8
	sharers       [maxTiles]int8 // ForEachSharer order
	cursor        int32
	tx            Txn
	nq            uint8
	q             [maxTiles]queued
	dram, kept    uint8
}

type state struct {
	caches [maxTiles]cacheState
	lines  [maxLines]homeLine
	seq    uint8 // the home's transaction counter
	latest [maxLines]uint8
	ch     [maxTiles][maxTiles]channel
}

// scenario is the programs of the caches, one per tile.
type scenario struct {
	name  string
	lines int
	progs [][]op
}

func (sc scenario) tiles() int { return len(sc.progs) }

// explorer searches one scenario under one directory.
type explorer struct {
	sc    scenario
	seed  maphash.Seed
	seen  map[uint64]struct{}
	path  []string
	rows  map[string]int
	trans int
	// step and oracle are one-entry stores the home's entry is rebuilt
	// into for each event.
	step, oracle Ref
	// failures found: the first of each kind, with its trace.
	mismatch, violation string
	key                 []byte
}

func newExplorer(cfg config.CoherenceConfig, sc scenario) *explorer {
	x := &explorer{sc: sc, seed: maphash.MakeSeed(), seen: map[uint64]struct{}{}, rows: map[string]int{}}
	x.step = NewStore(cfg, sc.tiles(), 1).Alloc()
	x.oracle = NewStore(cfg, sc.tiles(), 1).Alloc()
	return x
}

func (x *explorer) run() {
	var s state
	for l := range s.lines {
		s.lines[l].owner, s.lines[l].writer = -1, -1
	}
	x.visit(&s)
}

// visit checks s and, if it is new, expands it.
func (x *explorer) visit(s *state) {
	if x.violation != "" {
		return
	}
	x.key = s.encode(x.key[:0])
	h := maphash.Bytes(x.seed, x.key)
	if _, ok := x.seen[h]; ok {
		return
	}
	x.seen[h] = struct{}{}
	if msg := x.check(s); msg != "" {
		x.fail(&x.violation, msg)
		return
	}
	enabled := false
	for c := 0; c < x.sc.tiles(); c++ {
		if cs := &s.caches[c]; !cs.wait && int(cs.pc) < len(x.sc.progs[c]) {
			enabled = true
			x.next(s, fmt.Sprintf("tile %d: %v", c, x.sc.progs[c][cs.pc]), func(n *state) { x.run1(n, c) })
		}
	}
	for src := 0; src < x.sc.tiles(); src++ {
		for dst := 0; dst < x.sc.tiles(); dst++ {
			if s.ch[src][dst].n > 0 {
				enabled = true
				label := fmt.Sprintf("deliver %d->%d: %v", src, dst, s.ch[src][dst].m[0])
				x.next(s, label, func(n *state) { x.deliver(n, src, dst) })
			}
		}
	}
	if !enabled {
		if msg := x.final(s); msg != "" {
			x.fail(&x.violation, msg)
		}
	}
}

// next takes one transition from s.
func (x *explorer) next(s *state, label string, apply func(*state)) {
	if x.violation != "" {
		return
	}
	n := *s
	x.path = append(x.path, label)
	defer func() { x.path = x.path[:len(x.path)-1] }()
	x.trans++
	if p := catch(func() { apply(&n) }); p != "" {
		x.fail(&x.violation, "panic: "+p)
		return
	}
	x.visit(&n)
}

func catch(f func()) (p string) {
	defer func() {
		if r := recover(); r != nil {
			p = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

func (x *explorer) fail(into *string, msg string) {
	if *into == "" {
		*into = msg + "\ntrace:\n  " + strings.Join(x.path, "\n  ")
	}
}

func (s *state) send(src, dst int, m msg) {
	c := &s.ch[src][dst]
	if c.n == chanCap {
		panic("model: channel overflow")
	}
	c.m[c.n] = m
	c.n++
}

func (s *state) pop(src, dst int) msg {
	c := &s.ch[src][dst]
	m := c.m[0]
	copy(c.m[:], c.m[1:c.n])
	c.n--
	c.m[c.n] = msg{}
	return m
}

// value is what cache c's write at pc stores: unique across writes.
func value(c int, pc uint8) uint8 { return uint8(c*16) + pc + 1 }

// run1 runs cache c's next operation: a hit, an eviction, or a miss.
func (x *explorer) run1(s *state, c int) {
	cs := &s.caches[c]
	o := x.sc.progs[c][cs.pc]
	ln := &cs.lines[o.line]
	switch {
	case o.kind == opRead && ln.st != cI:
		x.read(s, c, ln.val)
		cs.pc++
	case o.kind == opWrite && ln.st == cM:
		x.write(s, c)
		cs.pc++
	case o.kind == opEvict:
		if ln.st != cI {
			m := msg{typ: mEvictS, line: o.line}
			if ln.st == cM {
				m = msg{typ: mEvictM, line: o.line, val: ln.val, mask: ln.mask, data: true}
			}
			*ln = cline{}
			if c != home || s.ch[home][home].n > 0 || !x.local(s, c, m) {
				s.send(c, home, m)
			}
		}
		cs.pc++
	default:
		m := msg{typ: mShReq, line: o.line}
		if o.kind == opWrite {
			m = msg{typ: mExReq, line: o.line, mask: 1 << c, up: ln.st == cS}
		}
		cs.wait = true
		if c != home || s.ch[home][home].n > 0 || !x.local(s, c, m) {
			s.send(c, home, m)
		}
	}
}

// read checks a read that performs now and returns v.
func (x *explorer) read(s *state, c int, v uint8) {
	o := x.sc.progs[c][s.caches[c].pc]
	if v != s.latest[o.line] {
		panic(fmt.Sprintf("tile %d read %d from line %d, whose latest write stored %d", c, v, o.line, s.latest[o.line]))
	}
}

// write performs cache c's write in its Modified copy.
func (x *explorer) write(s *state, c int) {
	cs := &s.caches[c]
	o := x.sc.progs[c][cs.pc]
	ln := &cs.lines[o.line]
	ln.val = value(c, cs.pc)
	ln.mask |= 1 << c
	s.latest[o.line] = ln.val
}

// deliver takes the head of the channel src->dst.
func (x *explorer) deliver(s *state, src, dst int) {
	m := s.pop(src, dst)
	if m.typ.toHome() {
		x.home(s, src, m)
		return
	}
	cs := &s.caches[dst]
	ln := &cs.lines[m.line]
	switch m.typ {
	case mInvReq, mFlushReq:
		rep := msg{typ: mInvRep, line: m.line, seq: m.seq}
		if m.typ == mFlushReq {
			rep.typ = mFlushRep
		}
		if ln.st != cI && (m.typ == mFlushReq || ln.st == cM) {
			rep.val, rep.mask, rep.data = ln.val, ln.mask, true
		}
		*ln = cline{}
		s.send(dst, src, rep)
	case mWbReq:
		rep := msg{typ: mWbRep, line: m.line, seq: m.seq}
		if ln.st != cI {
			rep.val, rep.mask, rep.data = ln.val, ln.mask, true
			ln.st = cS
		}
		s.send(dst, src, rep)
	case mShRep, mExRep, mUpgRep:
		x.grant(s, dst, m)
	case mEvictAck:
	}
}

// grant applies a grant to the waiting cache c, as applyGrant does.
func (x *explorer) grant(s *state, c int, m msg) {
	cs := &s.caches[c]
	o := x.sc.progs[c][cs.pc]
	if !cs.wait || o.line != m.line {
		panic(fmt.Sprintf("tile %d: %v with no miss outstanding for it", c, m))
	}
	ln := &cs.lines[m.line]
	switch m.typ {
	case mUpgRep:
		if ln.st != cS {
			panic("memsys: upgrade grant for absent line")
		}
		ln.st = cM
	case mShRep:
		*ln = cline{st: cS, val: m.val}
	case mExRep:
		*ln = cline{st: cM, val: m.val}
	}
	if o.kind == opWrite {
		x.write(s, c)
	} else {
		x.read(s, c, ln.val)
	}
	cs.wait = false
	cs.pc++
}

// event is the directory event of a home-bound message from src.
func (s *state) event(src int, m msg) Event {
	ev := Event{Kind: m.typ.event(), Src: arch.TileID(src), Seq: uint64(m.seq), Mask: uint64(m.mask), Upgrade: m.up, Data: m.data}
	if ev.Kind <= ExReq {
		ev.Seq = uint64(s.seq) + 1
	}
	return ev
}

// restore rebuilds line l's entry into e.
func (hl *homeLine) restore(e Ref) {
	e.ClearSharers()
	for _, t := range hl.sharers[:hl.ns] {
		e.AddSharer(arch.TileID(t))
	}
	e.SetOwner(arch.TileID(hl.owner))
	e.SetLastWriter(arch.TileID(hl.writer))
	e.SetLastWriterMask(uint64(hl.wmask))
	e.SetCursor(hl.cursor)
}

// capture stores e back into the line.
func (hl *homeLine) capture(e Ref) {
	hl.owner, hl.writer, hl.wmask = int8(e.Owner()), int8(e.LastWriter()), uint8(e.LastWriterMask())
	hl.ns = 0
	hl.sharers = [maxTiles]int8{}
	e.ForEachSharer(func(t arch.TileID) {
		hl.sharers[hl.ns] = int8(t)
		hl.ns++
	})
	hl.cursor = e.Cursor()
}

// grantAct is an action as compared against the oracle: an OpInvAll is
// expanded into one OpInv per invalidee, and a grant carries the last
// writer and mask it reports.
type grantAct struct {
	Action
	writer arch.TileID
	wmask  uint64
}

// home steps a home-bound message from src through Step, carries out the
// actions, replays the requests queued behind a transaction it closed,
// and checks all of it against the oracle.
func (x *explorer) home(s *state, src int, m msg) {
	l := m.line
	hl := &s.lines[l]
	pre := *hl
	o := x.oracleFor(s, l)
	ev := s.event(src, m)
	first := ev
	var acts []grantAct
	for {
		hl.restore(x.step)
		preOwner := x.step.Owner()
		res := Step(x.step, &hl.tx, ev)
		exp := x.expand(&res)
		x.classify(ev, preOwner, exp)
		x.apply(s, l, ev, m, src, &res, exp)
		hl.capture(x.step)
		acts = append(acts, exp...)
		if hl.tx.Open || hl.nq == 0 {
			break
		}
		q := hl.q[0]
		copy(hl.q[:], hl.q[1:hl.nq])
		hl.nq--
		hl.q[hl.nq] = queued{}
		ev = Event{Kind: q.kind, Src: arch.TileID(q.src), Seq: uint64(s.seq) + 1, Mask: uint64(q.mask), Upgrade: q.up}
		m, src = msg{typ: mtype(q.kind), line: l, mask: q.mask, up: q.up}, int(q.src)
	}
	if !hl.tx.Open {
		hl.tx, hl.kept = Txn{}, 0
	}
	if p := catch(func() { o.event(first) }); p != "" {
		x.fail(&x.mismatch, "oracle panicked: "+p)
	}
	x.compare(s, l, &pre, o, acts)
}

// oracleFor sets the oracle up on line l as s has it.
func (x *explorer) oracleFor(s *state, l uint8) *oracleHome {
	hl := &s.lines[l]
	hl.restore(x.oracle)
	o := &oracleHome{e: x.oracle, homeSeq: uint64(s.seq)}
	if tx := hl.tx; tx.Open {
		o.busy = &oracleTxn{homeSeq: tx.Seq, reqType: ShReq, requester: tx.Requester, reqMask: tx.Mask, upgrade: tx.Upgrade,
			waitAcks: int(tx.WaitAcks), waitData: tx.WaitData, dataFrom: tx.DataFrom, haveData: tx.HaveData}
		if tx.Ex {
			o.busy.reqType = ExReq
		}
	}
	for _, q := range hl.q[:hl.nq] {
		o.pending = append(o.pending, Event{Kind: q.kind, Src: arch.TileID(q.src), Mask: uint64(q.mask), Upgrade: q.up})
	}
	return o
}

var opNames = [...]string{"Queue", "Drop", "Start", "Join", "Keep", "InvAll", "Inv", "Wb", "Flush", "Trap",
	"Complete", "ReadDRAM", "WriteDRAM", "WriteBack", "GrantSh", "GrantEx", "GrantUpg", "Ack"}

func (g grantAct) String() string {
	s := fmt.Sprintf("%s(%d)", opNames[g.Op], g.To)
	if g.Op >= OpGrantSh && g.Op <= OpGrantUpg {
		s += fmt.Sprintf("[writer %d mask %#x]", g.writer, g.wmask)
	}
	return s
}

// expand lists a result's actions as compared against the oracle.
func (x *explorer) expand(res *Result) []grantAct {
	var out []grantAct
	for _, a := range res.Actions() {
		if a.Op == OpInvAll {
			x.step.TakeSharers(a, func(t arch.TileID) { out = append(out, grantAct{Action: Action{OpInv, t}}) })
			continue
		}
		g := grantAct{Action: a}
		if a.Op >= OpGrantSh && a.Op <= OpGrantUpg {
			g.writer, g.wmask = res.Writer, res.WMask
		}
		out = append(out, g)
	}
	return out
}

// apply carries out one step's actions on the model, as the memory
// server's homeStep does.
func (x *explorer) apply(s *state, l uint8, ev Event, m msg, src int, res *Result, acts []grantAct) {
	hl := &s.lines[l]
	var grant uint8
	for _, a := range acts {
		to := int(a.To)
		switch a.Op {
		case OpQueue:
			if int(hl.nq) == len(hl.q) {
				panic("model: queue overflow")
			}
			hl.q[hl.nq] = queued{src: int8(src), kind: ev.Kind, up: m.up, mask: m.mask}
			hl.nq++
		case OpStart:
			s.seq = uint8(ev.Seq)
		case OpKeep:
			hl.kept = m.val
		case OpInv, OpWb, OpFlush:
			s.send(home, to, msg{typ: mInvReq + mtype(a.Op-OpInv), line: l, seq: uint8(hl.tx.Seq)})
		case OpComplete:
			grant = hl.kept
		case OpReadDRAM:
			grant = hl.dram
		case OpWriteDRAM:
			hl.dram = m.val
		case OpWriteBack:
			hl.dram = hl.kept
		case OpGrantSh, OpGrantEx:
			s.send(home, to, msg{typ: mShRep + mtype(a.Op-OpGrantSh), line: l, val: grant, data: true})
		case OpGrantUpg:
			s.send(home, to, msg{typ: mUpgRep, line: l})
		case OpAck:
			s.send(home, to, msg{typ: mEvictAck, line: l})
		}
	}
}

// compare checks the step's outcome of one home event, left in s, against
// the oracle's.
func (x *explorer) compare(s *state, l uint8, pre *homeLine, o *oracleHome, acts []grantAct) {
	hl := &s.lines[l]
	var want []grantAct
	for _, a := range o.acts {
		g := grantAct{Action: a}
		if a.Op >= OpGrantSh && a.Op <= OpGrantUpg {
			g.writer, g.wmask = o.writer, o.wmask
		}
		want = append(want, g)
	}
	var ohl homeLine
	ohl.capture(o.e)
	// The oracle keeps no DRAM, and its transaction and queue are compared below.
	ohl.tx, ohl.nq, ohl.q, ohl.dram, ohl.kept = hl.tx, hl.nq, hl.q, hl.dram, hl.kept
	var diffs []string
	if !slices.Equal(acts, want) {
		diffs = append(diffs, fmt.Sprintf("actions %v, oracle %v", acts, want))
	}
	if ohl != *hl {
		diffs = append(diffs, fmt.Sprintf("entry %+v, oracle %+v (before %+v)", *hl, ohl, *pre))
	}
	if tx := o.busy; (tx != nil) != hl.tx.Open || tx != nil && (tx.homeSeq != hl.tx.Seq || tx.requester != hl.tx.Requester ||
		tx.reqType == ExReq != hl.tx.Ex || tx.upgrade != hl.tx.Upgrade || tx.waitAcks != int(hl.tx.WaitAcks) ||
		tx.waitData != hl.tx.WaitData || tx.dataFrom != hl.tx.DataFrom || tx.haveData != hl.tx.HaveData) {
		diffs = append(diffs, fmt.Sprintf("transaction %+v, oracle %+v", hl.tx, o.busy))
	}
	if len(o.pending) != int(hl.nq) || o.homeSeq != uint64(s.seq) {
		diffs = append(diffs, fmt.Sprintf("queue %d / seq %d, oracle %d / %d", hl.nq, s.seq, len(o.pending), o.homeSeq))
	}
	if len(diffs) > 0 {
		x.fail(&x.mismatch, "step and oracle differ: "+strings.Join(diffs, "; "))
	}
}

// local takes tile 0's request or eviction through the local-home
// shortcut, if the step serves it, and checks the step's decision
// against the oracle's. ok reports that it did.
func (x *explorer) local(s *state, c int, m msg) (ok bool) {
	l := m.line
	hl := &s.lines[l]
	pre := *hl
	o := x.oracleFor(s, l)
	ev := s.event(c, m)
	ev.Local = true
	hl.restore(x.step)
	preOwner := x.step.Owner()
	res := Step(x.step, &hl.tx, ev)
	exp := x.expand(&res)
	x.classify(ev, preOwner, exp)
	if res.Refused {
		x.rows["Refuse"]++
	}
	var want bool
	if ev.Kind <= ExReq {
		want = o.localMiss(ev)
	} else {
		want = o.localEvict(ev)
	}
	// The shortcut acts on the DRAM access and the grant only.
	var acts []grantAct
	for _, a := range exp {
		switch a.Op {
		case OpReadDRAM, OpWriteDRAM, OpGrantSh, OpGrantEx, OpGrantUpg:
			acts = append(acts, a)
		}
	}
	if want == res.Refused {
		x.fail(&x.mismatch, fmt.Sprintf("local %v: step refused %v, oracle refused %v", m, res.Refused, !want))
	}
	if res.Refused {
		return false
	}
	hl.capture(x.step)
	hl.tx = Txn{}
	x.compare(s, l, &pre, o, acts)
	for _, a := range acts {
		switch a.Op {
		case OpWriteDRAM:
			hl.dram = m.val
		case OpGrantSh, OpGrantEx:
			x.grant(s, c, msg{typ: mShRep + mtype(a.Op-OpGrantSh), line: l, val: hl.dram, data: true})
		case OpGrantUpg:
			x.grant(s, c, msg{typ: mUpgRep, line: l})
		}
	}
	return true
}

// final checks a state where no event is enabled.
func (x *explorer) final(s *state) string {
	for c := 0; c < x.sc.tiles(); c++ {
		if cs := s.caches[c]; cs.wait || int(cs.pc) < len(x.sc.progs[c]) {
			return fmt.Sprintf("deadlock: tile %d waits on %v with no event enabled", c, x.sc.progs[c][cs.pc])
		}
	}
	for l := 0; l < x.sc.lines; l++ {
		if s.lines[l].tx.Open || s.lines[l].nq > 0 {
			return fmt.Sprintf("line %d: a transaction is open with no event enabled", l)
		}
	}
	return ""
}

// check tests the invariants of one state.
func (x *explorer) check(s *state) string {
	for l := 0; l < x.sc.lines; l++ {
		hl := &s.lines[l]
		var readers, writers []int
		for c := 0; c < x.sc.tiles(); c++ {
			switch s.caches[c].lines[l].st {
			case cS:
				readers = append(readers, c)
			case cM:
				writers = append(writers, c)
			}
		}
		if len(writers) > 1 || len(writers) == 1 && len(readers) > 0 {
			return fmt.Sprintf("line %d: writers %v and readers %v at once", l, writers, readers)
		}
		for _, c := range append(readers, writers...) {
			tracked := int(hl.owner) == c || slices.Contains(hl.sharers[:hl.ns], int8(c)) ||
				hl.tx.Open && int(hl.tx.Requester) == c
			for _, m := range s.ch[home][c].m[:s.ch[home][c].n] {
				tracked = tracked || m.line == uint8(l) && (m.typ == mInvReq || m.typ == mFlushReq)
			}
			for _, m := range s.ch[c][home].m[:s.ch[c][home].n] {
				tracked = tracked || m.line == uint8(l) && (m.typ == mEvictS || m.typ == mEvictM)
			}
			if !tracked {
				return fmt.Sprintf("line %d: tile %d holds a copy the directory does not track (owner %d, sharers %v)",
					l, c, hl.owner, hl.sharers[:hl.ns])
			}
		}
	}
	return ""
}

// classify counts the rows of the step a result took (the names of
// DESIGN.md §4), from the event, the owner before it, and the actions.
func (x *explorer) classify(ev Event, preOwner arch.TileID, acts []grantAct) {
	has := func(op Op) int {
		return slices.IndexFunc(acts, func(a grantAct) bool { return a.Op == op })
	}
	row := func(r string) { x.rows[r]++ }
	switch ev.Kind {
	case ShReq, ExReq:
		switch {
		case has(OpQueue) >= 0:
			row("Queue")
		case has(OpStart) < 0:
		case preOwner == ev.Src:
			row("OwnRequest")
		case has(OpWb) >= 0:
			row("ShOwner")
		case has(OpFlush) >= 0:
			row("ExOwner")
		}
		if ev.Kind == ExReq && has(OpTrap) == 1 {
			row("ExTrap")
		}
		if ev.Kind == ExReq && has(OpInv) >= 0 && (has(OpComplete) < 0 || has(OpInv) < has(OpComplete)) {
			row("ExInv")
		}
	case InvRep, WbRep, FlushRep:
		switch {
		case has(OpDrop) >= 0:
			row("Stale")
		case ev.Kind == InvRep && has(OpWriteDRAM) >= 0:
			row("InvData")
		case ev.Kind == InvRep:
			row("InvAck")
		case ev.Kind == WbRep:
			row("Wb")
			if i := has(OpInv); i >= 0 && (has(OpComplete) < 0 || i < has(OpComplete)) {
				row("WbReclaim")
			}
		default:
			row("Flush")
		}
	case EvictS:
		row("EvictS")
	case EvictM:
		switch {
		case has(OpKeep) >= 0:
			row("EvictMFlush")
		case preOwner == ev.Src:
			row("EvictMOwner")
		case has(OpAck) >= 0:
			row("EvictMStale")
		}
	}
	i := has(OpComplete)
	if i < 0 {
		return
	}
	after := acts[i+1:]
	next := func(op Op) bool { return slices.IndexFunc(after, func(a grantAct) bool { return a.Op == op }) >= 0 }
	switch {
	case next(OpInv):
		row("ShReclaim")
	case next(OpWriteBack):
		row("ShData")
	case next(OpGrantSh):
		row("ShDRAM")
	case next(OpGrantUpg):
		row("Upg")
	case next(OpReadDRAM):
		row("ExDRAM")
	default:
		row("ExData")
	}
	if !next(OpGrantEx) && !next(OpGrantUpg) && i > 0 && acts[i-1].Op == OpTrap {
		row("ShTrap")
	}
}

// rowNames are the rows of the step (DESIGN.md §4).
var rowNames = []string{"Queue", "Refuse", "OwnRequest", "ShOwner", "ExOwner", "ExInv", "ExTrap",
	"Stale", "InvAck", "InvData", "Wb", "WbReclaim", "WbAbsent", "Flush", "FlushAbsent", "EvictS",
	"EvictMFlush", "EvictMOwner", "EvictMStale", "ShReclaim", "ShTrap", "ShDRAM", "ShData", "Upg", "ExDRAM", "ExData"}

// encode appends a canonical encoding of s.
func (s *state) encode(b []byte) []byte {
	for _, c := range s.caches {
		b = append(b, c.pc, boolByte(c.wait))
		for _, l := range c.lines {
			b = append(b, l.st, l.val, l.mask)
		}
	}
	for _, hl := range s.lines {
		b = append(b, byte(hl.owner), byte(hl.writer), hl.wmask, hl.ns)
		for _, t := range hl.sharers {
			b = append(b, byte(t))
		}
		b = binary.LittleEndian.AppendUint32(b, uint32(hl.cursor))
		tx := hl.tx
		b = append(b, boolByte(tx.Open), boolByte(tx.Ex), boolByte(tx.Upgrade), boolByte(tx.WaitData), boolByte(tx.HaveData),
			byte(tx.Seq), byte(tx.Requester), byte(tx.DataFrom), byte(tx.Mask), byte(tx.WaitAcks), hl.nq)
		for _, q := range hl.q[:hl.nq] {
			b = append(b, byte(q.src), byte(q.kind), boolByte(q.up), q.mask)
		}
		b = append(b, hl.dram, hl.kept)
	}
	b = append(b, s.seq)
	b = append(b, s.latest[:]...)
	for i := range s.ch {
		for j := range s.ch[i] {
			c := &s.ch[i][j]
			b = append(b, c.n)
			for _, m := range c.m[:c.n] {
				b = append(b, byte(m.typ), m.line, m.seq, m.val, m.mask, boolByte(m.data), boolByte(m.up))
			}
		}
	}
	return b
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// exploreScenarios cover, between them, every row the protocol reaches:
// reads and writes racing on one line among two and three tiles, and
// two lines with evictions crossing requests for them. The first is
// small, so that a violation it shows has a short trace.
var exploreScenarios = []scenario{
	{"2 tiles, 1 line, short", 1, [][]op{
		{{opRead, 0}, {opWrite, 0}},
		{{opRead, 0}, {opWrite, 0}},
	}},
	{"2 tiles, 1 line", 1, [][]op{
		{{opRead, 0}, {opWrite, 0}, {opEvict, 0}, {opRead, 0}, {opWrite, 0}, {opEvict, 0}},
		{{opWrite, 0}, {opRead, 0}, {opEvict, 0}, {opWrite, 0}, {opRead, 0}, {opWrite, 0}},
	}},
	{"3 tiles, 1 line", 1, [][]op{
		{{opRead, 0}, {opWrite, 0}, {opRead, 0}, {opEvict, 0}},
		{{opRead, 0}, {opWrite, 0}, {opEvict, 0}, {opRead, 0}},
		{{opRead, 0}, {opEvict, 0}, {opRead, 0}, {opWrite, 0}},
	}},
	{"3 tiles, 2 lines", 2, [][]op{
		{{opWrite, 0}, {opRead, 1}, {opEvict, 0}, {opWrite, 1}},
		{{opRead, 0}, {opWrite, 1}, {opRead, 0}, {opEvict, 1}},
		{{opRead, 1}, {opRead, 0}, {opEvict, 1}, {opWrite, 0}},
	}},
}

var exploreKinds = []struct {
	cfg config.CoherenceConfig
	// unreached are the rows no path reaches: the defensive rows, which
	// the protocol's orderings rule out, and the rows of other kinds.
	unreached []string
}{
	{config.CoherenceConfig{Kind: config.FullMap}, []string{"ExTrap", "ShReclaim", "ShTrap"}},
	{config.CoherenceConfig{Kind: config.LimitedNB, DirPointers: 1}, []string{"ExTrap", "ShTrap"}},
	{config.CoherenceConfig{Kind: config.LimitLESS, DirPointers: 1}, []string{"ShReclaim"}},
}

// defensiveRows are unreachable under every kind: the owner never
// requests its own line (its EvictM arrives first), an invalidated copy
// is never Modified, a Modified line has no sharers for a WbRep to
// displace, per-sender FIFO brings an owner's EvictM before its
// not-present WbRep or FlushRep and before any request that could move
// the ownership on.
var defensiveRows = []string{"OwnRequest", "InvData", "WbReclaim", "WbAbsent", "FlushAbsent", "EvictMStale"}

// TestExploreStep explores every scenario under the full map, Dir_1NB
// and LimitLESS(1), and reports the states explored per kind and the
// rows of the step that no path reached, which must be the expected ones.
func TestExploreStep(t *testing.T) {
	for _, k := range exploreKinds {
		cfg := k.cfg
		t.Run(cfg.Kind.String(), func(t *testing.T) {
			start := time.Now()
			rows := map[string]int{}
			states, trans := 0, 0
			for _, sc := range exploreScenarios {
				x := newExplorer(cfg, sc)
				x.run()
				if x.violation != "" {
					t.Errorf("%s: %s", sc.name, x.violation)
				}
				if x.mismatch != "" {
					t.Errorf("%s: %s", sc.name, x.mismatch)
				}
				states += len(x.seen)
				trans += x.trans
				for r, n := range x.rows {
					rows[r] += n
				}
			}
			var never []string
			for _, r := range rowNames {
				if rows[r] == 0 {
					never = append(never, r)
				}
			}
			t.Logf("%d states, %d transitions in %v; rows never reached: %v", states, trans, time.Since(start).Round(time.Millisecond), never)
			want := append(slices.Clone(defensiveRows), k.unreached...)
			slices.Sort(want)
			slices.Sort(never)
			if !slices.Equal(never, want) {
				t.Errorf("rows never reached %v, want %v", never, want)
			}
		})
	}
}
