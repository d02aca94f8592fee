package synchro

import (
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
)

// The explorer checks the LaxBarrier round by explicit-state search, in
// the spirit of Murphi or TLC: from the initial state it takes every
// enabled event in every reachable state, and hashes states so that each
// is expanded once. The model is the runtime's: application threads on
// tiles spread over two processes, each process's ledger (a Round over
// its tiles, flushing Round.Batch), and the MCP (a Round over every tile,
// releasing Round.Next) with one application mutex. Messages travel on
// FIFO channels: process to MCP, MCP to ledger (releases), MCP to tile
// (lock grants), and tile to tile (application messages). A process's
// tiles and its ledger share one channel to the MCP, because every
// transport delivers a process's sends to the MCP's one mailbox in send
// order. A ledger sends its batch outside its lock, so a batch another
// tile's transition completed can still trail a tile's later messages:
// the model holds a taken batch in the outbox of the tile that took it,
// and sends it, then that tile's request, in a later event. Every event
// runs an operation of a bounded program or consumes a message, and each
// message is produced by one of the finitely many operations or by
// consuming another, so every path ends; the search checks the
// properties on every transition and every final state.

// op is one operation of a tile's program.
type op uint8

const (
	opWait   op = iota // wait at the barrier's next epoch
	opLock             // take the mutex: an MCP call that blocks while another tile holds it
	opUnlock           // release the mutex: a notification to the MCP
	opRecv             // receive an application message, blocking until one arrives
	opSend             // send an application message to tile arg
	opExit             // return
)

type instr struct {
	op  op
	arg int8
}

func (i instr) String() string {
	switch i.op {
	case opWait:
		return "wait"
	case opLock:
		return "lock"
	case opUnlock:
		return "unlock"
	case opRecv:
		return "recv"
	case opSend:
		return fmt.Sprintf("send to %d", i.arg)
	}
	return "exit"
}

// scenario is the programs of the tiles and the process of each.
type scenario struct {
	name  string
	procs []int
	progs [][]instr
}

// thread is where a tile's thread is.
type thread uint8

const (
	thRun    thread = iota // running its program
	thLedger               // parked at its ledger
	thCall                 // parked in an MCP call
	thRecv                 // parked in an application receive
	thExit                 // returned
)

// release is one MCP release: the epoch and the processes it goes to.
type release struct {
	epoch int64
	procs uint8
}

// rule is the MCP's LaxBarrier service as mcp.Server drives it: heard on
// every packet from a tile, block when a service queues the tile, unblock
// when it replies to a queued tile, exit, and each ledger batch.
type rule interface {
	heard(arch.TileID)
	block(arch.TileID) []release
	unblock(arch.TileID)
	exit(arch.TileID) []release
	batch([]EpochWait) []release
}

// roundRule is mcp.Server's use of Round.
type roundRule struct {
	r    *Round
	proc func(arch.TileID) int
}

func (m *roundRule) heard(t arch.TileID)   { m.r.Step(t, Resume, 0) }
func (m *roundRule) unblock(t arch.TileID) { m.r.Step(t, Resume, 0) }

func (m *roundRule) block(t arch.TileID) []release {
	m.r.Step(t, Block, 0)
	return m.recheck()
}

func (m *roundRule) exit(t arch.TileID) []release {
	m.r.Step(t, Exited, 0)
	return m.recheck()
}

func (m *roundRule) batch(ws []EpochWait) []release {
	for _, w := range ws {
		if w.Epoch >= 0 {
			m.r.Step(w.Tile, Waited, w.Epoch)
		} else {
			m.r.Step(w.Tile, Recv, 0)
		}
	}
	return m.recheck()
}

func (m *roundRule) recheck() []release {
	epoch, ok := m.r.Next()
	low, waiting := int64(-1), false
	for _, t := range m.r.tiles {
		if t.state == Waiting && (!waiting || t.epoch < low) {
			low, waiting = t.epoch, true
		}
	}
	if ok != (waiting && m.r.Count(Running) == 0) || ok && epoch != low {
		fail("Next gives (%d, %v) with the lowest wait %d (any %v) and %d running", epoch, ok, low, waiting, m.r.Count(Running))
	}
	if !ok {
		return nil
	}
	rel := release{epoch: epoch}
	m.r.Release(epoch, func(t arch.TileID) { rel.procs |= 1 << m.proc(t) })
	return []release{rel}
}

// world is one state of the model.
type world struct {
	sc     *scenario
	th     []thread
	pc     []int8
	epoch  []int64 // the epoch of the tile's last wait
	sent   []int64 // the epoch of the tile's last wait its ledger sent
	rel    []int64 // the epoch the tile was last released from
	ledger []*Round
	mcp    rule
	shadow *oracle // the old rule on the same inputs, or nil

	holder int8 // the mutex's holder, or -1
	queue  []int8

	outbox   [][]mcpMsg // by tile: what its thread has yet to send
	toMCP    [][]mcpMsg // by process
	releases [][]int64  // by process
	grants   []int8     // by tile
	app      []int8     // by source × tiles + destination: messages in flight
}

// mcpMsg is a tile's request (lock, unlock or exit) or, with a batch, a
// ledger's batch.
type mcpMsg struct {
	tile  int8
	op    op
	batch []EpochWait
}

func (m mcpMsg) String() string {
	if m.batch != nil {
		return fmt.Sprintf("batch %v", m.batch)
	}
	return fmt.Sprintf("%v from tile %d", instr{op: m.op}, m.tile)
}

func newWorld(sc *scenario, mcp func(proc func(arch.TileID) int) rule, shadow bool) *world {
	n := len(sc.procs)
	proc := func(t arch.TileID) int { return sc.procs[t] }
	w := &world{
		sc: sc, th: make([]thread, n), pc: make([]int8, n), epoch: make([]int64, n), sent: make([]int64, n), rel: make([]int64, n),
		ledger: []*Round{{}, {}}, mcp: mcp(proc), holder: -1,
		outbox: make([][]mcpMsg, n), toMCP: make([][]mcpMsg, 2), releases: make([][]int64, 2),
		grants: make([]int8, n), app: make([]int8, n*n),
	}
	if shadow {
		w.shadow = newOracle(n, proc, true)
	}
	for t := range n {
		w.ledger[sc.procs[t]].Step(arch.TileID(t), Started, 0)
		if rr, ok := w.mcp.(*roundRule); ok {
			rr.r.Step(arch.TileID(t), Started, 0)
		}
	}
	return w
}

func cloneRound(r *Round) *Round { return &Round{tiles: slices.Clone(r.tiles), count: r.count} }

func cloneOracle(o *oracle) *oracle {
	c := *o
	c.exited, c.blocked, c.recvBlocked = maps.Clone(o.exited), maps.Clone(o.blocked), maps.Clone(o.recvBlocked)
	c.simWaits = maps.Clone(o.simWaits)
	return &c
}

func cloneRule(m rule) rule {
	switch m := m.(type) {
	case *roundRule:
		return &roundRule{r: cloneRound(m.r), proc: m.proc}
	case *oracle:
		return cloneOracle(m)
	}
	panic("unknown rule")
}

func (w *world) clone() *world {
	c := *w
	c.th, c.pc, c.epoch, c.sent, c.rel = slices.Clone(w.th), slices.Clone(w.pc), slices.Clone(w.epoch), slices.Clone(w.sent), slices.Clone(w.rel)
	c.ledger = []*Round{cloneRound(w.ledger[0]), cloneRound(w.ledger[1])}
	c.mcp = cloneRule(w.mcp)
	if w.shadow != nil {
		c.shadow = cloneOracle(w.shadow)
	}
	c.queue = slices.Clone(w.queue)
	c.outbox = slices.Clone(w.outbox)
	for i := range c.outbox {
		c.outbox[i] = slices.Clone(c.outbox[i])
	}
	c.toMCP = [][]mcpMsg{slices.Clone(w.toMCP[0]), slices.Clone(w.toMCP[1])}
	c.releases = [][]int64{slices.Clone(w.releases[0]), slices.Clone(w.releases[1])}
	c.grants = slices.Clone(w.grants)
	c.app = slices.Clone(w.app)
	return &c
}

// key encodes every field of the state.
func (w *world) key() string {
	b := make([]byte, 0, 256)
	num := func(v int64) { b = binary.AppendVarint(b, v) }
	msgs := func(ms []mcpMsg) {
		num(int64(len(ms)))
		for _, m := range ms {
			b = append(b, byte(m.tile), byte(m.op))
			num(int64(len(m.batch)))
			for _, e := range m.batch {
				num(int64(e.Tile))
				num(e.Epoch)
			}
		}
	}
	round := func(r *Round) {
		num(int64(len(r.tiles)))
		for _, t := range r.tiles {
			b = append(b, byte(t.state), boolByte(t.sent))
			num(t.epoch)
		}
	}
	for t := range w.th {
		b = append(b, byte(w.th[t]), byte(w.pc[t]), byte(w.grants[t]))
		num(w.epoch[t])
		num(w.sent[t])
		num(w.rel[t])
		msgs(w.outbox[t])
	}
	for p := range 2 {
		round(w.ledger[p])
		msgs(w.toMCP[p])
		num(int64(len(w.releases[p])))
		for _, e := range w.releases[p] {
			num(e)
		}
	}
	for _, n := range w.app {
		b = append(b, byte(n))
	}
	b = append(b, byte(w.holder), byte(len(w.queue)))
	for _, q := range w.queue {
		b = append(b, byte(q))
	}
	oracleKey := func(o *oracle) {
		num(int64(o.running))
		b = append(b, boolByte(o.twoSets))
		for t := range w.th {
			tile := arch.TileID(t)
			e, waiting := o.simWaits[tile]
			b = append(b, boolByte(o.exited[tile]), boolByte(o.blocked[tile]), boolByte(o.recvBlocked[tile]), boolByte(waiting))
			num(e)
		}
	}
	switch m := w.mcp.(type) {
	case *roundRule:
		round(m.r)
	case *oracle:
		oracleKey(m)
	}
	if w.shadow != nil {
		oracleKey(w.shadow)
	}
	return string(b)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// violation is a property a transition or a final state broke.
type violation struct{ msg string }

// step is one enabled event: its label and the state it leads to, or the
// property it violates.
type step struct {
	label string
	next  *world
	err   string
}

// successors returns every enabled event of w, in a fixed order; labels
// are formatted only when asked for, to print a trace.
func (w *world) successors(labels bool) []step {
	var out []step
	try := func(label func() string, fn func(c *world)) {
		c := w.clone()
		err := func() (msg string) {
			defer func() {
				r := recover()
				if v, ok := r.(violation); ok {
					msg = v.msg
				} else if r != nil {
					panic(r)
				}
			}()
			fn(c)
			return ""
		}()
		st := step{next: c, err: err}
		if labels {
			st.label = label()
		}
		out = append(out, st)
	}
	for t := range w.th {
		tile := arch.TileID(t)
		if len(w.outbox[t]) > 0 {
			try(func() string { return fmt.Sprintf("tile %d: sends %v", t, w.outbox[t][0]) }, func(c *world) {
				p := c.sc.procs[t]
				c.toMCP[p] = append(c.toMCP[p], c.outbox[t][0])
				c.outbox[t] = c.outbox[t][1:]
			})
			continue // its thread sends before it does anything else
		}
		switch w.th[t] {
		case thRun:
			in := w.sc.progs[t][w.pc[t]]
			if in.op == opRecv && w.pending(t) {
				for src := range w.th {
					if w.app[src*len(w.th)+t] > 0 {
						try(func() string { return fmt.Sprintf("tile %d: recv from %d", t, src) }, func(c *world) { c.app[src*len(w.th)+t]--; c.pc[t]++ })
					}
				}
				continue
			}
			try(func() string { return fmt.Sprintf("tile %d: %v", t, in) }, func(c *world) { c.run(tile, in) })
		case thRecv:
			for src := range w.th {
				if w.app[src*len(w.th)+t] > 0 {
					try(func() string { return fmt.Sprintf("tile %d: woken by a message from %d", t, src) }, func(c *world) {
						c.app[src*len(w.th)+t]--
						c.ledgerStep(tile, Resume, 0)
						c.th[t] = thRun
						c.pc[t]++
					})
				}
			}
		case thCall:
			if w.grants[t] > 0 {
				try(func() string { return fmt.Sprintf("tile %d: lock granted", t) }, func(c *world) {
					c.grants[t]--
					c.ledgerStep(tile, Resume, 0)
					c.th[t] = thRun
					c.pc[t]++
				})
			}
		}
	}
	for p := range 2 {
		if len(w.toMCP[p]) > 0 {
			label := func() string {
				if m := w.toMCP[p][0]; m.batch != nil {
					return fmt.Sprintf("mcp: %v from process %d", m, p)
				}
				return fmt.Sprintf("mcp: %v", w.toMCP[p][0])
			}
			try(label, func(c *world) { c.mcpHandle(p) })
		}
		if len(w.releases[p]) > 0 {
			try(func() string { return fmt.Sprintf("ledger %d: release %d", p, w.releases[p][0]) }, func(c *world) { c.deliverRelease(p) })
		}
	}
	return out
}

func (w *world) pending(t int) bool {
	for src := range w.th {
		if w.app[src*len(w.th)+t] > 0 {
			return true
		}
	}
	return false
}

func fail(format string, args ...any) { panic(violation{fmt.Sprintf(format, args...)}) }

// ledgerStep applies e at the tile's ledger, as Ledger.step does, and
// puts the batch it completes in the tile's outbox.
func (w *world) ledgerStep(tile arch.TileID, e Event, epoch int64) {
	p := w.sc.procs[tile]
	w.ledger[p].Step(tile, e, epoch)
	b := w.ledger[p].Batch()
	for _, e := range b {
		if e.Epoch >= 0 && e.Epoch <= w.sent[e.Tile] {
			fail("ledger %d sends tile %d's wait at epoch %d after one at %d", p, e.Tile, e.Epoch, w.sent[e.Tile])
		}
		w.sent[e.Tile] = max(w.sent[e.Tile], e.Epoch)
	}
	if b != nil {
		w.outbox[tile] = append(w.outbox[tile], mcpMsg{batch: b})
	}
}

// request sends a tile's request to the MCP after whatever its thread has
// yet to send.
func (w *world) request(tile arch.TileID, o op) {
	m := mcpMsg{tile: int8(tile), op: o}
	if len(w.outbox[tile]) > 0 {
		w.outbox[tile] = append(w.outbox[tile], m)
		return
	}
	p := w.sc.procs[tile]
	w.toMCP[p] = append(w.toMCP[p], m)
}

// run executes the tile's next operation.
func (w *world) run(tile arch.TileID, in instr) {
	t := int(tile)
	switch in.op {
	case opWait:
		// The next epoch, as synchro.barrier waits only past its last.
		w.epoch[t]++
		w.th[t] = thLedger
		w.ledgerStep(tile, Waited, w.epoch[t])
		return // pc advances on the release
	case opLock:
		w.ledgerStep(tile, Block, 0)
		w.request(tile, in.op)
		w.th[t] = thCall
		return
	case opUnlock:
		w.request(tile, in.op)
	case opRecv:
		w.ledgerStep(tile, Recv, 0)
		w.th[t] = thRecv
		return
	case opSend:
		w.app[t*len(w.th)+int(in.arg)]++
	case opExit:
		w.ledgerStep(tile, Exited, 0)
		w.request(tile, in.op)
		w.th[t] = thExit
		return
	}
	w.pc[t]++
}

// shadowDo applies fn to the shadow oracle, if any.
func (w *world) shadowDo(fn func(*oracle) []release) []release {
	if w.shadow == nil {
		return nil
	}
	return fn(w.shadow)
}

// mcpHandle serves the next message from process p, as mcp.Server.handle
// does.
func (w *world) mcpHandle(p int) {
	in := w.toMCP[p][0]
	w.toMCP[p] = w.toMCP[p][1:]
	if in.batch != nil {
		w.releaseAll(w.mcp.batch(in.batch), w.shadowDo(func(o *oracle) []release { return o.batch(in.batch) }))
		return
	}
	t, tile := int(in.tile), arch.TileID(in.tile)
	w.mcp.heard(tile)
	w.shadowDo(func(o *oracle) []release { o.heard(tile); return nil })
	switch in.op {
	case opLock:
		if w.holder < 0 {
			w.holder = int8(t)
			w.grants[t]++
			return
		}
		w.queue = append(w.queue, int8(t))
		w.releaseAll(w.mcp.block(tile), w.shadowDo(func(o *oracle) []release { return o.block(tile) }))
	case opUnlock:
		if len(w.queue) == 0 {
			w.holder = -1
			return
		}
		next := w.queue[0]
		w.queue = w.queue[1:]
		w.holder = next
		w.grants[next]++
		w.mcp.unblock(arch.TileID(next))
		w.shadowDo(func(o *oracle) []release { o.unblock(arch.TileID(next)); return nil })
	case opExit:
		w.releaseAll(w.mcp.exit(tile), w.shadowDo(func(o *oracle) []release { return o.exit(tile) }))
	}
}

// releaseAll checks the MCP's releases against the shadow oracle's and
// sends them, to each process in process order.
func (w *world) releaseAll(rels, shadow []release) {
	if w.shadow != nil && !w.shadow.twoSets && !slices.Equal(rels, shadow) {
		fail("releases %v differ from the old rule's %v", rels, shadow)
	}
	for _, r := range rels {
		for p := range 2 {
			if r.procs&(1<<p) != 0 {
				w.releases[p] = append(w.releases[p], r.epoch)
			}
		}
	}
}

// deliverRelease wakes the threads ledger p releases.
func (w *world) deliverRelease(p int) {
	e := w.releases[p][0]
	w.releases[p] = w.releases[p][1:]
	w.ledger[p].Release(e, func(tile arch.TileID) {
		t := int(tile)
		if w.th[t] != thLedger || w.epoch[t] != e {
			fail("release %d woke tile %d, which is not parked at it", e, t)
		}
		if e <= w.rel[t] {
			fail("tile %d released from epoch %d after %d", t, e, w.rel[t])
		}
		w.rel[t] = e
		w.th[t] = thRun
		w.pc[t]++
	})
	for t, th := range w.th {
		if th == thLedger && w.epoch[t] == e && w.sc.procs[t] == p {
			fail("release %d left tile %d parked at it", e, t)
		}
	}
}

// final checks a state with no enabled event: no live tile is parked, and
// no ledger holds a wait.
func (w *world) final() string {
	for t, th := range w.th {
		if th != thExit {
			return fmt.Sprintf("no event is enabled, and tile %d is %s", t, []string{"running", "parked at its ledger", "parked in an MCP call", "parked in a receive"}[th])
		}
	}
	for p, l := range w.ledger {
		if l.Count(Waiting) > 0 {
			return fmt.Sprintf("ledger %d still holds a wait: %v", p, l)
		}
	}
	return ""
}

// exploration is the result of one search.
type exploration struct {
	states int
	trace  []string // the path to the first violation, if any
	err    string
}

// explore searches every state reachable from w, breadth first, and stops
// at the first violation. A node keeps its parent and its index among the
// parent's successors; the trace to a violation is replayed from w with
// labels.
func explore(w *world) exploration {
	type node struct {
		w         *world
		parent, k int
	}
	nodes := []node{{w: w, parent: -1}}
	seen := map[string]bool{w.key(): true}
	path := func(i, k int) []string {
		var ks []int
		for ; nodes[i].parent >= 0; i = nodes[i].parent {
			ks = append(ks, nodes[i].k)
		}
		slices.Reverse(ks)
		var out []string
		at := w
		for _, k := range append(ks, k) {
			if k < 0 {
				return append(out, "(stuck)")
			}
			succ := at.successors(true)
			out = append(out, succ[k].label)
			at = succ[k].next
		}
		return out
	}
	for i := 0; i < len(nodes); i++ {
		succ := nodes[i].w.successors(false)
		if len(succ) == 0 {
			if msg := nodes[i].w.final(); msg != "" {
				return exploration{states: len(seen), trace: path(i, -1), err: msg}
			}
		}
		for k, s := range succ {
			if s.err != "" {
				return exploration{states: len(seen), trace: path(i, k), err: s.err}
			}
			key := s.next.key()
			if !seen[key] {
				seen[key] = true
				nodes = append(nodes, node{w: s.next, parent: i, k: k})
			}
		}
		nodes[i].w = nil
	}
	return exploration{states: len(seen)}
}

func prog(ins ...instr) []instr { return ins }

var (
	doWait   = instr{op: opWait}
	doLock   = instr{op: opLock}
	doUnlock = instr{op: opUnlock}
	doRecv   = instr{op: opRecv}
	doExit   = instr{op: opExit}
)

func doSend(to int8) instr { return instr{op: opSend, arg: to} }

// scenarios are the programs the explorer runs. Each is free of
// application deadlock under plain Lax: every receive has its send, and
// every lock its unlock.
var scenarios = []scenario{
	{
		// 1(ii)'s park. Tile 0 leaves a receive (tile 2 sends to it), waits
		// at the epoch the MCP has just released without it, and blocks on
		// the mutex tile 1 holds across two epochs. Tiles 2 and 3 share a
		// process, so their next waits reach the MCP in one batch.
		name:  "stale wait then lock",
		procs: []int{0, 0, 1, 1},
		progs: [][]instr{
			prog(doRecv, doWait, doLock, doUnlock, doExit),
			prog(doLock, doWait, doWait, doUnlock, doExit),
			prog(doSend(0), doWait, doWait, doExit),
			prog(doWait, doWait, doExit),
		},
	},
	{
		// The batch with tile 0's stale wait is taken by tile 2's exit, so
		// it can reach the MCP after tile 0's lock request.
		name:  "stale wait trails a lock",
		procs: []int{0, 0, 0, 1},
		progs: [][]instr{
			prog(doRecv, doWait, doLock, doUnlock, doExit),
			prog(doLock, doWait, doWait, doUnlock, doExit),
			prog(doRecv, doExit),
			prog(doSend(0), doSend(2), doWait, doWait, doExit),
		},
	},
	{
		name:  "receiver locks",
		procs: []int{0, 1, 0},
		progs: [][]instr{
			prog(doRecv, doLock, doWait, doUnlock, doExit),
			prog(doWait, doSend(0), doWait, doWait, doExit),
			prog(doLock, doWait, doWait, doUnlock, doExit),
		},
	},
	{
		name:  "ring of receivers",
		procs: []int{0, 1, 0, 1},
		progs: [][]instr{
			prog(doSend(1), doWait, doRecv, doWait, doExit),
			prog(doRecv, doWait, doSend(2), doExit),
			prog(doWait, doRecv, doWait, doSend(3), doExit),
			prog(doWait, doRecv, doSend(0), doExit),
		},
	},
	{
		name:  "mutex contention",
		procs: []int{0, 1, 1, 0},
		progs: [][]instr{
			prog(doLock, doWait, doUnlock, doWait, doExit),
			prog(doWait, doLock, doUnlock, doExit),
			prog(doLock, doUnlock, doWait, doWait, doExit),
			prog(doWait, doExit),
		},
	},
	{
		name:  "exit completes a round",
		procs: []int{0, 1, 1},
		progs: [][]instr{
			prog(doWait, doSend(2), doWait, doWait, doExit),
			prog(doWait, doExit),
			prog(doRecv, doWait, doExit),
		},
	},
	{
		name:  "everything at once",
		procs: []int{0, 1, 0, 1},
		progs: [][]instr{
			prog(doLock, doSend(1), doWait, doUnlock, doRecv, doWait, doExit),
			prog(doRecv, doWait, doLock, doWait, doUnlock, doSend(0), doExit),
			prog(doWait, doLock, doUnlock, doWait, doSend(3), doExit),
			prog(doRecv, doWait, doWait, doExit),
		},
	},
	{
		name:  "long rounds",
		procs: []int{0, 1, 1, 0},
		progs: [][]instr{
			prog(doWait, doLock, doWait, doUnlock, doSend(2), doWait, doExit),
			prog(doLock, doWait, doUnlock, doRecv, doWait, doExit),
			prog(doWait, doRecv, doWait, doLock, doUnlock, doExit),
			prog(doSend(1), doWait, doWait, doWait, doExit),
		},
	},
}

// splits returns every placement of n tiles on two processes with tile 0
// on process 0 and neither process empty.
func splits(n int) [][]int {
	var out [][]int
	for mask := 1; mask < 1<<(n-1); mask++ {
		procs := make([]int, n)
		for t := 1; t < n; t++ {
			procs[t] = mask >> (t - 1) & 1
		}
		out = append(out, procs)
	}
	return out
}

func runScenario(t *testing.T, sc *scenario, mcp func(proc func(arch.TileID) int) rule, shadow bool) exploration {
	t.Helper()
	start := time.Now()
	res := explore(newWorld(sc, mcp, shadow))
	t.Logf("%s, processes %v: %d states in %v", sc.name, sc.procs, res.states, time.Since(start).Round(time.Millisecond))
	return res
}

func withRound(proc func(arch.TileID) int) rule { return &roundRule{r: &Round{}, proc: proc} }

// TestExploreRound: every reachable state of every scenario, under every
// placement of its tiles on the two processes, with the MCP on Round and
// the old rule as a shadow, keeps the properties — no
// live tile parked with nothing enabled, every ledger wait released, each
// release the lowest epoch waiting at the MCP, the waits each ledger sends
// for a tile and the epochs the tile is released from increasing, a
// release waking exactly the tiles parked at its epoch — and Round
// releases what the old rule releases until the old rule counts a tile
// in two sets.
func TestExploreRound(t *testing.T) {
	start := time.Now()
	total := 0
	for _, sc := range scenarios {
		for _, procs := range splits(len(sc.procs)) {
			sc.procs = procs
			res := runScenario(t, &sc, withRound, true)
			total += res.states
			if res.err != "" {
				t.Errorf("%s, processes %v: %s\n  %s", sc.name, procs, res.err, strings.Join(res.trace, "\n  "))
			}
		}
	}
	t.Logf("explored %d states in %v", total, time.Since(start).Round(time.Millisecond))
}

// TestExploreFindsParkWithoutRepeat: the explorer finds 1(ii)'s park in
// the old rule once its release loop is removed, so a passing exploration
// of Round means something.
func TestExploreFindsParkWithoutRepeat(t *testing.T) {
	sc := &scenarios[0]
	res := runScenario(t, sc, func(proc func(arch.TileID) int) rule {
		return newOracle(len(sc.procs), proc, false)
	}, false)
	if res.err == "" {
		t.Fatalf("%s: no counterexample in %d states", sc.name, res.states)
	}
	t.Logf("counterexample: %s\n  %s", res.err, strings.Join(res.trace, "\n  "))
}
