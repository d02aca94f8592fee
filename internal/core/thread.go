package core

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/coremodel"
	"repro/internal/mcp"
	"repro/internal/memsys"
	"repro/internal/network"
	"repro/internal/park"
	"repro/internal/transport"
)

// ThreadFunc is the signature of an application thread. Thread function 0
// of a Program is main.
type ThreadFunc func(t *Thread, arg uint64)

// Program is a target application: a set of registered thread functions.
// Every simulated host process constructs the same Program, so spawn
// requests can name functions by index across process boundaries (the
// single-process illusion of paper §3.5).
type Program struct {
	// Name identifies the workload in reports.
	Name string
	// Funcs are the spawnable thread functions; Funcs[0] is main.
	Funcs []ThreadFunc
}

// Thread is the execution context handed to application code: the
// Graphite programming interface. It exposes the simulated memory space,
// pthread-like threading and synchronization, the user-level messaging
// API, and the instruction-modeling hooks that a dynamic binary
// translator would drive implicitly.
//
// A Thread is bound to one tile and runs as a coroutine of the memory
// server shard that serves the tile (memsys.Coro): every blocking call
// parks the coroutine, and the shard resumes it when the wait is over. It
// must be used only from its own coroutine, and application code must not
// block it any other way — no time.Sleep, channel receive or Cond.Wait —
// or the whole shard stops with it.
type Thread struct {
	tile *Tile
	proc *Proc
	co   *memsys.Coro
	// tickFn drives the synchronization model after every application
	// event. It is nil under plain Lax, which makes tick a single nil
	// check: the common case pays neither an interface call nor an atomic
	// clock load for a model that would ignore both.
	tickFn func(arch.Cycles)
	// scratch backs the fixed-width Load/Store helpers. A heap field
	// rather than a stack array: the miss path retains the buffer until
	// the reply applies it, so a local would escape and every Load64 /
	// Store64 would allocate. The thread waits for the duration of each
	// access, so one buffer per thread is safe.
	scratch [8]byte
}

// mcpTile addresses the MCP endpoint as a TileID.
const mcpTile = arch.TileID(transport.MCP)

// tornDown is the panic value Thread APIs throw when the simulation is
// dismantled under a still-running application thread (see
// park.TornDown); the thread's coroutine recovers it in its top frame.
type tornDown = park.TornDown

// Small fixed instruction costs for operations not individually modeled.
const (
	sendCost   arch.Cycles = 10
	recvCost   arch.Cycles = 10
	unlockCost arch.Cycles = 10
)

// ID returns the thread's ID, which equals its tile ID.
func (t *Thread) ID() arch.ThreadID { return arch.ThreadID(t.tile.ID) }

// Stack returns this thread's private stack range in the simulated
// address space (paper §3.2.1: Graphite reserves a stack segment and
// carves a per-thread slice from it). Applications may use it for
// simulated-memory locals without calling Malloc.
func (t *Thread) Stack() (base arch.Addr, size arch.Addr) {
	as := t.tile.cfg.AS
	return as.StackBase + arch.Addr(t.tile.ID)*as.StackPerThread, as.StackPerThread
}

// Tiles returns the number of target tiles in the simulation.
func (t *Thread) Tiles() int { return t.tile.cfg.Tiles }

// Now returns the thread's current simulated clock.
func (t *Thread) Now() arch.Cycles { return t.tile.Clock.Now() }

// tick drives the synchronization model after every application event,
// then yields the thread's turn if its shard has other work waiting.
// Under plain Lax synchronization with nothing waiting it is a nil check
// and one atomic load.
//
//graphite:hotpath
func (t *Thread) tick() {
	if t.tickFn != nil {
		t.tickFn(t.tile.Clock.Now())
	}
	t.co.Preempt()
}

// Compute models n instructions of kind k executing natively.
func (t *Thread) Compute(k coremodel.InstrKind, n int) {
	t.tile.Core.Compute(k, n)
	t.tick()
}

// Branch models one conditional branch.
func (t *Thread) Branch(taken bool) {
	t.tile.Core.Branch(taken)
	t.tick()
}

// Read performs an application load into buf.
func (t *Thread) Read(addr arch.Addr, buf []byte) {
	res := t.tile.Mem.Read(addr, buf, t.tile.Clock.Now())
	t.tile.Core.Load(res.Latency)
	t.tick()
}

// Write performs an application store of buf.
func (t *Thread) Write(addr arch.Addr, buf []byte) {
	res := t.tile.Mem.Write(addr, buf, t.tile.Clock.Now())
	t.tile.Core.Store(res.Latency)
	t.tick()
}

// Load64 loads a uint64.
func (t *Thread) Load64(addr arch.Addr) uint64 {
	t.Read(addr, t.scratch[:8])
	return binary.LittleEndian.Uint64(t.scratch[:8])
}

// Store64 stores a uint64.
func (t *Thread) Store64(addr arch.Addr, v uint64) {
	binary.LittleEndian.PutUint64(t.scratch[:8], v)
	t.Write(addr, t.scratch[:8])
}

// Load32 loads a uint32.
func (t *Thread) Load32(addr arch.Addr) uint32 {
	t.Read(addr, t.scratch[:4])
	return binary.LittleEndian.Uint32(t.scratch[:4])
}

// Store32 stores a uint32.
func (t *Thread) Store32(addr arch.Addr, v uint32) {
	binary.LittleEndian.PutUint32(t.scratch[:4], v)
	t.Write(addr, t.scratch[:4])
}

// LoadF64 loads a float64.
func (t *Thread) LoadF64(addr arch.Addr) float64 {
	return math.Float64frombits(t.Load64(addr))
}

// StoreF64 stores a float64.
func (t *Thread) StoreF64(addr arch.Addr, v float64) {
	t.Store64(addr, math.Float64bits(v))
}

// Malloc allocates n bytes from the simulated heap. It panics when the
// heap is exhausted (like running out of memory in the target).
func (t *Thread) Malloc(n arch.Addr) arch.Addr {
	pkt, ok := t.call(mcp.MsgMalloc, mcp.EncodeU64(uint64(n)))
	if !ok {
		panic(tornDown("malloc"))
	}
	addr, err := mcp.DecodeU64(pkt.Payload)
	if err != nil {
		panic(err)
	}
	if addr == 0 {
		panic(fmt.Sprintf("graphite: out of simulated heap allocating %d bytes", n))
	}
	t.forward(pkt.Time)
	t.tick()
	return arch.Addr(addr)
}

// Free releases a Malloc'd block.
func (t *Thread) Free(addr arch.Addr) {
	t.tile.sys.notify(mcp.MsgFree, mcpTile, mcp.EncodeU64(uint64(addr)), t.Now())
	t.tick()
}

// Spawn starts a new thread running Program.Funcs[fn] with arg on a free
// tile chosen by the MCP. It returns the child's thread ID, or
// arch.InvalidThread if every tile is busy.
func (t *Thread) Spawn(fn int, arg uint64) arch.ThreadID {
	// The reply never waits on a thread. Holding the shard until it lands
	// puts the child, which the LCP lists before it replies, and the
	// parent at fixed points of the shard's order.
	t.co.Hold()
	pkt, ok := t.call(mcp.MsgSpawn, mcp.EncodeSpawnReq(mcp.SpawnReq{Func: uint32(fn), Arg: arg}))
	if !ok {
		panic(tornDown("spawn"))
	}
	tid64, _, err := mcp.DecodeU64Pair(pkt.Payload)
	if err != nil {
		panic(err)
	}
	if tid64 == ^uint64(0) {
		return arch.InvalidThread
	}
	t.tile.Core.SpawnCost(pkt.Time - t.Now())
	t.forward(pkt.Time)
	t.tick()
	return arch.ThreadID(tid64)
}

// Join blocks until the given thread exits, forwarding this thread's
// clock to the later of its own time and the child's exit time.
func (t *Thread) Join(tid arch.ThreadID) {
	before := t.Now()
	pkt, ok := t.call(mcp.MsgJoin, mcp.EncodeU64(uint64(tid)))
	if !ok {
		panic(tornDown("join"))
	}
	t.forward(pkt.Time)
	t.waited(before)
	t.tick()
}

// MutexLock acquires the application mutex at simulated address m
// (emulating an intercepted futex, paper §3.4).
func (t *Thread) MutexLock(m arch.Addr) {
	before := t.Now()
	pkt, ok := t.call(mcp.MsgMutexLock, mcp.EncodeU64(uint64(m)))
	if !ok {
		panic(tornDown("lock"))
	}
	t.forward(pkt.Time)
	t.waited(before)
	t.tick()
}

// MutexUnlock releases the mutex at m.
func (t *Thread) MutexUnlock(m arch.Addr) {
	t.tile.Clock.Advance(unlockCost)
	t.tile.sys.notify(mcp.MsgMutexUnlock, mcpTile, mcp.EncodeU64(uint64(m)), t.Now())
	t.tick()
}

// BarrierWait blocks until n threads have reached the barrier at b; all
// are released at the latest arrival time.
func (t *Thread) BarrierWait(b arch.Addr, n int) {
	before := t.Now()
	pkt, ok := t.call(mcp.MsgBarrierWait, mcp.EncodeU64Pair(uint64(b), uint64(n)))
	if !ok {
		panic(tornDown("barrier"))
	}
	t.forward(pkt.Time)
	t.waited(before)
	t.tick()
}

// CondWait atomically releases the mutex m and blocks on the condition
// variable c; on wake the mutex has been re-acquired.
func (t *Thread) CondWait(c, m arch.Addr) {
	before := t.Now()
	pkt, ok := t.call(mcp.MsgCondWait, mcp.EncodeU64Pair(uint64(c), uint64(m)))
	if !ok {
		panic(tornDown("cond wait"))
	}
	t.forward(pkt.Time)
	t.waited(before)
	t.tick()
}

// CondSignal wakes one waiter of c.
func (t *Thread) CondSignal(c arch.Addr) {
	t.tile.sys.notify(mcp.MsgCondSignal, mcpTile, mcp.EncodeU64(uint64(c)), t.Now())
	t.tick()
}

// CondBroadcast wakes all waiters of c.
func (t *Thread) CondBroadcast(c arch.Addr) {
	t.tile.sys.notify(mcp.MsgCondBroadcast, mcpTile, mcp.EncodeU64(uint64(c)), t.Now())
	t.tick()
}

// Send delivers data to another thread over the application network (the
// user-level messaging API of paper §3.3).
func (t *Thread) Send(dst arch.ThreadID, data []byte) {
	t.tile.Clock.Advance(sendCost)
	if _, err := t.tile.Net.Send(network.ClassApp, 0, arch.TileID(dst), 0, data, t.Now()); err != nil {
		panic("graphite: app send failed: " + err.Error())
	}
	t.tick()
}

// Recv waits for the next application message from any sender. Receiving
// is a true synchronization event: the clock forwards to the message
// timestamp.
func (t *Thread) Recv() (arch.ThreadID, []byte) {
	before := t.Now()
	t.tile.setBlocked(waitRecv)
	pkt, ok := t.tile.Net.Recv(network.ClassApp)
	t.tile.setBlocked(0)
	if !ok {
		panic(tornDown("recv"))
	}
	t.forward(pkt.Time + recvCost)
	t.waited(before)
	t.tick()
	return arch.ThreadID(pkt.Src), pkt.Payload
}

// RecvFrom waits for the next application message from a specific sender.
func (t *Thread) RecvFrom(src arch.ThreadID) []byte {
	before := t.Now()
	t.tile.setBlocked(waitRecv)
	pkt, ok := t.tile.Net.RecvMatch(network.ClassApp, func(p *network.Packet) bool {
		return p.Src == arch.TileID(src)
	})
	t.tile.setBlocked(0)
	if !ok {
		panic(tornDown("recv"))
	}
	t.forward(pkt.Time + recvCost)
	t.waited(before)
	t.tick()
	return pkt.Payload
}

// call performs an MCP RPC, marking the tile blocked so skew sampling and
// LaxP2P probes ignore its frozen clock while it waits. The memory node
// needs no notice: a thread waiting here leaves the ownership word free,
// so the node's server answers coherence interventions itself (DESIGN.md
// §13).
func (t *Thread) call(typ uint8, payload []byte) (network.Packet, bool) {
	t.tile.setBlocked(waitCall | uint32(typ))
	pkt, ok := t.tile.sys.call(typ, mcpTile, payload, t.Now())
	t.tile.setBlocked(0)
	return pkt, ok
}

func (t *Thread) forward(to arch.Cycles) {
	t.tile.Clock.Forward(to)
}

// waited records blocked simulated time in the tile's statistics.
func (t *Thread) waited(before arch.Cycles) {
	if d := t.Now() - before; d > 0 {
		t.tile.Mem.AddSyncWait(d)
	}
}
