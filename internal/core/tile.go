// Package core assembles Graphite's target tiles into a running simulation
// (paper §2): each tile couples a local clock, the in-order core
// performance model, the memory subsystem node, and a network interface;
// tiles are grouped into simulated host processes (Proc), each with a
// Local Control Program, and process 0 additionally hosts the Master
// Control Program. Cluster wires the processes over the transport their
// placement implies (the channel fabric in one OS process, TCP between
// OS processes) and drives a whole simulation run.
package core

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/coremodel"
	"repro/internal/mcp"
	"repro/internal/memsys"
	"repro/internal/network"
	"repro/internal/park"
	"repro/internal/synchro"
)

// Tile is one target tile: compute core, network switch, and memory node.
type Tile struct {
	ID    arch.TileID
	Clock clock.Local
	Net   *network.Net
	Mem   *memsys.Node
	Core  *coremodel.Core
	sys   sysPort
	cfg   *config.Config

	// active reports whether an application thread is currently running
	// on this tile; blockedOn, when nonzero, says what the thread waits
	// for with a frozen clock: an MCP call (join, lock, barrier, ...), an
	// application receive, or a LaxP2P hold on a partner (the wait*
	// codes). Skew sampling and LaxP2P probes consider only running,
	// unblocked tiles — a frozen clock is not "behind", it is waiting.
	active    atomic.Bool
	blockedOn atomic.Uint32

	// onBlock, if set (LaxBarrier only), forwards blockedOn transitions
	// to the process's epoch ledger: a thread entering a control-plane
	// wait can complete the local barrier round, so the ledger must
	// re-evaluate its flush condition. Nil under Lax and LaxP2P — the
	// transition then costs one atomic store and a nil check, as before.
	onBlock func(tile arch.TileID, blocked, recv bool)
}

// Tile.blockedOn codes: waitCall|typ is an MCP call of message type typ.
const (
	waitRecv uint32 = 1 << 8
	waitHold uint32 = 2 << 8
	waitCall uint32 = 3 << 8
)

// setBlocked records what the thread now waits for (0: nothing) and
// notifies the epoch ledger when one is attached. A thread that starts
// waiting answers the probes held on its clock.
func (t *Tile) setBlocked(on uint32) {
	t.blockedOn.Store(on)
	if t.onBlock != nil {
		t.onBlock(t.ID, on != 0, on == waitRecv)
	}
	if on != 0 {
		t.sys.release()
	}
}

// waitLabel describes what the tile's thread waits for, for a wedged-run
// dump.
func (t *Tile) waitLabel() string {
	switch on := t.blockedOn.Load(); {
	case on == 0:
		return ""
	case on == waitRecv:
		return ", in an application receive"
	case on == waitHold:
		return ", held on a LaxP2P partner"
	default:
		return fmt.Sprintf(", in MCP call type %d", on&0xff)
	}
}

// Running reports whether the tile's thread is running and not blocked in
// a control-plane RPC.
func (t *Tile) Running() bool { return t.active.Load() && t.blockedOn.Load() == 0 }

// NewTile builds a tile. net must be registered on the tile's endpoint;
// the tile makes its memory server (the process's shard that serves it,
// see Proc.Start) the net's pump and sinks the system class into the
// control-plane port. progress is the process's shared progress window.
func NewTile(id arch.TileID, cfg *config.Config, net *network.Net, progress *clock.ProgressWindow) *Tile {
	t := &Tile{ID: id, Net: net, cfg: cfg}
	t.Mem = memsys.NewNode(id, cfg, net, progress)
	// The synthetic code segment lives at the top of the static data
	// segment: one loop working set of CodeFootprint bytes per tile.
	coreCfg := cfg.CoreFor(id) // heterogeneous targets override per tile
	foot := coreCfg.CodeFootprint
	codeBase := cfg.AS.StaticBase + arch.Addr(int(id))*arch.Addr(foot)
	t.Core = coremodel.New(coreCfg, &t.Clock, codeBase, foot, cfg.LineSize(),
		func(pc arch.Addr, n int, now arch.Cycles) arch.Cycles {
			return t.Mem.Fetch(pc, n, now).Latency
		})
	t.sys = sysPort{net: net, clk: &t.Clock, running: t.Running, holdAt: math.MaxInt64}
	// Memory traffic, the dominant class, never leaves the server's
	// goroutine; system packets are answered or handed over on the way.
	net.SetPrimary(network.ClassMemory)
	net.SetSink(network.ClassSystem, t.sys.deliver)
	return t
}

// setParker installs how the tile's thread waits — for its misses, its
// control-plane replies, its application messages and, under LaxBarrier,
// at the process ledger: p is the thread's coroutine, nil restores the
// defaults of a plain goroutine once the thread has ended.
func (t *Tile) setParker(p park.Parker, ledger *synchro.Ledger) {
	t.Mem.SetParker(p)
	t.Net.SetParker(network.ClassApp, p)
	t.sys.park = p
	if ledger != nil {
		ledger.SetParker(t.ID, p)
	}
}

// sysPort is the tile's end of the control plane. Its sink runs inside the
// memory server's pump: it answers LaxP2P clock probes on the spot (even
// when the tile has no running thread, the clock is readable), or, for a
// holding probe, once the clock has reached the prober's bound, and hands an
// RPC reply to the tile's one outstanding caller — the application thread,
// in a control-plane call or a LaxP2P probe. Like the memory node's
// request slot, there is one reusable reply slot per tile.
//
// The sink and the caller both run on the shard that serves the tile —
// the caller is that shard's coroutine — and never at the same time, so
// the slot needs no lock.
type sysPort struct {
	net *network.Net
	clk *clock.Local
	// running reports whether the tile's thread is running and unblocked;
	// probe replies carry it so LaxP2P partners skip waiting tiles.
	running func() bool

	// holds are the holding probes waiting for the tile's clock to reach
	// their bound, holdAt the lowest bound (MaxInt64: none). The sink
	// keeps them and the tile's thread answers them, both on the shard.
	holds  []network.Packet
	holdAt arch.Cycles

	// park is the tile's thread while one runs. seq numbers its
	// requests; want is the sequence number the outstanding call awaits,
	// 0 when none (the sink clears it as it fills reply); closed is set
	// when the endpoint closes, which fails the call.
	park   park.Parker
	seq    uint64
	want   uint64
	reply  network.Packet
	closed bool
}

// deliver is the system-class sink. It runs on the shard serving the tile
// and never blocks: it fills the reply slot and wakes the caller, or
// sends the probe reply.
func (r *sysPort) deliver(pkt network.Packet, ok bool) {
	switch {
	case !ok:
		r.closed = true
		if r.park != nil {
			r.park.Unpark()
		}
	case pkt.Type == mcp.MsgClockProbe:
		// A payload is the bound of a holding probe.
		var at arch.Cycles
		if len(pkt.Payload) == 8 {
			v, _ := mcp.DecodeU64(pkt.Payload)
			at = arch.Cycles(v)
		}
		if at > r.clk.Now() && r.running() {
			r.holds = append(r.holds, pkt)
			r.holdAt = min(r.holdAt, at)
		} else {
			r.probeReply(pkt)
		}
	case pkt.Seq != 0 && pkt.Seq == r.want:
		r.want = 0
		r.reply = pkt
		r.park.Unpark()
	}
}

// release answers every held probe; a prober whose bound is still ahead
// probes again and holds anew.
func (r *sysPort) release() {
	for _, pkt := range r.holds {
		r.probeReply(pkt)
	}
	r.holds = r.holds[:0]
	r.holdAt = math.MaxInt64
}

// probeReply answers a clock probe with the tile's clock and whether its
// thread runs.
func (r *sysPort) probeReply(probe network.Packet) {
	running := uint64(0)
	if r.running() {
		running = 1
	}
	payload := mcp.EncodeU64Pair(uint64(r.clk.Now()), running)
	r.net.Send(network.ClassSystem, mcp.MsgClockProbeRep, probe.Src, probe.Seq, payload, 0)
}

// call performs an RPC: it sends a system packet and parks until the reply
// bearing the same sequence number lands. ok is false on teardown.
func (r *sysPort) call(typ uint8, dst arch.TileID, payload []byte, now arch.Cycles) (network.Packet, bool) {
	if r.want != 0 {
		panic("core: concurrent control-plane calls on one tile")
	}
	r.seq++
	r.want = r.seq
	if _, err := r.net.Send(network.ClassSystem, typ, dst, r.seq, payload, now); err != nil {
		r.want = 0
		return network.Packet{}, false
	}
	for r.want != 0 && !r.closed {
		r.park.Park()
	}
	if r.want != 0 {
		// Torn down: no reply will come, and a thread that keeps running
		// (a LaxP2P probe tolerates a failed call) must be able to call
		// again.
		r.want = 0
		return network.Packet{}, false
	}
	pkt := r.reply
	r.reply = network.Packet{}
	return pkt, true
}

// notify sends a fire-and-forget system packet.
func (r *sysPort) notify(typ uint8, dst arch.TileID, payload []byte, now arch.Cycles) {
	r.net.Send(network.ClassSystem, typ, dst, 0, payload, now)
}
