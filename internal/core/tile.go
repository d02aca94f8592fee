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
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/coremodel"
	"repro/internal/mcp"
	"repro/internal/memsys"
	"repro/internal/network"
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
	// on this tile; rpcBlocked reports that the thread is blocked in a
	// control-plane RPC (join, lock, barrier, receive) with a frozen
	// clock. Skew sampling and LaxP2P probes consider only running,
	// unblocked tiles — a frozen clock is not "behind", it is waiting.
	active     atomic.Bool
	rpcBlocked atomic.Bool

	// onBlock, if set (LaxBarrier only), forwards rpcBlocked transitions
	// to the process's epoch ledger: a thread entering a control-plane
	// wait can complete the local barrier round, so the ledger must
	// re-evaluate its flush condition. Nil under Lax and LaxP2P — the
	// transition then costs one atomic store and a nil check, as before.
	onBlock func(tile arch.TileID, blocked, recv bool)
}

// setRPCBlocked records an rpcBlocked transition — recv marks a block in
// an application receive — and notifies the epoch ledger when one is
// attached.
func (t *Tile) setRPCBlocked(blocked, recv bool) {
	t.rpcBlocked.Store(blocked)
	if t.onBlock != nil {
		t.onBlock(t.ID, blocked, recv)
	}
}

// Running reports whether the tile's thread is running and not blocked in
// a control-plane RPC.
func (t *Tile) Running() bool { return t.active.Load() && !t.rpcBlocked.Load() }

// NewTile builds a tile. net must be registered on the tile's endpoint;
// the tile makes its memory server the net's pump and sinks the system
// class into the control-plane port. progress is the process's shared
// progress window.
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
	t.sys = sysPort{net: net, clk: &t.Clock, running: t.Running, reply: make(chan network.Packet, 1)}
	// Memory traffic, the dominant class, never leaves the server's
	// goroutine; system packets are answered or handed over on the way.
	net.SetPrimary(network.ClassMemory)
	net.SetSink(network.ClassSystem, t.sys.deliver)
	return t
}

// Start launches the tile's one server goroutine: the memory node, which
// also pumps the tile's endpoint for the control plane.
func (t *Tile) Start() {
	go t.Mem.Serve()
}

// sysPort is the tile's end of the control plane. Its sink runs inside the
// memory server's pump: it answers LaxP2P clock probes on the spot (even
// when the tile has no running thread, the clock is readable) and hands an
// RPC reply to the tile's one outstanding caller — the application thread,
// in a control-plane call or a LaxP2P probe. Like the memory node's
// request slot, there is one reusable reply slot per tile.
type sysPort struct {
	net *network.Net
	clk *clock.Local
	// running reports whether the tile's thread is running and unblocked;
	// probe replies carry it so LaxP2P partners skip waiting tiles.
	running func() bool

	// seq numbers the caller's requests. want is the sequence number the
	// outstanding call awaits, 0 when none. reply is the slot (buffered,
	// so the sink never blocks); the sink closes it when the endpoint
	// closes, which releases a parked caller with ok == false.
	seq   atomic.Uint64
	want  atomic.Uint64
	reply chan network.Packet
}

// deliver is the system-class sink. It runs on the memory server's
// goroutine and never blocks: the reply slot is buffered and empty while
// a call waits, and the probe reply is a transport send.
func (r *sysPort) deliver(pkt network.Packet, ok bool) {
	switch {
	case !ok:
		close(r.reply)
	case pkt.Type == mcp.MsgClockProbe:
		running := uint64(0)
		if r.running() {
			running = 1
		}
		payload := mcp.EncodeU64Pair(uint64(r.clk.Now()), running)
		r.net.Send(network.ClassSystem, mcp.MsgClockProbeRep, pkt.Src, pkt.Seq, payload, 0)
	case pkt.Seq != 0 && r.want.CompareAndSwap(pkt.Seq, 0):
		r.reply <- pkt
	}
}

// call performs a blocking RPC: it sends a system packet and waits for the
// reply bearing the same sequence number. ok is false on teardown.
func (r *sysPort) call(typ uint8, dst arch.TileID, payload []byte, now arch.Cycles) (network.Packet, bool) {
	seq := r.seq.Add(1)
	if !r.want.CompareAndSwap(0, seq) {
		panic("core: concurrent control-plane calls on one tile")
	}
	if _, err := r.net.Send(network.ClassSystem, typ, dst, seq, payload, now); err != nil {
		r.want.Store(0)
		return network.Packet{}, false
	}
	pkt, ok := <-r.reply
	if !ok {
		// Torn down: no reply will come, and a thread that keeps running
		// (a LaxP2P probe tolerates a failed call) must be able to call
		// again.
		r.want.Store(0)
	}
	return pkt, ok
}

// notify sends a fire-and-forget system packet.
func (r *sysPort) notify(typ uint8, dst arch.TileID, payload []byte, now arch.Cycles) {
	r.net.Send(network.ClassSystem, typ, dst, 0, payload, now)
}
