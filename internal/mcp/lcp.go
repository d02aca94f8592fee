package mcp

import (
	"time"

	"repro/internal/arch"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/wire"
)

// LCPCallbacks connect the Local Control Program to its process's tile
// runtime. StartThread must not block (it hands the thread to the shard
// that serves its tile); Flush may block until local caches are written
// back.
type LCPCallbacks struct {
	// StartThread launches an application thread on a local tile with the
	// given start clock.
	StartThread func(st StartThread, start arch.Cycles)
	// CollectStats snapshots the statistics of every local tile.
	CollectStats func() []stats.Tile
	// Flush writes back and drops all cached state of every local tile.
	Flush func()
	// Shutdown, if non-nil, is invoked when the MCP announces simulation
	// teardown (used by worker OS processes to exit cleanly).
	Shutdown func()
	// SimRelease, if non-nil, is invoked when the MCP releases a
	// LaxBarrier epoch for this process's batched waiters; the process
	// ledger wakes the parked threads.
	SimRelease func(epoch int64)
	// CkptProbe, if non-nil, reports the process's drain status: summed
	// memory-class traffic counters over local tiles and whether every
	// local memory node is quiesced. It must not block.
	CkptProbe func() CkptProbeRep
	// CkptSave, if non-nil, serializes the process's complete simulation
	// state for the given epoch and returns the manifest entry. It runs on
	// the LCP serve goroutine and may block: during a save the simulation
	// is globally drained and parked, so no other ClassSystem traffic
	// needs this loop (the epoch release is stashed at the MCP until every
	// save acknowledgement is in).
	CkptSave func(epoch int64) CkptSaveResult
}

// LCP is the Local Control Program: one per host process. It executes
// thread-start requests from the MCP and serves collection requests.
type LCP struct {
	proc    arch.ProcID
	net     *network.Net
	cb      LCPCallbacks
	started time.Time
	stopped chan struct{}
}

// NewLCP builds the LCP for one process. net must be registered on the
// process's LCP endpoint.
//
//graphite:wallclock anchors the per-process wall-serving timer reported as proc_wall_sec — reporting only, excluded from reproducibility diffs, never feeds simulated state
func NewLCP(proc arch.ProcID, net *network.Net, cb LCPCallbacks) *LCP {
	return &LCP{proc: proc, net: net, cb: cb, started: time.Now(), stopped: make(chan struct{})}
}

// Stopped is closed when the serve loop exits.
func (l *LCP) Stopped() <-chan struct{} { return l.stopped }

// Serve is the LCP message loop; it exits when the network closes.
func (l *LCP) Serve() {
	defer close(l.stopped)
	for {
		pkt, ok := l.net.Recv(network.ClassSystem)
		if !ok {
			return
		}
		switch pkt.Type {
		case MsgStartThread:
			st, err := DecodeStartThread(pkt.Payload)
			if err != nil {
				panic("mcp: " + err.Error())
			}
			l.cb.StartThread(st, pkt.Time)
		case MsgStatsGather:
			rep := statsRep(l.cb.CollectStats())
			send(l.net, MsgStatsRep, pkt.Src, pkt.Seq, wire.Encode(rep.Walk), 0)
		case MsgFlush:
			l.cb.Flush()
			send(l.net, MsgFlushRep, pkt.Src, pkt.Seq, nil, 0)
		case MsgSimBarrierRelease:
			epoch64, err := DecodeU64(pkt.Payload)
			if err != nil {
				panic("mcp: " + err.Error())
			}
			if l.cb.SimRelease != nil {
				l.cb.SimRelease(int64(epoch64))
			}
		case MsgCkptProbe:
			var rep CkptProbeRep
			if l.cb.CkptProbe != nil {
				rep = l.cb.CkptProbe()
			} else {
				rep.Quiesced = true
			}
			send(l.net, MsgCkptProbeRep, pkt.Src, pkt.Seq, wire.Encode(rep.Walk), 0)
		case MsgCkptSave:
			epoch64, err := DecodeU64(pkt.Payload)
			if err != nil {
				panic("mcp: " + err.Error())
			}
			res := CkptSaveResult{Proc: int32(l.proc), Err: "process has no checkpoint support"}
			if l.cb.CkptSave != nil {
				res = l.cb.CkptSave(int64(epoch64))
			}
			send(l.net, MsgCkptSaveRep, pkt.Src, pkt.Seq, wire.Encode(res.Walk), 0)
		case MsgShutdown:
			// Acknowledge-then-close: the ack (carrying this process's
			// wall-clock serving time) must be on the wire before the
			// Shutdown callback runs, because worker processes exit from
			// that callback and tear the transport down with them.
			wall := time.Since(l.started) //graphite:wallclock proc_wall_sec reporting; excluded from reproducibility diffs
			send(l.net, MsgShutdownRep, pkt.Src, pkt.Seq, EncodeU64(uint64(wall.Nanoseconds())), 0)
			if l.cb.Shutdown != nil {
				l.cb.Shutdown()
			}
		}
	}
}
