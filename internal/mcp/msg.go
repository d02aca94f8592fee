// Package mcp implements Graphite's Master Control Program (paper §2.2,
// §3.4, §3.5) — one per simulation, hosted by process 0 — and the
// messages it exchanges with the tiles and with the Local Control
// Programs, one per host process. An LCP is the control loop of a
// core.Proc, which serves its process's LCP endpoint.
//
// The MCP provides the services that preserve the illusion of a single
// process across distributed host processes:
//
//   - thread management: spawn requests are forwarded to the MCP, which
//     picks an available tile and asks the owning process's LCP to start
//     the thread; the LCP answers the parent once the thread is listed;
//     joins synchronize through the MCP;
//   - synchronization: the futex-style services behind application
//     mutexes, barriers, and condition variables, keyed by simulated
//     address;
//   - dynamic memory management: brk/mmap-equivalent allocation from the
//     heap segment of the single application address space;
//   - the LaxBarrier epoch service used by the quanta-based
//     synchronization model.
//
// Whatever the MCP needs from every process — a cache flush, the
// statistics, teardown, a checkpoint's drain probes and saves — is one
// ask: a message to every LCP under a fresh Seq, and one reply from each,
// which the serve loop files by that Seq.
//
// All services communicate over ClassSystem packets, which ride the
// zero-delay "magic" network so control traffic never perturbs simulated
// time. Simulated timestamps for synchronization events travel in the
// packet Time field.
package mcp

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/arch"
	"repro/internal/stats"
	"repro/internal/synchro"
	"repro/internal/wire"
)

// System message types (network.Packet.Type within ClassSystem).
const (
	// MsgClockProbe / MsgClockProbeRep implement LaxP2P partner probes;
	// the target tile's sysPort answers them, not the MCP: at once, or
	// for a holding probe (a u64 bound) once its clock reaches the bound.
	MsgClockProbe uint8 = iota
	MsgClockProbeRep

	// Thread management (tile <-> MCP, MCP -> LCP).
	MsgSpawn
	MsgSpawnRep
	MsgJoin
	MsgJoinRep
	MsgThreadExit
	MsgStartThread

	// Application synchronization (futex-style services).
	MsgMutexLock
	MsgMutexLockRep
	MsgMutexUnlock
	MsgBarrierWait
	MsgBarrierRep
	MsgCondWait
	MsgCondRep
	MsgCondSignal
	MsgCondBroadcast

	// Dynamic memory management.
	MsgMalloc
	MsgMallocRep
	MsgFree

	// Reserved: the numbers of the retired per-tile LaxBarrier RPC and
	// its reply (the epoch service is MsgSimBarrierBatch/Release below).
	// Kept blank so every other message keeps its number.
	_
	_

	// Reserved: the numbers of the retired forwarded file operation and
	// its reply (MsgFileOp, MsgFileRep). Kept blank so every other
	// message keeps its number.
	_
	_

	// Collection and teardown (MCP <-> LCP).
	MsgStatsGather
	MsgStatsRep
	MsgFlush
	MsgFlushRep
	MsgShutdown
	// MsgShutdownRep acknowledges MsgShutdown. The LCP sends it *before*
	// its process acts on the teardown, carrying the process's wall-clock
	// serving time in nanoseconds, so the MCP knows every worker saw the
	// teardown (acknowledge-then-close) and can report per-process wall
	// time.
	MsgShutdownRep

	// Batched LaxBarrier epoch service: each host process's ledger
	// forwards all of its tiles' pending waits in one MsgSimBarrierBatch
	// (sent from the LCP endpoint); the MCP answers with one
	// MsgSimBarrierRelease per process carrying the released epoch, and
	// the ledger wakes the parked threads locally. A quantum costs one
	// message per worker process instead of one RPC per tile.
	MsgSimBarrierBatch
	MsgSimBarrierRelease

	// Checkpoint protocol (MCP <-> LCP; DESIGN.md §18). The MCP probes
	// each process's drain status (MsgCkptProbe / MsgCkptProbeRep) until
	// residual memory traffic settles, then orders each process to
	// serialize its state (MsgCkptSave, carrying the epoch) and collects
	// the CkptSaveResult acknowledgements (MsgCkptSaveRep)
	// before writing the manifest and performing the stashed barrier
	// release.
	MsgCkptProbe
	MsgCkptProbeRep
	MsgCkptSave
	MsgCkptSaveRep
)

// msgName returns a human-readable message name for diagnostics.
func msgName(t uint8) string {
	names := []string{
		"ClockProbe", "ClockProbeRep", "Spawn", "SpawnRep", "Join",
		"JoinRep", "ThreadExit", "StartThread", "MutexLock", "MutexLockRep",
		"MutexUnlock", "BarrierWait", "BarrierRep", "CondWait", "CondRep",
		"CondSignal", "CondBroadcast", "Malloc", "MallocRep", "Free",
		"reserved", "reserved", "reserved", "reserved", "StatsGather",
		"StatsRep", "Flush", "FlushRep", "Shutdown", "ShutdownRep",
		"SimBarrierBatch", "SimBarrierRelease",
		"CkptProbe", "CkptProbeRep", "CkptSave", "CkptSaveRep",
	}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("sys(%d)", t)
}

// SpawnReq asks the MCP to start a thread running registered function
// Func with argument Arg. Time (the parent's clock) rides Packet.Time.
type SpawnReq struct {
	Func uint32
	Arg  uint64
}

// EncodeSpawnReq serializes a SpawnReq.
func EncodeSpawnReq(r SpawnReq) []byte {
	b := make([]byte, 12)
	binary.LittleEndian.PutUint32(b[0:4], r.Func)
	binary.LittleEndian.PutUint64(b[4:12], r.Arg)
	return b
}

// DecodeSpawnReq parses a SpawnReq.
func DecodeSpawnReq(b []byte) (SpawnReq, error) {
	if len(b) != 12 {
		return SpawnReq{}, fmt.Errorf("mcp: bad SpawnReq (%d bytes)", len(b))
	}
	return SpawnReq{
		Func: binary.LittleEndian.Uint32(b[0:4]),
		Arg:  binary.LittleEndian.Uint64(b[4:12]),
	}, nil
}

// StartThread tells an LCP to launch a thread on one of its tiles. A
// spawned thread carries its parent's MsgSpawn (tile and Seq), which the
// LCP answers once the thread is listed on its shard; the main thread's
// Seq is 0, and no one awaits its start.
type StartThread struct {
	Tile   arch.TileID
	Func   uint32
	Arg    uint64
	Parent arch.TileID
	Seq    uint64
}

// EncodeStartThread serializes a StartThread.
func EncodeStartThread(r StartThread) []byte {
	b := make([]byte, 28)
	binary.LittleEndian.PutUint32(b[0:4], uint32(int32(r.Tile)))
	binary.LittleEndian.PutUint32(b[4:8], r.Func)
	binary.LittleEndian.PutUint64(b[8:16], r.Arg)
	binary.LittleEndian.PutUint32(b[16:20], uint32(int32(r.Parent)))
	binary.LittleEndian.PutUint64(b[20:28], r.Seq)
	return b
}

// DecodeStartThread parses a StartThread.
func DecodeStartThread(b []byte) (StartThread, error) {
	if len(b) != 28 {
		return StartThread{}, fmt.Errorf("mcp: bad StartThread (%d bytes)", len(b))
	}
	return StartThread{
		Tile:   arch.TileID(int32(binary.LittleEndian.Uint32(b[0:4]))),
		Func:   binary.LittleEndian.Uint32(b[4:8]),
		Arg:    binary.LittleEndian.Uint64(b[8:16]),
		Parent: arch.TileID(int32(binary.LittleEndian.Uint32(b[16:20]))),
		Seq:    binary.LittleEndian.Uint64(b[20:28]),
	}, nil
}

// EncodeU64 serializes one uint64 (thread IDs, addresses, epochs, sizes).
func EncodeU64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// DecodeU64 parses one uint64.
func DecodeU64(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("mcp: bad u64 payload (%d bytes)", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// SimWait is one tile's pending LaxBarrier wait inside a batch. It is
// the ledger's EpochWait so process runtimes encode their batches with
// no per-round conversion copy.
type SimWait = synchro.EpochWait

// EncodeSimBatch serializes a batch of barrier waits: 12 bytes per entry
// (tile as uint32, epoch as uint64).
func EncodeSimBatch(ws []SimWait) []byte {
	b := make([]byte, 12*len(ws))
	for i, w := range ws {
		binary.LittleEndian.PutUint32(b[i*12:], uint32(int32(w.Tile)))
		binary.LittleEndian.PutUint64(b[i*12+4:], uint64(w.Epoch))
	}
	return b
}

// AppendSimBatch parses a batch of barrier waits for a simulation of
// tiles tiles into dst (retaining dst's backing array: the MCP's serve
// loop reuses one scratch slice across batches). It refuses an entry
// whose tile is outside [0, tiles) or whose epoch is below -1.
func AppendSimBatch(dst []SimWait, b []byte, tiles int) ([]SimWait, error) {
	if len(b) == 0 || len(b)%12 != 0 {
		return nil, fmt.Errorf("mcp: bad sim batch (%d bytes)", len(b))
	}
	for i := 0; i < len(b)/12; i++ {
		w := SimWait{
			Tile:  arch.TileID(int32(binary.LittleEndian.Uint32(b[i*12:]))),
			Epoch: int64(binary.LittleEndian.Uint64(b[i*12+4:])),
		}
		if w.Tile < 0 || int(w.Tile) >= tiles || w.Epoch < -1 {
			return nil, fmt.Errorf("mcp: sim batch entry %d (tile %d, epoch %d) out of range for %d tiles", i, w.Tile, w.Epoch, tiles)
		}
		dst = append(dst, w)
	}
	return dst, nil
}

// DecodeSimBatch parses a batch of barrier waits for any tile number.
func DecodeSimBatch(b []byte) ([]SimWait, error) {
	return AppendSimBatch(nil, b, math.MaxInt32)
}

// CkptProbeRep is one process's drain-status report: cumulative
// memory-class packets sent and received across its local tiles, and
// whether every local memory node is individually quiesced.
type CkptProbeRep struct {
	Sent, Recv uint64
	Quiesced   bool
}

// Walk codes r (see internal/wire).
func (r *CkptProbeRep) Walk(c *wire.Codec) {
	c.Uvarint(&r.Sent)
	c.Uvarint(&r.Recv)
	c.Bool(&r.Quiesced)
}

// CkptSaveResult is one process's save acknowledgement (the payload of
// MsgCkptSaveRep): the manifest entry for its state file, or the error
// that prevented writing it.
type CkptSaveResult struct {
	Proc        int32
	File        string
	FileSum     string
	StateDigest string
	Err         string
}

// Walk codes r (see internal/wire).
func (r *CkptSaveResult) Walk(c *wire.Codec) {
	c.I32(&r.Proc)
	c.Str(&r.File)
	c.Str(&r.FileSum)
	c.Str(&r.StateDigest)
	c.Str(&r.Err)
}

// statsRep is the payload of MsgStatsRep: the records of one process's
// tiles.
type statsRep []stats.Tile

// EncodeStats serializes the payload of MsgStatsRep.
func EncodeStats(tiles []stats.Tile) []byte {
	rep := statsRep(tiles)
	return wire.Encode(rep.Walk)
}

// minStatsTile is the shortest encoding of one record, that of the zero
// record.
var minStatsTile = wire.SizeOf((&stats.Tile{}).Walk)

// Walk codes r (see internal/wire).
func (r *statsRep) Walk(c *wire.Codec) {
	wire.List(c, (*[]stats.Tile)(r), minStatsTile, func(t *stats.Tile) { t.Walk(c) })
}

// EncodeU64Pair serializes two uint64s (cond/mutex address pairs,
// barrier address + count).
func EncodeU64Pair(a, b uint64) []byte {
	buf := make([]byte, 16)
	binary.LittleEndian.PutUint64(buf[0:8], a)
	binary.LittleEndian.PutUint64(buf[8:16], b)
	return buf
}

// DecodeU64Pair parses two uint64s.
func DecodeU64Pair(buf []byte) (a, b uint64, err error) {
	if len(buf) != 16 {
		return 0, 0, fmt.Errorf("mcp: bad u64 pair (%d bytes)", len(buf))
	}
	return binary.LittleEndian.Uint64(buf[0:8]), binary.LittleEndian.Uint64(buf[8:16]), nil
}
