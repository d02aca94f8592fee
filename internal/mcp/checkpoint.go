package mcp

// Checkpoint orchestration (DESIGN.md §18). The MCP initiates a
// checkpoint at a LaxBarrier release point: every running, unblocked
// thread is parked waiting for the epoch release, so simulated state is
// changing nowhere except the terminating tails of in-flight memory
// traffic (evictions and their acks). The MCP stashes the release,
// captures its own service state (stable for the whole window — only
// checkpoint replies can arrive), probes every process until residual
// traffic drains, orders each process to serialize its state, writes the
// manifest, and only then performs the stashed release. The serve loop
// never blocks: each stage is driven by reply arrival.

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/checkpoint"
	"repro/internal/network"
	"repro/internal/synchro"
	"repro/internal/wire"
)

// CheckpointPolicy configures MCP-initiated checkpoints. It is attached
// before the simulation starts (Cluster.SetCheckpoint) and never mutated
// afterwards.
type CheckpointPolicy struct {
	// Dir receives the per-process state files and manifests. Every
	// process must see the same path (shared filesystem or single host).
	Dir string
	// Every checkpoints at epochs divisible by it (quanta since start);
	// zero disables automatic checkpoints.
	Every int64
	// FabricID, Generation, and ConfigDigest identify the run in the
	// manifest; Generation counts launch attempts (0 = first).
	FabricID     uint64
	Generation   uint64
	ConfigDigest string
	// Verify maps epoch -> the VerifyDigests list a previous attempt
	// recorded at that epoch. A replayed run reaching the epoch with
	// different digests has diverged. With StrictVerify the divergence is
	// fatal (reported on CkptFailed, release withheld); without it the
	// mismatch goes to OnError and the run continues — the right default,
	// because multi-thread runs are deterministic only in their workload
	// checksum, not in timing-dependent state (see DESIGN.md §18).
	Verify       map[int64][]string
	StrictVerify bool
	// OnSaved, if non-nil, is called from the serve goroutine after each
	// manifest is written; it must not block.
	OnSaved func(epoch int64, m *checkpoint.Manifest)
	// OnError, if non-nil, observes non-fatal checkpoint failures (probe
	// overflow, save I/O errors). The simulation continues without the
	// checkpoint; it must not block.
	OnError func(err error)
}

// ckptDrainTimeout bounds the drain probe by host time since the
// checkpoint's first probe. Residual post-barrier traffic is a bounded
// set of eviction chains, each shortened by every round trip, so a drain
// that outlasts it means the fabric is wedged; the checkpoint is
// abandoned and the run released. Rounds run back to back, and their
// number is no bound: one takes microseconds in-process, so a shard
// descheduled for a few milliseconds on a loaded host outlasts a
// thousand of them.
const ckptDrainTimeout = 10 * time.Second

// SetCheckpoint attaches the policy. Call before the simulation starts
// (the serve goroutine reads the field without locking).
func (s *Server) SetCheckpoint(p *CheckpointPolicy) { s.ckpt = p }

// CkptFailed reports a fatal checkpoint failure: a replay-verification
// digest mismatch. The simulation cannot produce trustworthy results
// past it; launchers select on this alongside run completion.
func (s *Server) CkptFailed() <-chan error { return s.ckptFailed }

// maybeCheckpoint begins a checkpoint at a barrier release point when
// the policy calls for one, deferring the release (already collected in
// releaseTo) until the save completes. It returns true when the release
// was stashed. recheckSimBarrier releases nothing while the checkpoint is
// in progress (ckptMCP set), so the stash stays intact. It declines while
// a thread is blocked in an application receive: the drain counts only
// memory traffic, so an application message still in flight could wake
// that thread during the cut.
func (s *Server) maybeCheckpoint(epoch int64) bool {
	cp := s.ckpt
	if cp == nil || cp.Every <= 0 || epoch <= 0 || epoch%cp.Every != 0 || epoch == s.ckptLast || s.round.Count(synchro.Receiving) > 0 {
		return false
	}
	s.ckptLast = epoch
	s.ckptEpoch = epoch
	s.ckptMCP = s.CaptureState()
	s.ckptPrevSent = ^uint64(0)
	s.ckptPrevRecv = ^uint64(0)
	s.ckptRounds = 0
	s.ckptStart = time.Now() //graphite:wallclock host-liveness bound of the drain probe (ckptDrainTimeout); it decides only whether a snapshot is kept, never simulated state
	s.ckptSaves = s.ckptSaves[:0]
	s.sendCkptProbes()
	return true
}

// sendCkptProbes starts one drain-probe round.
func (s *Server) sendCkptProbes() {
	s.ckptAcks = 0
	s.ckptSent, s.ckptRecv = 0, 0
	s.ckptQuiesced = true
	for p := 0; p < s.cfg.Processes; p++ {
		send(s.net, MsgCkptProbe, lcpTile(arch.ProcID(p)), 0, nil, 0)
	}
}

// handleCkptProbeRep accumulates one process's drain report and, when
// the round is complete, either starts the save (traffic quiesced,
// globally balanced, and unchanged since the previous round — cumulative
// counters, so equality means nothing moved) or probes again.
func (s *Server) handleCkptProbeRep(pkt network.Packet) {
	var rep CkptProbeRep
	if err := wire.Decode(pkt.Payload, rep.Walk); err != nil {
		panic("mcp: bad ckpt probe reply: " + err.Error())
	}
	s.ckptAcks++
	s.ckptSent += rep.Sent
	s.ckptRecv += rep.Recv
	s.ckptQuiesced = s.ckptQuiesced && rep.Quiesced
	if s.ckptAcks < s.cfg.Processes {
		return
	}
	if s.ckptQuiesced && s.ckptSent == s.ckptRecv &&
		s.ckptSent == s.ckptPrevSent && s.ckptRecv == s.ckptPrevRecv {
		s.sendCkptSaves()
		return
	}
	s.ckptPrevSent, s.ckptPrevRecv = s.ckptSent, s.ckptRecv
	s.ckptRounds++
	//graphite:wallclock host-liveness bound of the drain probe (ckptDrainTimeout); it decides only whether a snapshot is kept, never simulated state
	if waited := time.Since(s.ckptStart); waited > ckptDrainTimeout {
		s.abortCheckpoint(fmt.Errorf("mcp: checkpoint at epoch %d abandoned: traffic did not drain in %v (%d probe rounds)", s.ckptEpoch, waited.Round(time.Millisecond), s.ckptRounds))
		return
	}
	s.sendCkptProbes()
}

// sendCkptSaves orders every process to serialize its state.
func (s *Server) sendCkptSaves() {
	s.ckptAcks = 0
	payload := EncodeU64(uint64(s.ckptEpoch))
	for p := 0; p < s.cfg.Processes; p++ {
		send(s.net, MsgCkptSave, lcpTile(arch.ProcID(p)), 0, payload, 0)
	}
}

// handleCkptSaveRep collects one process's save acknowledgement; the
// last one completes the checkpoint: manifest write, replay-identity
// verification, and the stashed epoch release.
func (s *Server) handleCkptSaveRep(pkt network.Packet) {
	var res CkptSaveResult
	if err := wire.Decode(pkt.Payload, res.Walk); err != nil {
		panic("mcp: bad ckpt save reply: " + err.Error())
	}
	s.ckptSaves = append(s.ckptSaves, res)
	if len(s.ckptSaves) < s.cfg.Processes {
		return
	}
	for _, r := range s.ckptSaves {
		if r.Err != "" {
			s.abortCheckpoint(fmt.Errorf("mcp: checkpoint at epoch %d abandoned: proc %d save: %s", s.ckptEpoch, r.Proc, r.Err))
			return
		}
	}
	sort.Slice(s.ckptSaves, func(i, j int) bool { return s.ckptSaves[i].Proc < s.ckptSaves[j].Proc })
	cp := s.ckpt
	m := &checkpoint.Manifest{
		Epoch:        s.ckptEpoch,
		FabricID:     cp.FabricID,
		Generation:   cp.Generation,
		ConfigDigest: cp.ConfigDigest,
		Procs:        make([]checkpoint.ManifestProc, len(s.ckptSaves)),
		MCP:          s.ckptMCP,
	}
	for i, r := range s.ckptSaves {
		m.Procs[i] = checkpoint.ManifestProc{
			Proc:        r.Proc,
			File:        r.File,
			FileSum:     r.FileSum,
			StateDigest: r.StateDigest,
		}
	}
	if want, ok := cp.Verify[s.ckptEpoch]; ok && !equalDigests(want, m.VerifyDigests()) {
		err := fmt.Errorf("mcp: replay diverged at epoch %d: checkpoint digests do not match previous attempt", s.ckptEpoch)
		if cp.StrictVerify {
			// Strict mode treats the divergence as fatal: the release stays
			// withheld (parked threads are torn down with the run) and the
			// launcher aborts via CkptFailed.
			select {
			case s.ckptFailed <- err:
			default:
			}
			return
		}
		// Default mode reports and continues: timing-dependent state may
		// legitimately differ across attempts of a multi-thread run; the
		// workload checksum of the finished run is the identity criterion.
		if cp.OnError != nil {
			cp.OnError(err)
		}
	}
	if err := checkpoint.WriteManifest(cp.Dir, m); err != nil {
		s.abortCheckpoint(fmt.Errorf("mcp: checkpoint at epoch %d abandoned: %w", s.ckptEpoch, err))
		return
	}
	if cp.OnSaved != nil {
		cp.OnSaved(s.ckptEpoch, m)
	}
	s.ckptMCP = nil
	s.releaseEpoch(s.ckptEpoch)
	s.recheckSimBarrier()
}

// abortCheckpoint abandons the in-progress checkpoint (non-fatal: the
// simulation is intact, only the snapshot is lost) and performs the
// stashed release so the run continues.
func (s *Server) abortCheckpoint(err error) {
	if cp := s.ckpt; cp != nil && cp.OnError != nil {
		cp.OnError(err)
	}
	s.ckptMCP = nil
	s.releaseEpoch(s.ckptEpoch)
	s.recheckSimBarrier()
}

func equalDigests(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CaptureState snapshots the MCP's service tables. It must run either in
// the serve goroutine or while no simulation traffic can arrive (before
// the first thread starts, or after the run completes). Every map is
// flattened in sorted order so the encoding is canonical.
func (s *Server) CaptureState() *checkpoint.MCPState {
	ms := &checkpoint.MCPState{
		TileBusy: make([]bool, s.cfg.Tiles),
		Running:  s.round.Live(),
	}
	for i := range ms.TileBusy {
		st := s.round.State(arch.TileID(i))
		ms.TileBusy[i] = st != synchro.Idle
		if st == synchro.Blocked {
			ms.Blocked = append(ms.Blocked, int32(i))
		}
	}

	//graphite:maporder flattened sorted below
	for tid, rec := range s.threads {
		ts := checkpoint.ThreadState{
			Thread:   int32(tid),
			Exited:   rec.exited,
			ExitTime: int64(rec.exitTime),
		}
		for _, j := range rec.joiners {
			ts.Joiners = append(ts.Joiners, checkpoint.WaiterState{Tile: int32(j.src), Seq: j.seq})
		}
		ms.Threads = append(ms.Threads, ts)
	}
	sort.Slice(ms.Threads, func(i, j int) bool { return ms.Threads[i].Thread < ms.Threads[j].Thread })

	//graphite:maporder flattened sorted below
	for addr, m := range s.mutexes {
		rec := checkpoint.MutexState{Addr: uint64(addr), Locked: m.locked, LastFree: int64(m.lastFree)}
		for _, w := range m.queue {
			rec.Queue = append(rec.Queue, checkpoint.WaiterState{
				Tile: int32(w.to.src), Seq: w.to.seq, Time: int64(w.t), ReplyType: w.replyType,
			})
		}
		ms.Mutexes = append(ms.Mutexes, rec)
	}
	sort.Slice(ms.Mutexes, func(i, j int) bool { return ms.Mutexes[i].Addr < ms.Mutexes[j].Addr })

	//graphite:maporder flattened sorted below
	for addr, b := range s.barriers {
		rec := checkpoint.BarrierState{Addr: uint64(addr)}
		for _, w := range b.waiters {
			rec.Waiters = append(rec.Waiters, checkpoint.WaiterState{
				Tile: int32(w.to.src), Seq: w.to.seq, Time: int64(w.t),
			})
		}
		ms.Barriers = append(ms.Barriers, rec)
	}
	sort.Slice(ms.Barriers, func(i, j int) bool { return ms.Barriers[i].Addr < ms.Barriers[j].Addr })

	//graphite:maporder flattened sorted below
	for addr, c := range s.conds {
		rec := checkpoint.CondState{Addr: uint64(addr)}
		for _, w := range c.waiters {
			rec.Waiters = append(rec.Waiters, checkpoint.WaiterState{
				Tile: int32(w.to.src), Seq: w.to.seq, Time: int64(w.t), Mutex: uint64(w.mutex),
			})
		}
		ms.Conds = append(ms.Conds, rec)
	}
	sort.Slice(ms.Conds, func(i, j int) bool { return ms.Conds[i].Addr < ms.Conds[j].Addr })

	ms.Alloc = checkpoint.AllocState{InUse: uint64(s.alloc.inUse), Peak: uint64(s.alloc.peak)}
	for _, sp := range s.alloc.free {
		ms.Alloc.Free = append(ms.Alloc.Free, checkpoint.AllocSpanState{Base: uint64(sp.base), Size: uint64(sp.size)})
	}
	//graphite:maporder flattened sorted below
	for addr, size := range s.alloc.allocated {
		ms.Alloc.Allocated = append(ms.Alloc.Allocated, checkpoint.AllocBlockState{Addr: uint64(addr), Size: uint64(size)})
	}
	sort.Slice(ms.Alloc.Allocated, func(i, j int) bool { return ms.Alloc.Allocated[i].Addr < ms.Alloc.Allocated[j].Addr })
	return ms
}

// RestoreState overwrites the MCP's service tables from a snapshot taken
// by CaptureState. It must run while no simulation traffic can arrive —
// in practice on a freshly constructed cluster before any thread starts.
// The round is rebuilt from the threads and the blocked tiles.
func (s *Server) RestoreState(ms *checkpoint.MCPState) error {
	if len(ms.TileBusy) != s.cfg.Tiles {
		return fmt.Errorf("mcp: restore tile-count mismatch: snapshot %d, server %d", len(ms.TileBusy), s.cfg.Tiles)
	}
	s.everStarted = ms.Running > 0 || len(ms.Threads) > 0

	s.round = synchro.NewRound(s.cfg.Tiles)
	s.threads = make(map[arch.ThreadID]*threadRec, len(ms.Threads))
	for _, ts := range ms.Threads {
		if !ts.Exited {
			s.round.Step(arch.TileID(ts.Thread), synchro.Started, 0)
		}
		rec := &threadRec{exited: ts.Exited, exitTime: arch.Cycles(ts.ExitTime)}
		for _, j := range ts.Joiners {
			rec.joiners = append(rec.joiners, replyTo{src: arch.TileID(j.Tile), seq: j.Seq})
		}
		s.threads[arch.ThreadID(ts.Thread)] = rec
	}

	for _, t := range ms.Blocked {
		s.round.Step(arch.TileID(t), synchro.Block, 0)
	}

	s.mutexes = make(map[arch.Addr]*mutexRec, len(ms.Mutexes))
	for _, rec := range ms.Mutexes {
		m := &mutexRec{locked: rec.Locked, lastFree: arch.Cycles(rec.LastFree)}
		for _, w := range rec.Queue {
			m.queue = append(m.queue, lockWaiter{
				to: replyTo{src: arch.TileID(w.Tile), seq: w.Seq}, t: arch.Cycles(w.Time), replyType: w.ReplyType,
			})
		}
		s.mutexes[arch.Addr(rec.Addr)] = m
	}

	s.barriers = make(map[arch.Addr]*barrierRec, len(ms.Barriers))
	for _, rec := range ms.Barriers {
		b := &barrierRec{}
		for _, w := range rec.Waiters {
			b.waiters = append(b.waiters, barrierWaiter{
				to: replyTo{src: arch.TileID(w.Tile), seq: w.Seq}, t: arch.Cycles(w.Time),
			})
		}
		s.barriers[arch.Addr(rec.Addr)] = b
	}

	s.conds = make(map[arch.Addr]*condRec, len(ms.Conds))
	for _, rec := range ms.Conds {
		c := &condRec{}
		for _, w := range rec.Waiters {
			c.waiters = append(c.waiters, condWaiter{
				to: replyTo{src: arch.TileID(w.Tile), seq: w.Seq}, t: arch.Cycles(w.Time), mutex: arch.Addr(w.Mutex),
			})
		}
		s.conds[arch.Addr(rec.Addr)] = c
	}

	s.alloc.free = s.alloc.free[:0]
	for _, sp := range ms.Alloc.Free {
		s.alloc.free = append(s.alloc.free, span{base: arch.Addr(sp.Base), size: arch.Addr(sp.Size)})
	}
	s.alloc.allocated = make(map[arch.Addr]arch.Addr, len(ms.Alloc.Allocated))
	for _, blk := range ms.Alloc.Allocated {
		s.alloc.allocated[arch.Addr(blk.Addr)] = arch.Addr(blk.Size)
	}
	s.alloc.inUse = arch.Addr(ms.Alloc.InUse)
	s.alloc.peak = arch.Addr(ms.Alloc.Peak)
	return nil
}
