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
	"errors"
	"fmt"
	"sort"

	"repro/internal/arch"
	"repro/internal/checkpoint"
	"repro/internal/network"
	"repro/internal/transport"
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

// ckptMaxProbeRounds bounds the drain probe. Residual post-barrier
// traffic is a bounded set of eviction chains, each shortened by every
// round trip, so a drain that outlasts this many rounds means the fabric
// is wedged; the checkpoint is abandoned and the run released.
const ckptMaxProbeRounds = 1000

// SetCheckpoint attaches the policy. Call before the simulation starts
// (the serve goroutine reads the field without locking).
func (s *Server) SetCheckpoint(p *CheckpointPolicy) { s.ckpt = p }

// CkptFailed reports a fatal checkpoint failure: a replay-verification
// digest mismatch. The simulation cannot produce trustworthy results
// past it; launchers select on this alongside run completion.
func (s *Server) CkptFailed() <-chan error { return s.ckptFailed }

// maybeCheckpoint begins a checkpoint at a barrier release point when
// the policy calls for one, deferring the release (already collected in
// releaseProcs) until the save completes. It returns true
// when the release was stashed. No recheckSimBarrier can run during the
// window — every unblocked thread is parked on this very release — so
// the stashed scratch state stays intact. It declines while a thread is
// blocked in an application receive: the drain counts only memory
// traffic, so an application message still in flight could wake that
// thread during the cut.
func (s *Server) maybeCheckpoint(epoch int64) bool {
	cp := s.ckpt
	if cp == nil || cp.Every <= 0 || epoch <= 0 || epoch%cp.Every != 0 || epoch == s.ckptLast || len(s.recvBlocked) > 0 {
		return false
	}
	s.ckptLast = epoch
	s.ckptEpoch = epoch
	s.ckptMCP = s.CaptureState()
	s.ckptPrevSent = ^uint64(0)
	s.ckptPrevRecv = ^uint64(0)
	s.ckptRounds = 0
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
		s.sendCkpt(arch.ProcID(p), MsgCkptProbe, nil)
	}
}

func (s *Server) sendCkpt(p arch.ProcID, typ uint8, payload []byte) {
	dst := arch.TileID(transport.LCP(p))
	if _, err := s.net.Send(network.ClassSystem, typ, dst, 0, payload, 0); err != nil && !errors.Is(err, transport.ErrClosed) {
		panic("mcp: checkpoint send failed: " + err.Error())
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
	if s.ckptRounds > ckptMaxProbeRounds {
		s.abortCheckpoint(fmt.Errorf("mcp: checkpoint at epoch %d abandoned: traffic did not drain in %d probe rounds", s.ckptEpoch, ckptMaxProbeRounds))
		return
	}
	s.sendCkptProbes()
}

// sendCkptSaves orders every process to serialize its state.
func (s *Server) sendCkptSaves() {
	s.ckptAcks = 0
	payload := EncodeU64(uint64(s.ckptEpoch))
	for p := 0; p < s.cfg.Processes; p++ {
		s.sendCkpt(arch.ProcID(p), MsgCkptSave, payload)
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
		TileBusy: append([]bool(nil), s.tileBusy...),
		Running:  s.running,
		NextFD:   s.fs.nextFD,
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
	for tile := range s.blocked {
		ms.Blocked = append(ms.Blocked, int32(tile))
	}
	sort.Slice(ms.Blocked, func(i, j int) bool { return ms.Blocked[i] < ms.Blocked[j] })

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

	//graphite:maporder flattened sorted below
	for path, f := range s.fs.files {
		ms.Files = append(ms.Files, checkpoint.FileState{Path: path, Data: append([]byte(nil), f.data...)})
	}
	sort.Slice(ms.Files, func(i, j int) bool { return ms.Files[i].Path < ms.Files[j].Path })
	//graphite:maporder flattened sorted below
	for fd, e := range s.fs.fds {
		fs := checkpoint.FDState{FD: fd, Off: e.off, Path: s.fs.pathOf(e.file)}
		if fs.Path == "" {
			// Unlinked-but-open file: its contents survive only through
			// the descriptor. Sharing between two such descriptors is not
			// preserved (each restores its own copy).
			fs.Data = append([]byte(nil), e.file.data...)
		}
		ms.FDs = append(ms.FDs, fs)
	}
	sort.Slice(ms.FDs, func(i, j int) bool { return ms.FDs[i].FD < ms.FDs[j].FD })
	return ms
}

// pathOf finds the table name of a file, or "" for unlinked files.
func (fs *FS) pathOf(f *memFile) string {
	found := ""
	//graphite:maporder pointer-identity lookup; at most one path matches
	for path, g := range fs.files {
		if g == f {
			found = path
			break
		}
	}
	return found
}

// RestoreState overwrites the MCP's service tables from a snapshot taken
// by CaptureState. It must run while no simulation traffic can arrive —
// in practice on a freshly constructed cluster before any thread starts.
func (s *Server) RestoreState(ms *checkpoint.MCPState) error {
	if len(ms.TileBusy) != len(s.tileBusy) {
		return fmt.Errorf("mcp: restore tile-count mismatch: snapshot %d, server %d", len(ms.TileBusy), len(s.tileBusy))
	}
	copy(s.tileBusy, ms.TileBusy)
	s.running = ms.Running
	s.everStarted = ms.Running > 0 || len(ms.Threads) > 0

	s.threads = make(map[arch.ThreadID]*threadRec, len(ms.Threads))
	for _, ts := range ms.Threads {
		rec := &threadRec{exited: ts.Exited, exitTime: arch.Cycles(ts.ExitTime)}
		for _, j := range ts.Joiners {
			rec.joiners = append(rec.joiners, replyTo{src: arch.TileID(j.Tile), seq: j.Seq})
		}
		s.threads[arch.ThreadID(ts.Thread)] = rec
	}

	s.blocked = make(map[arch.TileID]bool, len(ms.Blocked))
	for _, t := range ms.Blocked {
		s.blocked[arch.TileID(t)] = true
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

	s.fs.files = make(map[string]*memFile, len(ms.Files))
	for _, f := range ms.Files {
		s.fs.files[f.Path] = &memFile{data: append([]byte(nil), f.Data...)}
	}
	s.fs.fds = make(map[int32]*fdEntry, len(ms.FDs))
	for _, fd := range ms.FDs {
		e := &fdEntry{off: fd.Off}
		if fd.Path != "" {
			f := s.fs.files[fd.Path]
			if f == nil {
				return fmt.Errorf("mcp: restore fd %d references unknown file %q", fd.FD, fd.Path)
			}
			e.file = f
		} else {
			e.file = &memFile{data: append([]byte(nil), fd.Data...)}
		}
		s.fs.fds[fd.FD] = e
	}
	s.fs.nextFD = ms.NextFD
	return nil
}
