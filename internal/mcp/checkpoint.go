package mcp

// Checkpoint orchestration (DESIGN.md §18). The MCP decides on a
// checkpoint at a LaxBarrier release point: every running, unblocked
// thread is parked waiting for the epoch release, so simulated state is
// changing nowhere except the terminating tails of in-flight memory
// traffic (evictions and their acks). The MCP stashes the release,
// captures its own service state, and starts the checkpoint function,
// which probes every process until residual traffic drains, orders each
// process to save its state, writes the manifest, and only then performs
// the stashed release.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/arch"
	"repro/internal/checkpoint"
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
	// OnSaved, if non-nil, is called after each manifest is written,
	// before the epoch is released; it must not block.
	OnSaved func(epoch int64, m *checkpoint.Manifest)
	// OnError, if non-nil, observes non-fatal checkpoint failures (a
	// drain past its bound, save I/O errors). The simulation continues
	// without the checkpoint; it must not block.
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

// maybeCheckpoint starts a checkpoint at a barrier release point when the
// policy calls for one, leaving the release (already collected in
// releaseTo) to the checkpoint function. It returns true when it did.
// recheckSimBarrier releases nothing while the function runs, so the
// stash stays intact. It declines while a thread is blocked in an
// application receive: the drain counts only memory traffic, so an
// application message still in flight could wake that thread during the
// cut. Serve loop only.
func (s *Server) maybeCheckpoint(epoch int64) bool {
	cp := s.ckpt
	if cp == nil || cp.Every <= 0 || epoch <= 0 || epoch%cp.Every != 0 || epoch == s.ckptLast || s.round.Count(synchro.Receiving) > 0 {
		return false
	}
	s.ckptLast = epoch
	s.ckptRunning = true
	s.ckptWG.Add(1)
	go s.checkpoint(epoch, s.CaptureState())
	return true
}

// checkpoint cuts the checkpoint at epoch, whose release is stashed, and
// then releases the epoch: on an error the snapshot is lost (OnError
// hears of it), never the run. A replay divergence under StrictVerify is
// the exception: no manifest is written, the release stays withheld (the
// parked threads are torn down with the run) and the launcher aborts via
// CkptFailed. At the end of the serve loop it returns as it stands.
func (s *Server) checkpoint(epoch int64, ms *checkpoint.MCPState) {
	defer s.ckptWG.Done()
	cp := s.ckpt
	onError := func(err error) {
		if cp.OnError != nil {
			cp.OnError(err)
		}
	}
	m, err := s.cut(epoch, ms)
	if errors.Is(err, errServeEnded) {
		return
	}
	if want, ok := cp.Verify[epoch]; ok && err == nil && !slices.Equal(want, m.VerifyDigests()) {
		diverged := fmt.Errorf("mcp: replay diverged at epoch %d: checkpoint digests do not match previous attempt", epoch)
		if cp.StrictVerify {
			select {
			case s.ckptFailed <- diverged:
			default:
			}
			return
		}
		// Timing-dependent state may differ across attempts of a
		// multi-thread run; its workload checksum is the identity.
		onError(diverged)
	}
	if err == nil {
		err = checkpoint.WriteManifest(cp.Dir, m)
	}
	if err != nil {
		onError(fmt.Errorf("mcp: checkpoint at epoch %d abandoned: %w", epoch, err))
	} else if cp.OnSaved != nil {
		cp.OnSaved(epoch, m)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ckptRunning = false
	s.releaseEpoch(epoch)
	s.recheckSimBarrier()
}

// cut probes every process until the traffic has drained, has each save
// its state, and assembles the manifest.
func (s *Server) cut(epoch int64, ms *checkpoint.MCPState) (*checkpoint.Manifest, error) {
	if err := s.drain(); err != nil {
		return nil, err
	}
	g, err := s.ask(MsgCkptSave, EncodeU64(uint64(epoch)), time.Time{})
	if err != nil {
		return nil, err
	}
	saves := make([]CkptSaveResult, len(g.reps))
	for p, b := range g.reps {
		if err := wire.Decode(b, saves[p].Walk); err != nil {
			return nil, fmt.Errorf("process %d save reply: %w", p, err)
		}
	}
	return s.ckpt.Manifest(epoch, ms, saves)
}

// drain probes every process until the memory traffic has settled: every
// node quiesced, as many packets received as sent, and the counts
// unchanged since the previous round (they are cumulative, so equal
// means nothing moved). Residual post-barrier traffic is a bounded set of
// eviction chains, each shortened by every round trip, so a drain that
// outlasts drainBound, counted from the first probe, means the fabric is
// wedged.
//
//graphite:wallclock host-liveness bound of the drain probe (ckptDrainTimeout); it decides only whether a snapshot is kept, never simulated state
func (s *Server) drain() error {
	start := time.Now()
	deadline := start.Add(s.drainBound)
	prevSent, prevRecv := ^uint64(0), ^uint64(0)
	for rounds := 1; ; rounds++ {
		g, err := s.ask(MsgCkptProbe, nil, deadline)
		if errors.Is(err, errServeEnded) {
			return err
		}
		if err != nil {
			return fmt.Errorf("traffic did not drain in %v (%d probe rounds): %w", time.Since(start).Round(time.Millisecond), rounds, err)
		}
		var sent, recv uint64
		quiesced := true
		for p, b := range g.reps {
			var rep CkptProbeRep
			if err := wire.Decode(b, rep.Walk); err != nil {
				return fmt.Errorf("process %d probe reply: %w", p, err)
			}
			sent += rep.Sent
			recv += rep.Recv
			quiesced = quiesced && rep.Quiesced
		}
		if quiesced && sent == recv && sent == prevSent && recv == prevRecv {
			return nil
		}
		prevSent, prevRecv = sent, recv
		if waited := time.Since(start); waited > s.drainBound {
			return fmt.Errorf("traffic did not drain in %v (%d probe rounds)", waited.Round(time.Millisecond), rounds)
		}
	}
}

// Manifest assembles the manifest of a checkpoint at epoch from the MCP's
// service state and every process's save result, in process order. It
// fails on the first process whose save failed.
func (p *CheckpointPolicy) Manifest(epoch int64, ms *checkpoint.MCPState, saves []CkptSaveResult) (*checkpoint.Manifest, error) {
	m := &checkpoint.Manifest{
		Epoch:        epoch,
		FabricID:     p.FabricID,
		Generation:   p.Generation,
		ConfigDigest: p.ConfigDigest,
		Procs:        make([]checkpoint.ManifestProc, len(saves)),
		MCP:          ms,
	}
	for i, r := range saves {
		if r.Err != "" {
			return nil, fmt.Errorf("proc %d save: %s", r.Proc, r.Err)
		}
		m.Procs[i] = checkpoint.ManifestProc{Proc: r.Proc, File: r.File, FileSum: r.FileSum, StateDigest: r.StateDigest}
	}
	slices.SortFunc(m.Procs, func(a, b checkpoint.ManifestProc) int { return cmp.Compare(a.Proc, b.Proc) })
	return m, nil
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
