package core

// Per-process checkpoint support (DESIGN.md §18): the LCP answers the
// MCP's drain probe with ckptProbe and its save order with ckptSave. A
// save runs each tile's capture in
// that tile's memory server, the shard that serves it, which runs the
// function queued with EnqueueCtrl the next time it serves the tile; no
// packet carries it, so a checkpoint moves no tile's traffic or
// statistics. Restore uses the same path on a freshly constructed,
// not-yet-started cluster.

import (
	"fmt"
	"sync"

	"repro/internal/arch"
	"repro/internal/checkpoint"
	"repro/internal/mcp"
	"repro/internal/network"
)

// ckptConfig is the per-process slice of the checkpoint policy: where to
// write state files and the config digest stamped into them. Set by
// Cluster.SetCheckpoint before any thread starts.
type ckptConfig struct {
	dir    string
	digest string
}

// SetCheckpoint attaches the per-process checkpoint configuration. Call
// before the simulation starts.
func (p *Proc) SetCheckpoint(dir, configDigest string) {
	p.ckpt = &ckptConfig{dir: dir, digest: configDigest}
}

// ckptProbe reports this process's drain status: cumulative memory-class
// traffic over the local tiles and whether every local node is quiesced.
// All reads are atomic, so it never blocks the LCP loop.
func (p *Proc) ckptProbe() mcp.CkptProbeRep {
	rep := mcp.CkptProbeRep{Quiesced: true}
	for _, t := range p.tileList {
		ns := t.Net.Stats()
		rep.Sent += ns.PacketsSent[network.ClassMemory].Load()
		rep.Recv += ns.PacketsRecv[network.ClassMemory].Load()
		if !t.Mem.Quiesced() {
			rep.Quiesced = false
		}
	}
	return rep
}

// ckptSave serializes the process's complete simulation state for one
// epoch and writes the per-process state file. It runs on the LCP loop
// and blocks until every local tile has captured.
func (p *Proc) ckptSave(epoch int64) mcp.CkptSaveResult {
	res := mcp.CkptSaveResult{Proc: int32(p.id)}
	cp := p.ckpt
	if cp == nil {
		res.Err = "process has no checkpoint configuration"
		return res
	}
	ps := &checkpoint.ProcState{
		Version:      checkpoint.Version,
		Proc:         int32(p.id),
		Epoch:        epoch,
		ConfigDigest: cp.digest,
		Tiles:        make([]checkpoint.TileState, len(p.tileList)),
	}
	if err := p.forEachTileCtrl(func(i int, t *Tile) error {
		ts := &ps.Tiles[i]
		ts.Tile = int32(t.ID)
		ts.Clock = int64(t.Clock.Now())
		ts.Core = t.Core.Capture()
		return t.Mem.Capture(ts)
	}); err != nil {
		res.Err = err.Error()
		return res
	}
	file, fileSum, stateDigest, err := checkpoint.WriteProcState(cp.dir, ps)
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.File = file
	res.FileSum = fileSum
	res.StateDigest = stateDigest
	return res
}

// RestoreState overwrites every local tile's state from a snapshot taken
// by ckptSave on an identically configured process. It must run on a
// started but idle process — servers pumping, no thread started.
func (p *Proc) RestoreState(ps *checkpoint.ProcState) error {
	if ps.Version != checkpoint.Version {
		return fmt.Errorf("core: proc %d restore: checkpoint version %d, want %d", p.id, ps.Version, checkpoint.Version)
	}
	if int32(p.id) != ps.Proc {
		return fmt.Errorf("core: proc %d restoring proc %d state", p.id, ps.Proc)
	}
	if len(ps.Tiles) != len(p.tileList) {
		return fmt.Errorf("core: proc %d restore tile-count mismatch: snapshot %d, process %d", p.id, len(ps.Tiles), len(p.tileList))
	}
	return p.forEachTileCtrl(func(i int, t *Tile) error {
		ts := &ps.Tiles[i]
		if arch.TileID(ts.Tile) != t.ID {
			return fmt.Errorf("core: tile order mismatch at %d: snapshot tile %d, local tile %d", i, ts.Tile, t.ID)
		}
		if err := t.Mem.Restore(ts); err != nil {
			return err
		}
		if ts.Core != nil {
			if err := t.Core.Restore(ts.Core); err != nil {
				return err
			}
		}
		t.Clock.Set(arch.Cycles(ts.Clock))
		return nil
	})
}

// forEachTileCtrl runs fn(i, tile) for every local tile in that tile's
// memory server and waits for all of them; fn must not block. A tile
// whose server has returned gets an error instead of a run. Errors are
// collected per tile; the first (in stripe order) is returned.
func (p *Proc) forEachTileCtrl(fn func(i int, t *Tile) error) error {
	errs := make([]error, len(p.tileList))
	var wg sync.WaitGroup
	for i, t := range p.tileList {
		i, t := i, t
		wg.Add(1)
		if err := t.Mem.EnqueueCtrl(func() {
			defer wg.Done()
			errs[i] = fn(i, t)
		}); err != nil {
			wg.Done()
			errs[i] = fmt.Errorf("core: control of tile %d: %w", t.ID, err)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
