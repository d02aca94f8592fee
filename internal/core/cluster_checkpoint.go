package core

// Cluster-level checkpoint entry points: policy attachment for running
// simulations, direct capture for idle in-process clusters (tests and
// tools), and restore into a freshly constructed cluster.

import (
	"fmt"

	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/mcp"
)

// SetCheckpoint attaches a checkpoint policy to the cluster: the MCP (on
// the cluster that hosts it) initiates a save at every epoch divisible by
// pol.Every, and each process writes its state file into pol.Dir. Call
// after construction and before Run or Serve.
func (c *Cluster) SetCheckpoint(pol *mcp.CheckpointPolicy) {
	c.ckpt = pol
	if m := c.procs[0].MCP; m != nil {
		m.SetCheckpoint(pol)
	}
	for _, p := range c.procs {
		p.SetCheckpoint(pol.Dir, pol.ConfigDigest)
	}
}

// CaptureState checkpoints an idle NewCluster cluster directly — before
// Run, or after Run has returned — without the MCP's drain protocol:
// every tile is captured in its server goroutine and the manifest
// written synchronously. SetCheckpoint must have been called. Running
// simulations are checkpointed by the MCP at epoch boundaries instead.
func (c *Cluster) CaptureState(epoch int64) (*checkpoint.Manifest, error) {
	pol := c.ckpt
	if pol == nil {
		return nil, fmt.Errorf("core: CaptureState without SetCheckpoint")
	}
	m := &checkpoint.Manifest{
		Epoch:        epoch,
		FabricID:     pol.FabricID,
		Generation:   pol.Generation,
		ConfigDigest: pol.ConfigDigest,
		MCP:          c.procs[0].MCP.CaptureState(),
	}
	for _, p := range c.procs {
		res := p.ckptSave(epoch)
		if res.Err != "" {
			return nil, fmt.Errorf("core: proc %d capture: %s", p.id, res.Err)
		}
		m.Procs = append(m.Procs, checkpoint.ManifestProc{
			Proc:        res.Proc,
			File:        res.File,
			FileSum:     res.FileSum,
			StateDigest: res.StateDigest,
		})
	}
	if err := checkpoint.WriteManifest(pol.Dir, m); err != nil {
		return nil, err
	}
	return m, nil
}

// RestoreCluster builds a fresh cluster for cfg/prog and loads the
// complete simulation state recorded in manifest m (state files in dir)
// into it: every cache, directory entry, DRAM line, clock, core model,
// and the MCP's service tables. The cluster has not run any thread, so
// all restores are race-free. The restored cluster serves functional
// inspection (Peek/Poke, stats, state re-capture); threads are host
// goroutines whose stacks are not serialized, so execution does not
// resume from the snapshot — recovery re-runs deterministically and
// verifies against recorded digests instead (DESIGN.md §18).
func RestoreCluster(cfg config.Config, prog Program, dir string, m *checkpoint.Manifest) (*Cluster, error) {
	states, err := checkpoint.LoadProcStates(dir, m)
	if err != nil {
		return nil, err
	}
	if len(states) != cfg.Processes {
		return nil, fmt.Errorf("core: manifest has %d processes, config %d", len(states), cfg.Processes)
	}
	c, err := NewCluster(cfg, prog)
	if err != nil {
		return nil, err
	}
	for i, p := range c.procs {
		if err := p.RestoreState(states[i]); err != nil {
			c.Close()
			return nil, err
		}
	}
	if m.MCP != nil {
		// Direct call, not a message: the MCP serve goroutine is parked in
		// Recv with no traffic possible before the first thread starts, and
		// the later channel operations that start one order this write
		// before any read.
		if err := c.procs[0].MCP.RestoreState(m.MCP); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}
