package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/mcp"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/synchro"
	"repro/internal/transport"
)

// Proc is one simulated host process: a subset of the target tiles (striped
// by tile ID), a Local Control Program, and — on process 0 — the Master
// Control Program.
type Proc struct {
	id       arch.ProcID
	cfg      *config.Config
	prog     Program
	tr       transport.Transport
	progress *clock.ProgressWindow
	models   *network.Models

	// tiles is dense, indexed by global tile ID (nil for tiles owned by
	// other processes): thread starts and LaxP2P local-partner probes
	// resolve a tile with one array load, and a thousand-tile process
	// allocates the table in one step instead of growing a map. tileList
	// holds only the local tiles, in stripe order.
	tiles    []*Tile
	tileList []*Tile

	lcp    *mcp.LCP
	lcpNet *network.Net

	// ledger batches this process's LaxBarrier waits into one MCP message
	// per quantum round (nil under Lax and LaxP2P).
	ledger *synchro.Ledger

	// MCP, present on process 0 only.
	MCP    *mcp.Server
	mcpNet *network.Net

	// OnShutdown, if set before Start, runs when the MCP announces
	// teardown (worker OS processes use it to exit).
	OnShutdown func()

	// ckpt, if set before any thread starts, enables the LCP's
	// checkpoint-save callback (see checkpoint.go). ckptPokes counts the
	// control packets sent to local tiles: they arrive on the memory
	// class, so the drain probe must subtract them from the tiles'
	// receive counters or sent/recv would never balance again.
	ckpt      *ckptConfig
	ckptPokes atomic.Uint64

	threads sync.WaitGroup
}

// NewProc builds the runtime of one host process on an attached transport.
func NewProc(id arch.ProcID, cfg *config.Config, prog Program, tr transport.Transport) (*Proc, error) {
	if len(prog.Funcs) == 0 {
		return nil, fmt.Errorf("core: program %q has no thread functions", prog.Name)
	}
	p := &Proc{
		id:       id,
		cfg:      cfg,
		prog:     prog,
		tr:       tr,
		progress: clock.NewProgressWindow(cfg.ProgressWindowSize()),
		tiles:    make([]*Tile, cfg.Tiles),
	}
	p.models = network.NewModels(cfg, p.progress)

	for _, tid := range cfg.TilesOf(id) {
		ep, err := tr.Register(transport.TileEndpoint(tid))
		if err != nil {
			return nil, err
		}
		tile := NewTile(tid, cfg, network.New(tid, tr, ep, p.models, p.progress), p.progress)
		p.tiles[tid] = tile
		p.tileList = append(p.tileList, tile)
	}

	lcpEP, err := tr.Register(transport.LCP(id))
	if err != nil {
		return nil, err
	}
	p.lcpNet = network.New(arch.TileID(transport.LCP(id)), tr, lcpEP, p.models, nil)
	if cfg.Sync.Model == config.LaxBarrier {
		// Batches ride the zero-delay system network from the LCP endpoint;
		// Net.Send is safe from the app-thread goroutine that completes a
		// round. Ledger waits carry no simulated time — the MCP's barrier
		// service never reads it (releases are at time 0).
		p.ledger = synchro.NewLedger(func(ws []synchro.EpochWait) {
			p.lcpNet.Send(network.ClassSystem, mcp.MsgSimBarrierBatch, mcpTile, 0, mcp.EncodeSimBatch(ws), 0)
		})
		for _, t := range p.tileList {
			t.onBlock = p.ledger.SetBlocked
		}
	}
	p.lcp = mcp.NewLCP(id, p.lcpNet, mcp.LCPCallbacks{
		StartThread:  p.startThread,
		CollectStats: p.collectStats,
		Flush:        p.flushAll,
		Shutdown: func() {
			if p.OnShutdown != nil {
				p.OnShutdown()
			}
		},
		SimRelease: func(epoch int64) {
			if p.ledger != nil {
				p.ledger.Release(epoch)
			}
		},
		CkptProbe: p.ckptProbe,
		CkptSave:  p.ckptSave,
	})

	if id == 0 {
		mcpEP, err := tr.Register(transport.MCP)
		if err != nil {
			return nil, err
		}
		p.mcpNet = network.New(arch.TileID(transport.MCP), tr, mcpEP, p.models, nil)
		p.MCP = mcp.NewServer(cfg, p.mcpNet)
	}
	return p, nil
}

// Start launches every server goroutine of the process: one per tile, the
// LCP, and the MCP on process 0. Each pumps its own endpoint.
func (p *Proc) Start() {
	for _, t := range p.tileList {
		t.Start()
	}
	go p.lcp.Serve()
	if p.MCP != nil {
		go p.MCP.Serve()
	}
}

// startThread is the LCP callback launching an application thread.
func (p *Proc) startThread(st mcp.StartThread, start arch.Cycles) {
	if int(st.Tile) >= len(p.tiles) || p.tiles[st.Tile] == nil {
		panic(fmt.Sprintf("core: process %d asked to start thread on foreign tile %v", p.id, st.Tile))
	}
	tile := p.tiles[st.Tile]
	if int(st.Func) >= len(p.prog.Funcs) {
		panic(fmt.Sprintf("core: spawn of unregistered function %d", st.Func))
	}
	p.threads.Add(1)
	go func() {
		defer p.threads.Done()
		tile.Clock.Forward(start)
		tile.active.Store(true)
		if p.ledger != nil {
			p.ledger.ThreadStarted(tile.ID)
		}
		th := &Thread{tile: tile, proc: p}
		if m := p.newSyncModel(tile); m != nil {
			th.tickFn = m.Tick
		}
		if !p.runThreadFunc(p.prog.Funcs[st.Func], th, st.Arg) {
			// The simulation was dismantled under the thread (teardown of
			// a wedged or recovering run). The control plane is gone, so
			// there is no one to notify; just exit.
			tile.active.Store(false)
			return
		}
		tile.active.Store(false)
		if p.ledger != nil {
			// Before the MCP hears of the exit: the departure may complete
			// the local round, and the flushed waits must not trail the
			// exit's recheck at the MCP longer than necessary.
			p.ledger.ThreadExited(tile.ID)
		}
		instr, br, miss, comp, mem := tile.Core.Stats()
		tile.Mem.SetFinal(tile.Clock.Now(), instr, br, miss, comp, mem)
		tile.sys.notify(mcp.MsgThreadExit, mcpTile, nil, tile.Clock.Now())
	}()
}

// runThreadFunc executes one application thread function, absorbing the
// tornDown panic that Thread APIs throw when the simulation is torn down
// under a live thread. It reports whether the function ran to completion;
// any other panic propagates unchanged.
func (p *Proc) runThreadFunc(fn ThreadFunc, th *Thread, arg uint64) (completed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(tornDown); ok {
				return
			}
			panic(r)
		}
	}()
	fn(th, arg)
	return true
}

// newSyncModel instantiates the configured synchronization model for a
// freshly started thread. Plain Lax returns nil: the thread runtime then
// skips model ticks entirely. Threads blocked in any of these closures
// leave their memory node's ownership word free, so its server answers
// coherence interventions while they wait.
func (p *Proc) newSyncModel(tile *Tile) synchro.Model {
	switch p.cfg.Sync.Model {
	case config.LaxBarrier:
		return synchro.NewBarrier(p.cfg.Sync.BarrierQuantum, func(epoch int64) {
			// Park at the process ledger; the wait reaches the MCP in the
			// round's batch and the ledger wakes us on the epoch release.
			p.ledger.Wait(tile.ID, epoch)
		})
	case config.LaxP2P:
		probe := func(target arch.TileID) (arch.Cycles, bool) {
			if local := p.tiles[target]; local != nil {
				// Same-process partner: its clock is an atomic word — read
				// it directly instead of a system-network round trip. With
				// one host process a thousand tiles probe without a single
				// RPC.
				if !local.Running() {
					// A partner with no running thread (or blocked in the
					// control plane) is waiting, not behind: skip it.
					return 0, false
				}
				return local.Clock.Now(), true
			}
			pkt, ok := tile.sys.call(mcp.MsgClockProbe, target, nil, tile.Clock.Now())
			if !ok {
				return 0, false
			}
			v, running, err := mcp.DecodeU64Pair(pkt.Payload)
			if err != nil || running == 0 {
				return 0, false
			}
			return arch.Cycles(v), true
		}
		// While napping the tile is waiting, not behind: exclude it from
		// skew sampling and partner probes like any blocked thread.
		nap := func(d time.Duration) {
			tile.setRPCBlocked(true, false)
			time.Sleep(d) //graphite:wallclock LaxP2P nap (paper §3.6.3) throttles host execution only; the frozen simulated clock resumes exactly where it stopped
			tile.setRPCBlocked(false, false)
		}
		return synchro.NewP2P(p.cfg.Sync, tile.ID, p.cfg.Tiles, p.cfg.RandSeed, probe, nap)
	default:
		return nil
	}
}

// collectStats snapshots every local tile.
func (p *Proc) collectStats() []stats.Tile {
	out := make([]stats.Tile, 0, len(p.tileList))
	for _, t := range p.tileList {
		out = append(out, t.Mem.Stats())
	}
	return out
}

// flushAll writes back all local caches.
func (p *Proc) flushAll() {
	for _, t := range p.tileList {
		t.Mem.FlushAll(t.Clock.Now())
	}
}

// Tiles returns the process's tiles (for skew sampling and tests).
func (p *Proc) Tiles() []*Tile { return p.tileList }

// Wait blocks until all local application threads have returned.
func (p *Proc) Wait() { p.threads.Wait() }

// Close shuts down the process's network receive loops (every tile net,
// the LCP net, and the MCP net on process 0). The transport itself belongs
// to the caller and is closed separately. Threads parked at the barrier
// stay parked: Cluster.Close wakes them once the servers have stopped.
func (p *Proc) Close() {
	for _, t := range p.tileList {
		t.Net.Close()
	}
	p.lcpNet.Close()
	if p.mcpNet != nil {
		p.mcpNet.Close()
	}
}
