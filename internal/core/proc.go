package core

import (
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/mcp"
	"repro/internal/memsys"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/synchro"
	"repro/internal/transport"
	"repro/internal/wire"
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

	// lcpNet is the process's LCP endpoint, which serveLCP serves;
	// lcpDone is closed when that loop ends. started anchors the serving
	// time the teardown ack reports.
	lcpNet  *network.Net
	lcpDone chan struct{}
	started time.Time

	// ledger batches this process's LaxBarrier waits into one MCP message
	// per quantum round (nil under Lax and LaxP2P).
	ledger *synchro.Ledger

	// MCP, present on process 0 only.
	MCP    *mcp.Server
	mcpNet *network.Net

	// shutdown is closed when the MCP announces teardown (a worker's
	// Cluster.Serve returns on it).
	shutdown chan struct{}

	// ckpt, if set before any thread starts, lets the LCP save the
	// process's state (see checkpoint.go).
	ckpt *ckptConfig

	// shards are the memory-server shards Start launched.
	shards []*memsys.Shard

	threads sync.WaitGroup
}

// NewProc builds the runtime of one host process on an attached transport.
//
//graphite:wallclock anchors the per-process wall-serving timer reported as proc_wall_sec — reporting only, excluded from reproducibility diffs, never feeds simulated state
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
		lcpDone:  make(chan struct{}),
		shutdown: make(chan struct{}),
		started:  time.Now(),
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

// Start launches every server goroutine of the process: one
// memory-server shard per core of its share of the host, the LCP loop,
// and the MCP on process 0. cores is that share (HostShare), 1 to the
// process's tile count; tile i of the stripe goes to shard i mod cores.
// The shards pump the tiles' endpoints and run their threads, the LCP and
// MCP pump their own.
func (p *Proc) Start(cores int) {
	shards := make([][]*memsys.Node, cores)
	for i, t := range p.tileList {
		shards[i%cores] = append(shards[i%cores], t.Mem)
	}
	for _, nodes := range shards {
		// Built here, not in the goroutine: a thread start the LCP
		// handles next must find its tile's shard.
		sh := memsys.NewShard(nodes...)
		p.shards = append(p.shards, sh)
		go sh.Run()
	}
	go p.serveLCP()
	if p.MCP != nil {
		go p.MCP.Serve()
	}
}

// HostShare is how the simulated processes on one host split its cores:
// of w cores, the process of rank r among the k that share the host gets
// w/k, plus one when r < w%k, and at least one and at most its tiles. w is
// Config.Workers, else GOMAXPROCS: the cores one simulation may use on
// each host, whatever the number of its processes there.
func HostShare(w, k, r, tiles int) int {
	share := w / k
	if r < w%k {
		share++
	}
	return max(1, min(share, tiles))
}

// serveLCP is the process's Local Control Program: it starts the
// threads the MCP places here, answers the MCP's asks (flush, stats,
// checkpoint probe and save, teardown) and hands epoch releases to the
// ledger. It returns when the LCP endpoint closes.
func (p *Proc) serveLCP() {
	defer close(p.lcpDone)
	for {
		pkt, ok := p.lcpNet.Recv(network.ClassSystem)
		if !ok {
			return
		}
		switch pkt.Type {
		case mcp.MsgStartThread:
			st, err := mcp.DecodeStartThread(pkt.Payload)
			if err != nil {
				panic("core: " + err.Error())
			}
			p.startThread(st, pkt.Time)
			if st.Seq != 0 {
				// Listed on its shard now, the child runs before the
				// parent's next turn there.
				mcp.Send(p.lcpNet, mcp.MsgSpawnRep, st.Parent, st.Seq, mcp.EncodeU64Pair(uint64(st.Tile), uint64(pkt.Time)), pkt.Time)
			}
		case mcp.MsgSimBarrierRelease:
			epoch, err := mcp.DecodeU64(pkt.Payload)
			if err != nil {
				panic("core: " + err.Error())
			}
			if p.ledger != nil {
				p.ledger.Release(int64(epoch))
			}
		case mcp.MsgFlush:
			p.flushAll()
			mcp.Send(p.lcpNet, mcp.MsgFlushRep, pkt.Src, pkt.Seq, nil, 0)
		case mcp.MsgStatsGather:
			mcp.Send(p.lcpNet, mcp.MsgStatsRep, pkt.Src, pkt.Seq, mcp.EncodeStats(p.collectStats()), 0)
		case mcp.MsgCkptProbe:
			rep := p.ckptProbe()
			mcp.Send(p.lcpNet, mcp.MsgCkptProbeRep, pkt.Src, pkt.Seq, wire.Encode(rep.Walk), 0)
		case mcp.MsgCkptSave:
			epoch, err := mcp.DecodeU64(pkt.Payload)
			if err != nil {
				panic("core: " + err.Error())
			}
			res := p.ckptSave(int64(epoch))
			mcp.Send(p.lcpNet, mcp.MsgCkptSaveRep, pkt.Src, pkt.Seq, wire.Encode(res.Walk), 0)
		case mcp.MsgShutdown:
			// Acknowledge, then act: a worker OS process exits once
			// shutdown closes and tears the transport down with it.
			wall := time.Since(p.started) //graphite:wallclock proc_wall_sec reporting; excluded from reproducibility diffs
			mcp.Send(p.lcpNet, mcp.MsgShutdownRep, pkt.Src, pkt.Seq, mcp.EncodeU64(uint64(wall.Nanoseconds())), 0)
			select {
			case <-p.shutdown:
			default:
				close(p.shutdown)
			}
		}
	}
}

// startThread launches an application thread: a coroutine of the shard
// that serves the tile, which runs it from there.
func (p *Proc) startThread(st mcp.StartThread, start arch.Cycles) {
	if int(st.Tile) >= len(p.tiles) || p.tiles[st.Tile] == nil {
		panic(fmt.Sprintf("core: process %d asked to start thread on foreign tile %v", p.id, st.Tile))
	}
	tile := p.tiles[st.Tile]
	if int(st.Func) >= len(p.prog.Funcs) {
		panic(fmt.Sprintf("core: spawn of unregistered function %d", st.Func))
	}
	fn := p.prog.Funcs[st.Func]
	p.threads.Add(1)
	tile.Mem.Go(func(co *memsys.Coro) {
		tile.setParker(co, p.ledger)
		tile.Clock.Forward(start)
		tile.active.Store(true)
		if p.ledger != nil {
			p.ledger.ThreadStarted(tile.ID)
		}
		th := &Thread{tile: tile, proc: p, co: co, tickFn: p.syncTick(tile)}
		// A thread the simulation is dismantled under unwinds out of fn
		// through tornDown, past everything below: the control plane is
		// gone, so there is no one to notify.
		fn(th, st.Arg)
		tile.active.Store(false)
		tile.sys.release()
		if p.ledger != nil {
			// Before the MCP hears of the exit: the departure may complete
			// the local round, and the flushed waits must not trail the
			// exit's recheck at the MCP longer than necessary.
			p.ledger.ThreadExited(tile.ID)
		}
		instr, br, miss, comp, mem := tile.Core.Stats()
		tile.Mem.SetFinal(tile.Clock.Now(), instr, br, miss, comp, mem)
		tile.sys.notify(mcp.MsgThreadExit, mcpTile, nil, tile.Clock.Now())
	}, func() {
		tile.active.Store(false)
		tile.setParker(nil, p.ledger)
		p.threads.Done()
	})
}

// syncTick returns what a freshly started thread on tile calls after
// every event under the configured synchronization model. Plain Lax
// returns nil: the thread runtime then skips model ticks entirely.
// Threads parked in any of these closures leave their memory node's
// ownership word free, so its server answers coherence interventions
// while they wait.
func (p *Proc) syncTick(tile *Tile) func(arch.Cycles) {
	switch p.cfg.Sync.Model {
	case config.LaxBarrier:
		return synchro.NewBarrier(p.cfg.Sync.BarrierQuantum, func(epoch int64) {
			// Park at the process ledger; the wait reaches the MCP in the
			// round's batch and the ledger wakes us on the epoch release.
			p.ledger.Wait(tile.ID, epoch)
		}).Tick
	case config.LaxP2P:
		var partner arch.TileID // the last probe's target
		probe := func(target arch.TileID) (arch.Cycles, bool) {
			partner = target
			if local := p.tiles[target]; local != nil {
				// Same-process partner: its clock is an atomic word — read
				// it directly instead of a system-network round trip. With
				// one host process a thousand tiles probe without a single
				// RPC. A partner with no running thread, or a blocked one,
				// is waiting, not behind: skip it.
				return local.Clock.Now(), local.Running()
			}
			// A failed call (teardown) leaves no payload to decode.
			pkt, _ := tile.sys.call(mcp.MsgClockProbe, target, nil, tile.Clock.Now())
			v, running, err := mcp.DecodeU64Pair(pkt.Payload)
			return arch.Cycles(v), err == nil && running != 0
		}
		// A held thread is blocked, not behind (DESIGN §6). Its holding
		// probe is answered once the partner's clock is within the slack
		// or the partner stops running.
		wait := func(time.Duration) {
			tile.setBlocked(waitHold)
			at := tile.Clock.Now() - p.cfg.Sync.P2PSlack
			tile.sys.call(mcp.MsgClockProbe, partner, mcp.EncodeU64(uint64(at)), tile.Clock.Now())
			tile.setBlocked(0)
		}
		m := synchro.NewP2P(p.cfg.Sync, tile.ID, p.cfg.Tiles, p.cfg.RandSeed, probe, wait)
		return func(now arch.Cycles) {
			if now >= tile.sys.holdAt {
				tile.sys.release()
			}
			m.Tick(now)
		}
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

// report writes what the process's threads wait for (park.Report).
func (p *Proc) report(w io.Writer) {
	fmt.Fprintf(w, " process %d:\n", p.id)
	if p.MCP != nil {
		p.MCP.Report(w)
	}
	if p.ledger != nil {
		p.ledger.Report(w)
	}
	for _, sh := range p.shards {
		sh.Report(w, func(tile arch.TileID) string { return p.tiles[tile].waitLabel() })
	}
}

// Wait blocks until all local application threads have returned.
func (p *Proc) Wait() { p.threads.Wait() }

// Close shuts down the process's network receive loops (every tile net,
// the LCP net, and the MCP net on process 0). The transport itself belongs
// to the caller and is closed separately. Each shard, once its tiles' nets
// have closed and drained, ends the threads still suspended on it.
func (p *Proc) Close() {
	for _, t := range p.tileList {
		t.Net.Close()
	}
	p.lcpNet.Close()
	if p.mcpNet != nil {
		p.mcpNet.Close()
	}
}
