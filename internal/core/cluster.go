package core

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/mcp"
	"repro/internal/park"
	"repro/internal/stats"
	"repro/internal/transport"
)

// SkewSample is one observation of clock skew across tiles (Figure 7).
type SkewSample struct {
	// Wall is the wall-clock offset from simulation start.
	Wall time.Duration
	// Min, Max, Mean summarize the clocks of tiles with running threads.
	Min, Max, Mean arch.Cycles
}

// RunStats is the outcome of one simulation run.
type RunStats struct {
	// SimulatedCycles is the application's simulated run-time: the
	// largest final tile clock.
	SimulatedCycles arch.Cycles
	// Wall is the wall-clock duration of the run.
	Wall time.Duration
	// Tiles are the per-tile statistics records, indexed by tile ID.
	Tiles []stats.Tile
	// Totals aggregates Tiles.
	Totals stats.Totals
	// Skew holds clock-skew samples when Config.CollectSkew is set.
	Skew []SkewSample
}

// ErrWorkerDied reports that a process of the simulation was lost while
// the run was in flight: the caller's WorkerDied signal fired, or the MCP's
// receive loop ended because the fabric failed underneath it. No result
// can be trusted past it; launch.Run re-forks and replays on it.
var ErrWorkerDied = errors.New("core: worker process died mid-run")

// Cluster is the processes of one simulation that this OS process hosts:
// all of them (NewCluster), or exactly one attached to a fabric the other
// processes dial from elsewhere (JoinCluster). Either way the cluster that
// hosts process 0 — and with it the MCP — is Run; one that hosts a worker
// process is Served.
type Cluster struct {
	cfg   config.Config
	prog  Program
	procs []*Proc

	transports []transport.Transport
	fabric     *transport.ChannelFabric

	// sharers is how many of the simulation's processes share this host,
	// and rank the place among them of the first hosted process: the k
	// and r of HostShare.
	sharers, rank int

	// WorkerDied, if set before Run, aborts the run with ErrWorkerDied
	// when it is closed: whoever supervises the remote processes knows
	// of a death before the fabric does.
	WorkerDied <-chan struct{}

	// started and ran record that the processes' servers are running and
	// that Run completed; acks is what the processes answered to Close's
	// teardown announcement; tornDown (clusters hosting a worker process
	// only) is closed when that announcement arrives.
	started  bool
	ran      bool
	acks     []mcp.ProcShutdown
	tornDown chan struct{}

	// gathered, once Run has seen the application finish, is closed when
	// its flush and stats gather are over; Close waits for it.
	gathered chan struct{}

	// ckpt, if set via SetCheckpoint before Run, enables MCP-initiated
	// checkpoints and direct idle-cluster capture.
	ckpt *mcp.CheckpointPolicy

	skewMu sync.Mutex
	skew   []SkewSample

	// unwatch unregisters the cluster's wedged-run report (park.Watch).
	unwatch func()
	closed  bool
}

// NewCluster builds and starts a simulation of prog under cfg with every
// simulated process inside this OS process, so they share the channel
// fabric: sockets are for processes that live apart (JoinCluster). The
// caller must Close it.
func NewCluster(cfg config.Config, prog Program) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg, prog: prog, sharers: cfg.Processes}

	c.fabric = transport.NewChannelFabricSized(transport.StripedRoute(cfg.Processes), cfg.Tiles)
	for p := 0; p < cfg.Processes; p++ {
		c.transports = append(c.transports, c.fabric.Process(arch.ProcID(p)))
	}
	if err := c.build(0); err != nil {
		return nil, err
	}
	c.start(c.hostCores())
	return c, nil
}

// JoinCluster builds the one process id of a simulation whose other
// cfg.Processes-1 processes run elsewhere, on tr, this process's
// already-dialed attachment to their common fabric. sharers of the
// simulation's processes run on this host, and this one is the rank-th
// of them: the process runs its HostShare of the host's cores. The
// cluster owns tr from here on, error return included. Its servers start
// with Run or Serve, not before: what SetCheckpoint attaches in between
// must be in place when the first message from another process arrives.
// The caller must Close it.
func JoinCluster(cfg config.Config, prog Program, id arch.ProcID, tr transport.Transport, sharers, rank int) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		tr.Close()
		return nil, err
	}
	if rank < 0 || rank >= sharers {
		tr.Close()
		return nil, fmt.Errorf("core: rank %d among %d processes on the host", rank, sharers)
	}
	c := &Cluster{cfg: cfg, prog: prog, transports: []transport.Transport{tr}, sharers: sharers, rank: rank}
	if err := c.build(id); err != nil {
		return nil, err
	}
	if id != 0 {
		// Installed before Start — the Proc contract — so that a
		// coordinator tearing down the instant startup completes cannot
		// strand the worker.
		c.tornDown = make(chan struct{})
		c.procs[0].OnShutdown = func() { close(c.tornDown) }
	}
	return c, nil
}

// build constructs process first+i on transports[i]; on error the cluster
// is closed.
func (c *Cluster) build(first arch.ProcID) error {
	for i, tr := range c.transports {
		proc, err := NewProc(first+arch.ProcID(i), &c.cfg, c.prog, tr)
		if err != nil {
			c.Close()
			return err
		}
		c.procs = append(c.procs, proc)
	}
	return nil
}

// hostCores is the cores one simulation may use on this host:
// Config.Workers, else GOMAXPROCS.
func (c *Cluster) hostCores() int {
	if c.cfg.Workers > 0 {
		return c.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// share is hosted process i's share of w host cores.
func (c *Cluster) share(w, i int) int {
	return HostShare(w, c.sharers, c.rank+i, len(c.procs[i].tileList))
}

// start launches every hosted process's servers, once, each on its share
// of w host cores.
func (c *Cluster) start(w int) {
	if c.started {
		return
	}
	c.started = true
	for i, p := range c.procs {
		p.Start(c.share(w, i))
	}
	c.unwatch = park.Watch(func(w io.Writer) {
		for _, p := range c.procs {
			p.report(w)
		}
	})
}

// Run executes the program's main thread with arg and blocks until every
// application thread has exited; it then flushes caches and gathers
// statistics. A run that cannot finish — a StrictVerify checkpoint digest
// mismatch, a lost worker, a fabric that failed under the MCP — returns
// the error instead of parking; Close then dismantles what is left. Run
// may be called once, on a cluster that hosts process 0.
func (c *Cluster) Run(arg uint64) (*RunStats, error) {
	m := c.procs[0].MCP
	if m == nil {
		return nil, errors.New("core: Run on a cluster that hosts a worker process; Serve it")
	}
	w := c.hostCores()
	if c.cfg.Workers > 0 {
		// With Workers 0 GOMAXPROCS stays as it is: this OS process may
		// be serving other work. A process that hosts the whole
		// simulation takes all of w, one that shares the host its share.
		pin := w
		if len(c.procs) < c.cfg.Processes {
			pin = c.share(w, 0)
		}
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(pin))
	}
	c.start(w)
	start := time.Now() //graphite:wallclock wall_sec slowdown reporting (Table 2); measures host time only, never feeds simulated state
	if c.cfg.CollectSkew {
		skewStop := make(chan struct{})
		defer close(skewStop)
		go c.sampleSkew(start, skewStop)
	}
	if err := m.StartMain(arg); err != nil {
		return nil, err
	}
	if err := c.watch(m.Done()); err != nil {
		return nil, err
	}
	wall := time.Since(start) //graphite:wallclock wall_sec slowdown reporting; excluded from reproducibility diffs
	// The flush and the gather wait for every process's reply, so they
	// run under the same watch: a process lost after the application
	// finished must not hang the run either.
	var tiles []stats.Tile
	var gatherErr error
	c.gathered = make(chan struct{})
	go func() {
		defer close(c.gathered)
		for _, p := range c.procs {
			p.Wait()
		}
		if gatherErr = m.FlushCaches(); gatherErr == nil {
			tiles, gatherErr = m.GatherStats()
		}
	}()
	if err := c.watch(c.gathered); err != nil {
		return nil, err
	}
	if gatherErr != nil {
		return nil, fmt.Errorf("%w (%v)", ErrWorkerDied, gatherErr)
	}
	totals := stats.Aggregate(tiles)
	c.ran = true
	c.skewMu.Lock()
	skew := c.skew
	c.skewMu.Unlock()
	return &RunStats{
		SimulatedCycles: totals.MaxCycles,
		Wall:            wall,
		Tiles:           tiles,
		Totals:          totals,
		Skew:            skew,
	}, nil
}

// watch waits for done, or for what ends a run before it: a failed
// checkpoint, a lost worker, a fabric that failed under the MCP.
func (c *Cluster) watch(done <-chan struct{}) error {
	m := c.procs[0].MCP
	select {
	case <-done:
		return nil
	case err := <-m.CkptFailed():
		// The epoch release was withheld: every thread is parked.
		return err
	case <-c.WorkerDied:
		// Every cross-process transaction the dead process owed an answer
		// to would hang forever.
		return ErrWorkerDied
	case <-m.Stopped():
		// The MCP's receive loop ended before the run did: the transport
		// failed the fabric underneath it (a peer write error closes it;
		// see the TCP transport's fail). This is how a lost peer is seen
		// when nobody supervises the remote processes.
		return fmt.Errorf("%w (fabric transport failed)", ErrWorkerDied)
	}
}

// Serve hosts a worker process's tiles until the coordinator announces
// teardown (its Close, after its Run), or until the fabric fails under
// it, with GOMAXPROCS pinned to the process's share of its host
// meanwhile. The acknowledgement is already
// on the wire when Serve returns; the caller Closes.
func (c *Cluster) Serve() error {
	if c.tornDown == nil {
		return errors.New("core: Serve on a cluster that hosts process 0; Run it")
	}
	w := c.hostCores()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(c.share(w, 0)))
	c.start(w)
	select {
	case <-c.tornDown:
		return nil
	case <-c.procs[0].lcp.Stopped():
		// The fabric failed under the process (see the TCP transport's
		// fail): the coordinator, or the connection to it, is gone.
		return fmt.Errorf("core: process %d: fabric transport failed before teardown", c.procs[0].id)
	}
}

// sampleSkew periodically snapshots all running tiles' clocks. It reads
// clocks directly (all simulated processes share this OS process), which
// corresponds to the approximate skew measurement of Figure 7.
func (c *Cluster) sampleSkew(start time.Time, stop <-chan struct{}) {
	//graphite:wallclock Figure 7 skew measurement is wall-clock-paced by design: samples observe simulated clocks, they never advance them
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		// Only running, unblocked threads participate: exited or
		// RPC-blocked threads have frozen clocks that would read as
		// ever-growing skew while they are merely waiting.
		var clocks []arch.Cycles
		for _, p := range c.procs {
			for _, t := range p.Tiles() {
				if t.Running() {
					clocks = append(clocks, t.Clock.Now())
				}
			}
		}
		if len(clocks) < 2 {
			continue
		}
		sort.Slice(clocks, func(i, j int) bool { return clocks[i] < clocks[j] })
		var sum arch.Cycles
		for _, v := range clocks {
			sum += v
		}
		s := SkewSample{
			Wall: time.Since(start), //graphite:wallclock sample timestamp in the skew report; observation only
			Min:  clocks[0],
			Max:  clocks[len(clocks)-1],
			Mean: sum / arch.Cycles(len(clocks)),
		}
		c.skewMu.Lock()
		c.skew = append(c.skew, s)
		c.skewMu.Unlock()
	}
}

// Peek reads simulated memory functionally. Valid before Run or after Run
// returns (caches are flushed at completion).
func (c *Cluster) Peek(addr arch.Addr, buf []byte) {
	c.procs[0].tileList[0].Mem.Peek(addr, buf)
}

// Poke writes simulated memory functionally (same validity as Peek).
func (c *Cluster) Poke(addr arch.Addr, buf []byte) {
	c.procs[0].tileList[0].Mem.Poke(addr, buf)
}

// Tiles returns every tile across processes, ordered by ID.
func (c *Cluster) Tiles() []*Tile {
	var out []*Tile
	for _, p := range c.procs {
		out = append(out, p.Tiles()...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Config returns the cluster's configuration.
func (c *Cluster) Config() *config.Config { return &c.cfg }

// Close tears the simulation down. When other processes of the simulation
// run elsewhere and Run completed, it first announces teardown to every
// process and waits for each to acknowledge (mcp.Server.ShutdownWorkers),
// so the remote ones exit on their own; a failed run's are left to whoever
// supervises them. Safe to call more than once. Cluster state (tiles,
// stats) must not be touched after Close: cache storage is recycled into
// pools for future simulator instances.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if c.ran && len(c.procs) < c.cfg.Processes {
		c.acks = c.procs[0].MCP.ShutdownWorkers()
	}
	for _, p := range c.procs {
		p.Close()
	}
	for _, tr := range c.transports {
		if tr != nil {
			tr.Close()
		}
	}
	if c.fabric != nil {
		c.fabric.Close()
	}
	if !c.started {
		return // no server ever ran: nothing to wait for
	}
	c.unwatch()
	// With every transport closed the memory servers exit. Threads parked
	// at the barrier are woken only after their process's servers have
	// stopped — a server may have been capturing its tile for a checkpoint,
	// and that capture must be ordered before the woken thread's next step
	// — and caches return to the pools only after the threads. The LCP and
	// MCP loops are waited for too: one may still be writing a checkpoint
	// state file or manifest, which must not land after Close returns.
	for _, p := range c.procs {
		for _, t := range p.Tiles() {
			<-t.Mem.Stopped()
		}
		<-p.lcp.Stopped()
		if p.MCP != nil {
			<-p.MCP.Stopped()
		}
		if p.ledger != nil {
			p.ledger.Close()
		}
		p.Wait()
		for _, t := range p.Tiles() {
			t.Mem.ReleaseCaches()
		}
	}
	if c.gathered != nil {
		// The MCP has stopped, so a flush or gather still waiting for a
		// lost process's reply has returned.
		<-c.gathered
	}
}

// Teardown returns what each process of the simulation answered to
// Close's teardown announcement, indexed by process ID: whether it
// acknowledged, and its wall-clock serving time. Nil unless Close
// announced one.
func (c *Cluster) Teardown() []mcp.ProcShutdown { return c.acks }
