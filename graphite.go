// Package graphite is a from-scratch Go reproduction of Graphite, the
// distributed parallel simulator for multicores of Miller et al. (HPCA
// 2010). It provides application-level functional and performance modeling
// of tiled multicore architectures: in-order cores, private L1/L2 caches
// kept coherent by a distributed directory MSI protocol (full-map,
// Dir_iNB, or LimitLESS), per-tile DRAM controllers, configurable on-chip
// network models, and the lax synchronization family (Lax, LaxBarrier,
// LaxP2P) that lets tile clocks run loosely coupled for speed.
//
// A simulation executes a Program — a set of thread functions written
// against the Thread API — on a target architecture described by a Config.
// Threads map one-to-one onto target tiles and are striped across one or
// more simulated host processes that communicate only through the
// transport layer (in-memory channels between processes that share an OS
// process, TCP sockets between ones that do not), preserving
// Graphite's single-process illusion: one shared simulated address space,
// pthread-like spawn/join and synchronization.
//
// Quickstart:
//
//	cfg := graphite.DefaultConfig()
//	cfg.Tiles = 16
//	prog := graphite.Program{
//		Name: "hello",
//		Funcs: []graphite.ThreadFunc{
//			func(t *graphite.Thread, arg uint64) {
//				a := t.Malloc(8)
//				t.Store64(a, 42)
//			},
//		},
//	}
//	rs, err := graphite.Run(cfg, prog, 0)
//	fmt.Println(rs.SimulatedCycles, rs.Wall)
package graphite

import (
	"repro/internal/arch"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/coremodel"
	"repro/internal/stats"
)

// Core vocabulary types, re-exported from the internal packages so that
// applications only import this package.
type (
	// Config is the complete simulation configuration (see DefaultConfig).
	Config = config.Config
	// CacheConfig configures one cache level.
	CacheConfig = config.CacheConfig
	// Program is a target application: Funcs[0] is main.
	Program = core.Program
	// Thread is the per-thread execution context (the Graphite API).
	Thread = core.Thread
	// ThreadFunc is an application thread entry point.
	ThreadFunc = core.ThreadFunc
	// RunStats is the outcome of one run.
	RunStats = core.RunStats
	// SkewSample is one clock-skew observation (Figure 7) at a cycle.
	SkewSample = core.SkewSample
	// Addr is a simulated memory address.
	Addr = arch.Addr
	// Cycles counts simulated cycles.
	Cycles = arch.Cycles
	// ThreadID identifies an application thread (equal to its tile ID).
	ThreadID = arch.ThreadID
	// TileID identifies a target tile.
	TileID = arch.TileID
	// TileStats is one tile's statistics record.
	TileStats = stats.Tile
	// Totals aggregates tile statistics.
	Totals = stats.Totals
	// InstrKind labels compute-instruction cost classes.
	InstrKind = coremodel.InstrKind
	// MissKind classifies cache misses (Figure 8).
	MissKind = stats.MissKind
)

// Instruction kinds for Thread.Compute.
const (
	// Arith is a simple ALU instruction.
	Arith = coremodel.Arith
	// Mul is an integer multiply.
	Mul = coremodel.Mul
	// Div is an integer divide.
	Div = coremodel.Div
	// FP is a floating-point instruction.
	FP = coremodel.FP
)

// Synchronization models (paper §3.6).
const (
	// Lax lets clocks run freely between application events.
	Lax = config.Lax
	// LaxBarrier adds a global barrier every Config.Sync.BarrierQuantum.
	LaxBarrier = config.LaxBarrier
	// LaxP2P adds random pairwise clock synchronization.
	LaxP2P = config.LaxP2P
)

// Cache coherence protocols (paper §4.4).
const (
	// FullMap tracks every sharer in a bit vector.
	FullMap = config.FullMap
	// LimitedNB is the Dir_iNB limited directory.
	LimitedNB = config.LimitedNB
	// LimitLESS traps to software beyond Config.Coherence.DirPointers.
	LimitLESS = config.LimitLESS
)

// Network models (paper §3.3).
const (
	// NetMagic forwards with zero delay.
	NetMagic = config.NetMagic
	// NetMeshHop is a mesh with hop latency only.
	NetMeshHop = config.NetMeshHop
	// NetMeshContention adds analytical link contention.
	NetMeshContention = config.NetMeshContention
)

// Miss kinds (Figure 8).
const (
	// MissCold is a compulsory miss.
	MissCold = stats.MissCold
	// MissCapacity is a capacity/conflict miss.
	MissCapacity = stats.MissCapacity
	// MissTrueSharing is a coherence miss on truly shared words.
	MissTrueSharing = stats.MissTrueSharing
	// MissFalseSharing is a line-granularity coherence miss.
	MissFalseSharing = stats.MissFalseSharing
)

// DefaultConfig returns the target architecture of the paper's Table 1.
func DefaultConfig() Config { return config.Default() }

// Simulator is one prepared simulation instance.
type Simulator struct {
	cluster *core.Cluster
}

// New builds and starts the simulation infrastructure for prog under cfg.
// Callers must Close the simulator.
func New(cfg Config, prog Program) (*Simulator, error) {
	cl, err := core.NewCluster(cfg, prog)
	if err != nil {
		return nil, err
	}
	return &Simulator{cluster: cl}, nil
}

// Run executes the program's main thread with arg and blocks until every
// application thread exits. It may be called once per Simulator.
func (s *Simulator) Run(arg uint64) (*RunStats, error) {
	return s.cluster.Run(arg)
}

// Peek reads simulated memory functionally; valid before Run and after it
// returns (caches are flushed at completion).
func (s *Simulator) Peek(addr Addr, buf []byte) { s.cluster.Peek(addr, buf) }

// Poke writes simulated memory functionally (same validity as Peek).
func (s *Simulator) Poke(addr Addr, buf []byte) { s.cluster.Poke(addr, buf) }

// Close tears down the simulation.
func (s *Simulator) Close() { s.cluster.Close() }

// Run is the one-shot convenience wrapper: build, run, close.
func Run(cfg Config, prog Program, arg uint64) (*RunStats, error) {
	sim, err := New(cfg, prog)
	if err != nil {
		return nil, err
	}
	defer sim.Close()
	return sim.Run(arg)
}
