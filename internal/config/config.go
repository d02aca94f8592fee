// Package config holds the runtime configuration of a Graphite simulation:
// the target architecture parameters (Table 1 of the paper), the host
// distribution parameters (number of simulated host processes), and the
// knobs of every swappable model (network, coherence, synchronization).
//
// A Config is plain data. Models receive the sub-struct they care about at
// construction time; nothing reads configuration from globals.
package config

import (
	"fmt"
	"strings"

	"repro/internal/arch"
)

// SyncModel selects the simulation synchronization scheme (paper §3.6).
type SyncModel int

const (
	// Lax lets tile clocks run freely; they synchronize only on true
	// application events (locks, barriers, messages, spawn/join).
	Lax SyncModel = iota
	// LaxBarrier adds a quanta-based global barrier every BarrierQuantum
	// simulated cycles. With a small quantum it closely approximates a
	// cycle-accurate simulation and serves as the accuracy baseline.
	LaxBarrier
	// LaxP2P adds random point-to-point clock synchronization: a tile that
	// is more than Slack cycles ahead of a randomly chosen partner sleeps
	// in real time until the partner catches up.
	LaxP2P
)

// String implements fmt.Stringer.
func (m SyncModel) String() string {
	switch m {
	case Lax:
		return "Lax"
	case LaxBarrier:
		return "LaxBarrier"
	case LaxP2P:
		return "LaxP2P"
	default:
		return fmt.Sprintf("SyncModel(%d)", int(m))
	}
}

// ParseSyncModel converts a scenario-file spelling ("lax", "lax_barrier",
// "lax_p2p", or the String() forms) into a SyncModel.
func ParseSyncModel(s string) (SyncModel, error) {
	switch normalize(s) {
	case "lax":
		return Lax, nil
	case "laxbarrier", "lax_barrier":
		return LaxBarrier, nil
	case "laxp2p", "lax_p2p":
		return LaxP2P, nil
	default:
		return Lax, fmt.Errorf("unknown sync model %q (lax|lax_barrier|lax_p2p)", s)
	}
}

// NetworkModelKind selects the latency model of an on-chip network
// (paper §3.3). Each traffic class can use a different model.
type NetworkModelKind int

const (
	// NetMagic forwards packets with zero modeled delay. It is used for
	// simulator-internal system traffic so that control messages never
	// perturb simulation results.
	NetMagic NetworkModelKind = iota
	// NetMeshHop models a 2-D mesh where latency is the number of
	// dimension-ordered hops times the per-hop latency plus serialization.
	NetMeshHop
	// NetMeshContention is NetMeshHop plus an analytical contention model:
	// every link on the route is a lax queue (see internal/queuemodel).
	NetMeshContention
	// NetRing models a unidirectional-link bidirectional ring: latency is
	// the shorter ring distance times the hop latency plus serialization.
	// It demonstrates the paper's claim that any topology with a per-tile
	// endpoint can be modeled.
	NetRing
)

// String implements fmt.Stringer.
func (k NetworkModelKind) String() string {
	switch k {
	case NetMagic:
		return "magic"
	case NetMeshHop:
		return "mesh_hop"
	case NetMeshContention:
		return "mesh_contention"
	case NetRing:
		return "ring"
	default:
		return fmt.Sprintf("NetworkModelKind(%d)", int(k))
	}
}

// ParseNetworkModelKind converts a scenario-file spelling (the String()
// forms) into a NetworkModelKind.
func ParseNetworkModelKind(s string) (NetworkModelKind, error) {
	switch normalize(s) {
	case "magic":
		return NetMagic, nil
	case "mesh_hop", "meshhop":
		return NetMeshHop, nil
	case "mesh_contention", "meshcontention":
		return NetMeshContention, nil
	case "ring":
		return NetRing, nil
	default:
		return NetMagic, fmt.Errorf("unknown network model %q (magic|mesh_hop|mesh_contention|ring)", s)
	}
}

// CoherenceKind selects the directory-based cache coherence protocol
// (paper §3.2 and §4.4).
type CoherenceKind int

const (
	// FullMap keeps a full sharer bit-vector per directory entry.
	FullMap CoherenceKind = iota
	// LimitedNB is the Dir_iNB limited-directory protocol: at most
	// DirPointers sharers are tracked; adding a sharer beyond that evicts
	// (invalidates) an existing one instead of broadcasting.
	LimitedNB
	// LimitLESS tracks the first DirPointers sharers in hardware; further
	// sharers are handled by a software trap that costs extra latency at
	// the home tile but preserves the full sharer set.
	LimitLESS
)

// String implements fmt.Stringer.
func (k CoherenceKind) String() string {
	switch k {
	case FullMap:
		return "full_map"
	case LimitedNB:
		return "dir_nb"
	case LimitLESS:
		return "limitless"
	default:
		return fmt.Sprintf("CoherenceKind(%d)", int(k))
	}
}

// ParseCoherenceKind converts a scenario-file spelling (the String()
// forms) into a CoherenceKind.
func ParseCoherenceKind(s string) (CoherenceKind, error) {
	switch normalize(s) {
	case "full_map", "fullmap":
		return FullMap, nil
	case "dir_nb", "dirnb", "limited_nb", "limitednb":
		return LimitedNB, nil
	case "limitless":
		return LimitLESS, nil
	default:
		return FullMap, fmt.Errorf("unknown coherence kind %q (full_map|dir_nb|limitless)", s)
	}
}

// CacheConfig configures one level of the cache hierarchy.
type CacheConfig struct {
	// Enabled turns the cache on. A disabled cache forwards every access
	// to the next level (used by the Figure 8 study, which models only a
	// single 1 MB L2).
	Enabled bool
	// Size is the total capacity in bytes.
	Size int
	// Assoc is the set associativity.
	Assoc int
	// LineSize is the cache line size in bytes; it must be a power of two
	// and identical across levels.
	LineSize int
	// HitLatency is the access latency in cycles on a hit.
	HitLatency arch.Cycles
}

// Sets returns the number of sets implied by the geometry.
func (c CacheConfig) Sets() int {
	if !c.Enabled || c.Assoc == 0 || c.LineSize == 0 {
		return 0
	}
	return c.Size / (c.Assoc * c.LineSize)
}

// Validate reports whether the geometry is self-consistent.
func (c CacheConfig) Validate(name string) error {
	if !c.Enabled {
		return nil
	}
	if c.LineSize <= 0 || c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("%s: line size %d is not a positive power of two", name, c.LineSize)
	}
	if c.Assoc <= 0 {
		return fmt.Errorf("%s: associativity %d must be positive", name, c.Assoc)
	}
	if c.Size <= 0 || c.Size%(c.Assoc*c.LineSize) != 0 {
		return fmt.Errorf("%s: size %d is not a multiple of assoc*line (%d)", name, c.Size, c.Assoc*c.LineSize)
	}
	sets := c.Sets()
	if sets&(sets-1) != 0 {
		return fmt.Errorf("%s: set count %d is not a power of two", name, sets)
	}
	return nil
}

// CoherenceConfig configures the directory protocol.
type CoherenceConfig struct {
	// Kind selects the protocol.
	Kind CoherenceKind
	// DirPointers is i in Dir_iNB and LimitLESS(i). Ignored by FullMap.
	DirPointers int
	// TrapLatency is the software-trap cost, in cycles, charged by
	// LimitLESS when the sharer count exceeds DirPointers.
	TrapLatency arch.Cycles
	// DirLatency is the directory lookup cost at the home tile.
	DirLatency arch.Cycles
}

// DRAMConfig configures the memory controllers.
type DRAMConfig struct {
	// TotalBandwidth is the aggregate off-chip bandwidth in GB/s. It is
	// split evenly across all controllers (one per tile by default), so
	// per-controller service time grows with the tile count — the effect
	// behind the Figure 9 saturation discussion.
	TotalBandwidth float64
	// AccessLatency is the fixed DRAM access latency in cycles.
	AccessLatency arch.Cycles
	// QueueModel enables the lax queueing-delay model at each controller.
	QueueModel bool
}

// NetworkConfig configures one network traffic class.
type NetworkConfig struct {
	// Kind selects the latency model.
	Kind NetworkModelKind
	// HopLatency is the per-hop router latency in cycles.
	HopLatency arch.Cycles
	// LinkBandwidth is the link width in bytes per cycle, used for
	// serialization delay and the contention model.
	LinkBandwidth int
}

// CostConfig holds the modeled latencies of the MCP's intercepted
// services (paper §3.4-§3.5: futexes, thread creation and memory
// management execute at the MCP).
type CostConfig struct {
	// Mutex is charged per lock grant.
	Mutex arch.Cycles
	// Barrier is charged at barrier release.
	Barrier arch.Cycles
	// Cond is charged at condition-variable wake.
	Cond arch.Cycles
	// Spawn separates a spawn request from the child's first cycle.
	Spawn arch.Cycles
	// Malloc is charged per dynamic memory request.
	Malloc arch.Cycles
}

// SyncConfig configures the synchronization model.
type SyncConfig struct {
	// Model selects Lax, LaxBarrier or LaxP2P.
	Model SyncModel
	// BarrierQuantum is the LaxBarrier quantum in cycles.
	BarrierQuantum arch.Cycles
	// P2PSlack is the maximum tolerated clock difference for LaxP2P.
	P2PSlack arch.Cycles
	// P2PInterval is how often (in cycles) a tile initiates a LaxP2P probe.
	P2PInterval arch.Cycles
}

// CoreModelKind selects the core performance model (paper §3.1: the core
// model is swappable and may differ drastically from the functional
// execution; the functional simulator stays in-order and sequentially
// consistent either way).
type CoreModelKind int

const (
	// CoreInOrder blocks on every load (the paper's released model).
	CoreInOrder CoreModelKind = iota
	// CoreOutOfOrder hides load latency up to the reorder window,
	// modeling an out-of-order core with a relaxed memory model.
	CoreOutOfOrder
)

// String implements fmt.Stringer.
func (k CoreModelKind) String() string {
	switch k {
	case CoreInOrder:
		return "in-order"
	case CoreOutOfOrder:
		return "out-of-order"
	default:
		return fmt.Sprintf("CoreModelKind(%d)", int(k))
	}
}

// ParseCoreModelKind converts a scenario-file spelling (the String()
// forms) into a CoreModelKind.
func ParseCoreModelKind(s string) (CoreModelKind, error) {
	switch normalize(s) {
	case "in-order", "in_order", "inorder":
		return CoreInOrder, nil
	case "out-of-order", "out_of_order", "outoforder", "ooo":
		return CoreOutOfOrder, nil
	default:
		return CoreInOrder, fmt.Errorf("unknown core model %q (in-order|out-of-order)", s)
	}
}

// normalize lower-cases a kind spelling so parsers accept both the
// scenario-file convention (snake_case) and the String() forms.
func normalize(s string) string {
	return strings.ToLower(strings.TrimSpace(s))
}

// CoreConfig configures the core performance model.
type CoreConfig struct {
	// Kind selects in-order or out-of-order timing.
	Kind CoreModelKind
	// ROBWindow is the out-of-order reorder window in cycles: the load
	// latency a CoreOutOfOrder core can overlap with execution.
	ROBWindow arch.Cycles
	// ArithCost, MulCost, DivCost, FPCost are instruction costs in cycles.
	ArithCost, MulCost, DivCost, FPCost arch.Cycles
	// BranchCost is the cost of a correctly predicted branch.
	BranchCost arch.Cycles
	// MispredictPenalty is added on a branch misprediction.
	MispredictPenalty arch.Cycles
	// BranchPredictorSize is the number of 2-bit counters (power of two).
	BranchPredictorSize int
	// StoreBufferSize is the number of outstanding stores that retire
	// without stalling the core; 0 disables the store buffer.
	StoreBufferSize int
	// CodeFootprint is the per-tile synthetic code working set in bytes,
	// driving instruction-fetch modeling (the loop kernel size); 0
	// disables fetch modeling.
	CodeFootprint int
}

// AddressSpaceConfig describes the simulated application address space
// layout (paper Figure 3).
type AddressSpaceConfig struct {
	// StaticBase/StaticSize bound the static data segment.
	StaticBase, StaticSize arch.Addr
	// HeapBase/HeapSize bound the dynamically allocated segment.
	HeapBase, HeapSize arch.Addr
	// StackBase/StackSize bound the per-thread stack region; each thread
	// receives StackPerThread bytes within it.
	StackBase, StackSize arch.Addr
	// StackPerThread is the stack reservation per spawned thread.
	StackPerThread arch.Addr
}

// Config is the complete configuration of one simulation.
type Config struct {
	// Tiles is the number of target tiles. Application threads map 1:1
	// onto tiles; at most Tiles threads may be live at once.
	Tiles int
	// Processes is the number of simulated host processes the tiles are
	// striped across (tile t lives in process t % Processes). Where they
	// run decides the transport: processes sharing an OS process talk over
	// the channel fabric, processes in separate OS processes over TCP.
	Processes int
	// Workers is the host cores the simulation may use on each host
	// machine: the simulated processes on one host share them (of W
	// cores, k processes get W/k each, the first W%k one more, at least
	// one and at most one per tile; core.HostShare), and each runs one
	// memory-server shard per core it gets. A forked worker process pins
	// GOMAXPROCS to its share, and a process hosting the whole simulation
	// to Workers. 0 means GOMAXPROCS: it is then left as it is by the
	// process that runs the application, and split as above. Used by the
	// host-scaling experiments.
	Workers int
	// ClockHz is the target clock frequency (Table 1: 1 GHz).
	ClockHz uint64

	L1I, L1D, L2 CacheConfig
	Coherence    CoherenceConfig
	DRAM         DRAMConfig

	// AppNet carries application message traffic, MemNet carries memory
	// subsystem traffic, SysNet carries simulator control traffic.
	AppNet, MemNet, SysNet NetworkConfig

	Sync  SyncConfig
	Core  CoreConfig
	AS    AddressSpaceConfig
	Costs CostConfig

	// TileCores overrides the core model of individual tiles, enabling
	// heterogeneous targets (paper §2: tiles may be heterogeneous; the
	// paper evaluates homogeneous ones). Tiles absent from the map use
	// Core.
	TileCores map[arch.TileID]CoreConfig

	// ProgressWindow is the size of the global-progress timestamp window
	// (paper §3.6.1: "on the order of the number of tiles"); 0 means one
	// entry per tile.
	ProgressWindow int
	// RandSeed seeds model-internal randomness (LaxP2P partner choice).
	RandSeed int64
	// CollectSkew enables periodic clock-skew sampling (Figure 7).
	CollectSkew bool
}

// Default returns the target architecture of Table 1: 1 GHz tiles, private
// 32 KB L1s and a private 3 MB L2 per tile with 64-byte lines, a full-map
// directory MSI protocol, 5.13 GB/s of DRAM bandwidth split across one
// controller per tile, and a mesh interconnect with an analytical
// contention model. Lax synchronization is the baseline model.
func Default() Config {
	return Config{
		Tiles:     32,
		Processes: 1,
		ClockHz:   1_000_000_000,
		L1I: CacheConfig{
			Enabled: true, Size: 32 << 10, Assoc: 8, LineSize: 64, HitLatency: 1,
		},
		L1D: CacheConfig{
			Enabled: true, Size: 32 << 10, Assoc: 8, LineSize: 64, HitLatency: 1,
		},
		L2: CacheConfig{
			Enabled: true, Size: 3 << 20, Assoc: 24, LineSize: 64, HitLatency: 8,
		},
		Coherence: CoherenceConfig{Kind: FullMap, DirPointers: 64, TrapLatency: 100, DirLatency: 10},
		DRAM: DRAMConfig{
			TotalBandwidth: 5.13,
			AccessLatency:  100,
			QueueModel:     true,
		},
		AppNet: NetworkConfig{Kind: NetMeshHop, HopLatency: 2, LinkBandwidth: 32},
		MemNet: NetworkConfig{Kind: NetMeshContention, HopLatency: 2, LinkBandwidth: 32},
		SysNet: NetworkConfig{Kind: NetMagic},
		Sync: SyncConfig{
			Model:          Lax,
			BarrierQuantum: 1_000,
			P2PSlack:       100_000,
			P2PInterval:    10_000,
		},
		Core: CoreConfig{
			Kind:                CoreInOrder,
			ROBWindow:           64,
			ArithCost:           1,
			MulCost:             3,
			DivCost:             18,
			FPCost:              2,
			BranchCost:          1,
			MispredictPenalty:   14,
			BranchPredictorSize: 1024,
			StoreBufferSize:     8,
			CodeFootprint:       8 << 10,
		},
		Costs: CostConfig{
			Mutex:   100,
			Barrier: 100,
			Cond:    100,
			Spawn:   300,
			Malloc:  200,
		},
		AS: AddressSpaceConfig{
			StaticBase:     0x0001_0000,
			StaticSize:     64 << 20,
			HeapBase:       0x1000_0000,
			HeapSize:       1 << 30,
			StackBase:      0x5000_0000,
			StackSize:      1 << 30,
			StackPerThread: 1 << 20,
		},
		ProgressWindow: 0,
		RandSeed:       1,
	}
}

// Canonical returns a copy with the host-execution fields — how the
// simulation is executed, not what it simulates — reset to canonical
// values. Two configurations with equal canonical forms describe the
// identical target architecture: the same run striped across a different
// number of processes, wherever those processes live, or with a different
// GOMAXPROCS bound must produce identical results (paper §3.1: process
// count is a performance knob, not a correctness one), so those fields
// are excluded from the configuration digest recorded with every run.
func (c Config) Canonical() Config {
	c.Processes = 1
	c.Workers = 0
	c.CollectSkew = false
	return c
}

// Validate checks the configuration for internal consistency.
func (c *Config) Validate() error {
	if c.Tiles <= 0 {
		return fmt.Errorf("config: tiles must be positive, got %d", c.Tiles)
	}
	if c.Processes <= 0 {
		return fmt.Errorf("config: processes must be positive, got %d", c.Processes)
	}
	if c.Processes > c.Tiles {
		return fmt.Errorf("config: processes (%d) may not exceed tiles (%d)", c.Processes, c.Tiles)
	}
	if err := c.L1I.Validate("L1I"); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := c.L1D.Validate("L1D"); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if err := c.L2.Validate("L2"); err != nil {
		return fmt.Errorf("config: %w", err)
	}
	if !c.L2.Enabled {
		return fmt.Errorf("config: the L2 cache (the coherence point) must be enabled")
	}
	line := c.L2.LineSize
	if c.L1D.Enabled && c.L1D.LineSize != line {
		return fmt.Errorf("config: L1D line size %d != L2 line size %d", c.L1D.LineSize, line)
	}
	if c.L1I.Enabled && c.L1I.LineSize != line {
		return fmt.Errorf("config: L1I line size %d != L2 line size %d", c.L1I.LineSize, line)
	}
	switch c.Coherence.Kind {
	case FullMap:
	case LimitedNB, LimitLESS:
		if c.Coherence.DirPointers <= 0 {
			return fmt.Errorf("config: %v requires DirPointers > 0", c.Coherence.Kind)
		}
	default:
		return fmt.Errorf("config: unknown coherence kind %d", int(c.Coherence.Kind))
	}
	if c.DRAM.TotalBandwidth <= 0 {
		return fmt.Errorf("config: DRAM bandwidth must be positive")
	}
	if c.ClockHz == 0 {
		return fmt.Errorf("config: clock frequency must be positive")
	}
	if c.Sync.Model == LaxBarrier && c.Sync.BarrierQuantum <= 0 {
		return fmt.Errorf("config: LaxBarrier requires a positive quantum")
	}
	if c.Sync.Model == LaxP2P {
		if c.Sync.P2PSlack <= 0 || c.Sync.P2PInterval <= 0 {
			return fmt.Errorf("config: LaxP2P requires positive slack and interval")
		}
	}
	if c.AS.StackPerThread == 0 || c.AS.StackSize/c.AS.StackPerThread < arch.Addr(c.Tiles) {
		return fmt.Errorf("config: stack segment too small for %d threads", c.Tiles)
	}
	if overlap(c.AS.StaticBase, c.AS.StaticSize, c.AS.HeapBase, c.AS.HeapSize) ||
		overlap(c.AS.HeapBase, c.AS.HeapSize, c.AS.StackBase, c.AS.StackSize) ||
		overlap(c.AS.StaticBase, c.AS.StaticSize, c.AS.StackBase, c.AS.StackSize) {
		return fmt.Errorf("config: address space segments overlap")
	}
	for t := range c.TileCores {
		if int(t) < 0 || int(t) >= c.Tiles {
			return fmt.Errorf("config: core override for nonexistent tile %v", t)
		}
	}
	return nil
}

// CoreFor returns the core configuration of one tile, honoring overrides.
func (c *Config) CoreFor(t arch.TileID) CoreConfig {
	if o, ok := c.TileCores[t]; ok {
		return o
	}
	return c.Core
}

func overlap(aBase, aSize, bBase, bSize arch.Addr) bool {
	return aBase < bBase+bSize && bBase < aBase+aSize
}

// LineSize returns the coherence-point line size in bytes.
func (c *Config) LineSize() int { return c.L2.LineSize }

// ProgressWindowSize resolves the configured window size (default: Tiles).
func (c *Config) ProgressWindowSize() int {
	if c.ProgressWindow > 0 {
		return c.ProgressWindow
	}
	return c.Tiles
}

// HomeTile returns the tile on whose memory controller/directory the cache
// line containing addr is homed. Lines are striped across tiles, which
// distributes the directory uniformly (paper §3.2).
func (c *Config) HomeTile(addr arch.Addr) arch.TileID {
	line := uint64(addr) / uint64(c.LineSize())
	return arch.TileID(line % uint64(c.Tiles))
}

// ProcOf returns the host process that simulates tile t. Tiles are striped
// across processes (paper §3.5).
func (c *Config) ProcOf(t arch.TileID) arch.ProcID {
	return arch.ProcID(int(t) % c.Processes)
}

// TilesOf returns the tiles simulated by process p, in ascending order.
func (c *Config) TilesOf(p arch.ProcID) []arch.TileID {
	var out []arch.TileID
	for t := int(p); t < c.Tiles; t += c.Processes {
		out = append(out, arch.TileID(t))
	}
	return out
}

// BytesPerCyclePerController returns the DRAM service bandwidth of one
// controller in bytes/cycle, after splitting total bandwidth evenly across
// one controller per tile.
func (c *Config) BytesPerCyclePerController() float64 {
	totalBytesPerSec := c.DRAM.TotalBandwidth * 1e9
	perController := totalBytesPerSec / float64(c.Tiles)
	return perController / float64(c.ClockHz)
}
