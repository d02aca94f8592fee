// Package stats defines the per-tile statistics records collected during a
// simulation and their aggregation. Records are plain data with a wire walk
// (Tile.Walk), so the MCP can gather them from every host process at
// simulation end and checkpoints can store them.
package stats

import (
	"repro/internal/arch"
	"repro/internal/wire"
)

// MissKind classifies misses at the coherence point (L2), following the
// classification used by the SPLASH-2 characterization the paper validates
// against (Figure 8): cold (first access by this tile), capacity/conflict
// (line was evicted for space), and coherence misses split into true
// sharing (a word this tile accesses was written by the invalidating tile)
// and false sharing (the invalidating writes touched only other words of
// the line).
type MissKind uint8

const (
	// MissCold is a compulsory miss.
	MissCold MissKind = iota
	// MissCapacity is a capacity or conflict miss.
	MissCapacity
	// MissTrueSharing is a coherence miss on truly shared words.
	MissTrueSharing
	// MissFalseSharing is a coherence miss caused only by line granularity.
	MissFalseSharing
	// NumMissKinds is the number of classified kinds.
	NumMissKinds
)

// String implements fmt.Stringer.
func (k MissKind) String() string {
	switch k {
	case MissCold:
		return "cold"
	case MissCapacity:
		return "capacity"
	case MissTrueSharing:
		return "true-sharing"
	case MissFalseSharing:
		return "false-sharing"
	default:
		return "unknown"
	}
}

// Tile is the statistics record of one target tile. The JSON field names
// are the stable export schema consumed by scenario JSONL records and any
// external analysis tooling; the binary encoding (Walk: the MCP gather
// path and checkpoint state files) ignores the tags.
//
//graphite:wire
type Tile struct {
	TileID arch.TileID `json:"tile"`

	// Core model.
	Instructions     uint64      `json:"instructions"`
	Cycles           arch.Cycles `json:"cycles"` // final local clock
	Branches         uint64      `json:"branches"`
	BranchMispredict uint64      `json:"branch_mispredict"`
	ComputeCycles    arch.Cycles `json:"compute_cycles"`
	MemStallCycles   arch.Cycles `json:"mem_stall_cycles"`
	SyncWaitCycles   arch.Cycles `json:"sync_wait_cycles"`

	// Memory references issued by the application.
	Loads  uint64 `json:"loads"`
	Stores uint64 `json:"stores"`

	// Cache hierarchy.
	L1IHits      uint64 `json:"l1i_hits"`
	L1IMisses    uint64 `json:"l1i_misses"`
	L1DHits      uint64 `json:"l1d_hits"`
	L1DMisses    uint64 `json:"l1d_misses"`
	L2Hits       uint64 `json:"l2_hits"`
	L2Misses     uint64 `json:"l2_misses"`
	L2Evictions  uint64 `json:"l2_evictions"`
	L2Writebacks uint64 `json:"l2_writebacks"`
	Upgrades     uint64 `json:"upgrades"`
	// MissBy classifies data misses only; instruction-fetch misses are
	// counted separately so they cannot distort Figure 8.
	MissBy       [NumMissKinds]uint64 `json:"miss_by"`
	IFetchMisses uint64               `json:"ifetch_misses"`

	// Memory timing.
	MemLatencyTotal arch.Cycles `json:"mem_latency_total"` // summed end-to-end latency of L2 misses
	MemAccesses     uint64      `json:"mem_accesses"`      // L2 misses measured by MemLatencyTotal

	// Home-tile roles.
	DirRequests   uint64      `json:"dir_requests"` // coherence requests served as home
	DirTraps      uint64      `json:"dir_traps"`    // LimitLESS software traps
	InvSent       uint64      `json:"inv_sent"`     // invalidations issued as home
	DRAMReads     uint64      `json:"dram_reads"`
	DRAMWrites    uint64      `json:"dram_writes"`
	DRAMQueueWait arch.Cycles `json:"dram_queue_wait"`

	// Network (filled from the tile's Net at collection time).
	NetPacketsSent uint64 `json:"net_packets_sent"`
	NetBytesSent   uint64 `json:"net_bytes_sent"`
	NetPacketsRecv uint64 `json:"net_packets_recv"`
}

// Walk codes every field of t, in declaration order (see internal/wire).
func (t *Tile) Walk(c *wire.Codec) {
	c.I32((*int32)(&t.TileID))
	c.Uvarint(&t.Instructions)
	c.Varint((*int64)(&t.Cycles))
	c.Uvarint(&t.Branches)
	c.Uvarint(&t.BranchMispredict)
	c.Varint((*int64)(&t.ComputeCycles))
	c.Varint((*int64)(&t.MemStallCycles))
	c.Varint((*int64)(&t.SyncWaitCycles))
	c.Uvarint(&t.Loads)
	c.Uvarint(&t.Stores)
	c.Uvarint(&t.L1IHits)
	c.Uvarint(&t.L1IMisses)
	c.Uvarint(&t.L1DHits)
	c.Uvarint(&t.L1DMisses)
	c.Uvarint(&t.L2Hits)
	c.Uvarint(&t.L2Misses)
	c.Uvarint(&t.L2Evictions)
	c.Uvarint(&t.L2Writebacks)
	c.Uvarint(&t.Upgrades)
	for i := range t.MissBy {
		c.Uvarint(&t.MissBy[i])
	}
	c.Uvarint(&t.IFetchMisses)
	c.Varint((*int64)(&t.MemLatencyTotal))
	c.Uvarint(&t.MemAccesses)
	c.Uvarint(&t.DirRequests)
	c.Uvarint(&t.DirTraps)
	c.Uvarint(&t.InvSent)
	c.Uvarint(&t.DRAMReads)
	c.Uvarint(&t.DRAMWrites)
	c.Varint((*int64)(&t.DRAMQueueWait))
	c.Uvarint(&t.NetPacketsSent)
	c.Uvarint(&t.NetBytesSent)
	c.Uvarint(&t.NetPacketsRecv)
}

// TotalL2Misses returns the sum of the classified miss counters.
func (t *Tile) TotalL2Misses() uint64 {
	var n uint64
	for _, v := range t.MissBy {
		n += v
	}
	return n
}

// Totals aggregates tile records for reporting. Like Tile, the JSON tags
// are the stable structured-export schema (scenario JSONL embeds Totals
// verbatim); field values are integers, so records round-trip exactly.
//
//graphite:wire
type Totals struct {
	Tiles            int                  `json:"tiles"`
	Instructions     uint64               `json:"instructions"`
	MaxCycles        arch.Cycles          `json:"max_cycles"` // simulated run-time: max over tile clocks
	SumCycles        arch.Cycles          `json:"sum_cycles"`
	Loads            uint64               `json:"loads"`
	Stores           uint64               `json:"stores"`
	L1DHits          uint64               `json:"l1d_hits"`
	L1DMisses        uint64               `json:"l1d_misses"`
	L2Hits           uint64               `json:"l2_hits"`
	L2Misses         uint64               `json:"l2_misses"`
	Upgrades         uint64               `json:"upgrades"`
	MissBy           [NumMissKinds]uint64 `json:"miss_by"`
	MemLatencyTotal  arch.Cycles          `json:"mem_latency_total"`
	MemAccesses      uint64               `json:"mem_accesses"`
	DirTraps         uint64               `json:"dir_traps"`
	InvSent          uint64               `json:"inv_sent"`
	DRAMReads        uint64               `json:"dram_reads"`
	DRAMWrites       uint64               `json:"dram_writes"`
	NetPacketsSent   uint64               `json:"net_packets_sent"`
	NetBytesSent     uint64               `json:"net_bytes_sent"`
	Branches         uint64               `json:"branches"`
	BranchMispredict uint64               `json:"branch_mispredict"`
}

// MissByName returns the classified miss counters keyed by kind name —
// the reader-friendly companion of the positional MissBy array in JSON
// exports.
func (t *Totals) MissByName() map[string]uint64 {
	out := make(map[string]uint64, NumMissKinds)
	for k := MissKind(0); k < NumMissKinds; k++ {
		out[k.String()] = t.MissBy[k]
	}
	return out
}

// Aggregate folds tile records into totals.
func Aggregate(tiles []Tile) Totals {
	var out Totals
	out.Tiles = len(tiles)
	for i := range tiles {
		t := &tiles[i]
		out.Instructions += t.Instructions
		if t.Cycles > out.MaxCycles {
			out.MaxCycles = t.Cycles
		}
		out.SumCycles += t.Cycles
		out.Loads += t.Loads
		out.Stores += t.Stores
		out.L1DHits += t.L1DHits
		out.L1DMisses += t.L1DMisses
		out.L2Hits += t.L2Hits
		out.L2Misses += t.L2Misses
		out.Upgrades += t.Upgrades
		for k := range t.MissBy {
			out.MissBy[k] += t.MissBy[k]
		}
		out.MemLatencyTotal += t.MemLatencyTotal
		out.MemAccesses += t.MemAccesses
		out.DirTraps += t.DirTraps
		out.InvSent += t.InvSent
		out.DRAMReads += t.DRAMReads
		out.DRAMWrites += t.DRAMWrites
		out.NetPacketsSent += t.NetPacketsSent
		out.NetBytesSent += t.NetBytesSent
		out.Branches += t.Branches
		out.BranchMispredict += t.BranchMispredict
	}
	return out
}

// MissRate returns classified L2 misses per memory reference, as a
// fraction (the Figure 8 y-axis).
func (t *Totals) MissRate() float64 {
	refs := t.Loads + t.Stores
	if refs == 0 {
		return 0
	}
	var misses uint64
	for _, v := range t.MissBy {
		misses += v
	}
	return float64(misses) / float64(refs)
}

// MissRateBy returns the per-kind miss rate.
func (t *Totals) MissRateBy(k MissKind) float64 {
	refs := t.Loads + t.Stores
	if refs == 0 {
		return 0
	}
	return float64(t.MissBy[k]) / float64(refs)
}

// AvgMemLatency returns the mean end-to-end L2 miss latency in cycles.
func (t *Totals) AvgMemLatency() float64 {
	if t.MemAccesses == 0 {
		return 0
	}
	return float64(t.MemLatencyTotal) / float64(t.MemAccesses)
}
