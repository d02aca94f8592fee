// Package checkpoint names and serializes the complete architectural
// state of a quiesced simulation: caches, directory entries, DRAM
// contents, clocks, core-model state, per-tile statistics, and the MCP's
// service tables. It is the first subsystem allowed to see all of that
// state at once, so the types here are the canonical inventory of "what a
// simulation is" at an epoch boundary.
//
// A checkpoint is one ProcState per host process — written by that
// process, checksummed, and versioned — plus one Manifest written by the
// MCP's process after every save reply has arrived. A state file is the
// state's canonical binary encoding (codec.go): listed in a fixed field
// order, slots and sets in ascending order, nothing in map-iteration
// order, and invalid cache slots left out because a restore zeroes them.
// The manifest is JSON, small enough to read by eye. It records each
// process file's SHA-256 and, as the state digest, the same sum, which is
// what makes checkpoints comparable across runs: two runs of a
// deterministic simulation that checkpoint at the same epoch produce
// byte-identical state files and therefore equal digests. The recovery
// path in core/launch leans on exactly this property — after a worker
// dies, the run is re-executed and each checkpoint's digests are verified
// against the previous attempt's manifests, so a divergent replay is
// detected at the first epoch where it differs rather than at the end of
// the run (see DESIGN.md §18).
//
// The package is a leaf: simulator packages (cache, memsys, mcp, core)
// import it and translate their internal state into these types, never
// the other way around.
package checkpoint

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Version identifies the checkpoint format: the binary per-process state
// file (codec.go) and the JSON manifest. Readers reject files written by a
// different version rather than guessing.
const Version = 3

// CacheState is one cache's image: its geometry, its valid slots in
// ascending slot index, and the LRU tick and public counters. Invalid
// slots are not listed: a restore clears every slot before it scatters
// the valid ones back, so a restored cache has the original's slot
// placement and LRU stamps and makes exactly its eviction decisions.
type CacheState struct {
	Slots    uint32 // sets × associativity
	LineSize uint32
	Valid    []CacheSlot
	// Data holds the payload of each Valid slot, LineSize bytes apiece,
	// in Valid's order.
	Data       []byte
	Tick       uint64
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64
}

// CacheSlot is the metadata of one valid cache slot.
type CacheSlot struct {
	Index uint32
	Addr  uint64
	State uint8
	Dirty bool
	Mask  uint64
	LRU   uint64
}

// DRAMLine is one backing-store line.
type DRAMLine struct {
	Addr uint64
	Data []byte
}

// DRAMState is one controller's backing store (lines sorted by address)
// and counters.
type DRAMState struct {
	Lines           []DRAMLine
	Reads           uint64
	Writes          uint64
	TotalQueueDelay int64
}

// CoreState is the core performance model: synthetic PC, predictor table,
// store buffer, and retirement counters.
type CoreState struct {
	PC           uint64
	FetchedLine  uint64
	Predictor    []uint8
	StoreBuf     []int64
	Instructions uint64
	Branches     uint64
	Mispredicts  uint64
	ComputeCyc   int64
	MemStallCyc  int64
}

// DirEntryState is one directory entry: its arena index (so a restore
// reproduces allocation order and therefore entry layout), the line it
// tracks, and the sharer state. Sharers are listed in slot order for
// limited-pointer policies and ascending tile order for bit vectors —
// each is that policy's canonical order, and re-adding them in sequence
// reconstructs the entry exactly.
type DirEntryState struct {
	Index          int32
	Line           uint64
	Owner          int32
	LastWriter     int32
	LastWriterMask uint64
	Sharers        []int32
	Cursor         int32
}

// HomeState is one tile's home: its directory entries (sorted by arena
// index), sub-request sequence counter, home-side statistics, and the
// DRAM controller behind it.
type HomeState struct {
	Entries     []DirEntryState
	HomeSeq     uint64
	DirRequests uint64
	DirTraps    uint64
	InvSent     uint64
	DRAM        DRAMState
}

// TileState is the complete architectural state of one tile at a quiesced
// epoch boundary.
type TileState struct {
	Tile  int32
	Clock int64

	Core *CoreState
	L1I  *CacheState
	L1D  *CacheState
	L2   *CacheState

	Home HomeState

	// ReqSeq is the core context's memory-request sequence counter.
	ReqSeq uint64
	// EverAccessed and Invalidated are the miss-classification sets
	// (sorted line addresses).
	EverAccessed []uint64
	Invalidated  []uint64

	Stats stats.Tile
}

// ThreadState is one MCP thread record.
//
//graphite:wire
type ThreadState struct {
	Thread   int32         `json:"thread"`
	Exited   bool          `json:"exited"`
	ExitTime int64         `json:"exit_time"`
	Joiners  []WaiterState `json:"joiners,omitempty"`
}

// WaiterState is one blocked requester (a reply address plus the
// simulated time it blocked and, where relevant, auxiliary state).
//
//graphite:wire
type WaiterState struct {
	Tile      int32  `json:"tile"`
	Seq       uint64 `json:"seq"`
	Time      int64  `json:"time"`
	ReplyType uint8  `json:"reply_type,omitempty"`
	Mutex     uint64 `json:"mutex,omitempty"`
}

// MutexState is one MCP mutex service record.
//
//graphite:wire
type MutexState struct {
	Addr     uint64        `json:"addr"`
	Locked   bool          `json:"locked"`
	LastFree int64         `json:"last_free"`
	Queue    []WaiterState `json:"queue,omitempty"`
}

// BarrierState is one in-progress application barrier.
//
//graphite:wire
type BarrierState struct {
	Addr    uint64        `json:"addr"`
	Waiters []WaiterState `json:"waiters,omitempty"`
}

// CondState is one condition-variable service record.
//
//graphite:wire
type CondState struct {
	Addr    uint64        `json:"addr"`
	Waiters []WaiterState `json:"waiters,omitempty"`
}

// AllocSpanState is one free-list span of the simulated heap.
//
//graphite:wire
type AllocSpanState struct {
	Base uint64 `json:"base"`
	Size uint64 `json:"size"`
}

// AllocBlockState is one live allocation.
//
//graphite:wire
type AllocBlockState struct {
	Addr uint64 `json:"addr"`
	Size uint64 `json:"size"`
}

// AllocState is the MCP heap allocator: free list in base order, live
// blocks in address order, and the usage counters.
//
//graphite:wire
type AllocState struct {
	Free      []AllocSpanState  `json:"free"`
	Allocated []AllocBlockState `json:"allocated,omitempty"`
	InUse     uint64            `json:"in_use"`
	Peak      uint64            `json:"peak"`
}

// MCPState is the Master Control Program's service state: thread table,
// tile occupancy, synchronization services and heap allocator. Captured
// by the MCP itself during the save window (all application threads are
// parked, so the tables are stable).
//
//graphite:wire
type MCPState struct {
	Threads  []ThreadState  `json:"threads,omitempty"`
	TileBusy []bool         `json:"tile_busy"`
	Running  int            `json:"running"`
	Blocked  []int32        `json:"blocked,omitempty"`
	Mutexes  []MutexState   `json:"mutexes,omitempty"`
	Barriers []BarrierState `json:"barriers,omitempty"`
	Conds    []CondState    `json:"conds,omitempty"`
	Alloc    AllocState     `json:"alloc"`
}

// ProcState is everything one host process contributes to a checkpoint.
// Its file is the binary encoding in codec.go.
type ProcState struct {
	Version      int
	Proc         int32
	Epoch        int64
	ConfigDigest string
	Tiles        []TileState
}

// ManifestProc records one process's contribution in the manifest: where
// its state file lives, the SHA-256 of the file bytes, and the digest of
// the serialized state.
//
//graphite:wire
type ManifestProc struct {
	Proc        int32  `json:"proc"`
	File        string `json:"file"`
	FileSum     string `json:"file_sum"`
	StateDigest string `json:"state_digest"`
}

// Manifest is the checkpoint's root document, written by the MCP process
// once every per-process save has been acknowledged. A manifest on disk
// means the checkpoint is complete; a crash mid-save leaves state files
// without a manifest, which readers ignore.
//
//graphite:wire
type Manifest struct {
	Version      int            `json:"version"`
	Epoch        int64          `json:"epoch"`
	FabricID     uint64         `json:"fabric_id"`
	Generation   uint64         `json:"generation"`
	ConfigDigest string         `json:"config_digest"`
	Procs        []ManifestProc `json:"procs"`
	MCP          *MCPState      `json:"mcp,omitempty"`
}

// VerifyDigests returns the manifest's state digests in canonical order —
// one per process, then the digest of the MCP state. This list is the
// unit of replay-identity verification: a re-run attempt checkpointing at
// the same epoch must reproduce it exactly (DESIGN.md §18).
func (m *Manifest) VerifyDigests() []string {
	out := make([]string, 0, len(m.Procs)+1)
	for _, p := range m.Procs {
		out = append(out, p.StateDigest)
	}
	b, err := json.Marshal(m.MCP)
	if err != nil {
		panic("checkpoint: marshal mcp state: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return append(out, hex.EncodeToString(sum[:]))
}

// ProcFileName names the state file of one (epoch, proc) pair.
func ProcFileName(epoch int64, proc int32) string {
	return fmt.Sprintf("ckpt-e%08d-p%03d.state", epoch, proc)
}

// ManifestFileName names the manifest of one epoch.
func ManifestFileName(epoch int64) string {
	return fmt.Sprintf("ckpt-e%08d-manifest.json", epoch)
}

// WriteProcState serializes ps into dir, returning the file's base name,
// its SHA-256 (hex), and the state digest. The file is written via a
// temporary name and renamed, so a reader never sees a torn file. The
// file is the canonical encoding of the state, so one hash of the written
// bytes is both values: two equal states produce equal files.
func WriteProcState(dir string, ps *ProcState) (file, fileSum, stateDigest string, err error) {
	ps.Version = Version
	b := encodeProcState(ps)
	sum := sha256.Sum256(b)
	name := ProcFileName(ps.Epoch, ps.Proc)
	if err := atomicWrite(filepath.Join(dir, name), b); err != nil {
		return "", "", "", err
	}
	digest := hex.EncodeToString(sum[:])
	return name, digest, digest, nil
}

// ReadProcState loads and decodes one state file, verifying wantSum (hex
// SHA-256 of the file bytes) when non-empty.
func ReadProcState(path, wantSum string) (*ProcState, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if wantSum != "" {
		sum := sha256.Sum256(b)
		if got := hex.EncodeToString(sum[:]); got != wantSum {
			return nil, fmt.Errorf("checkpoint: %s: checksum mismatch (got %s, want %s)", path, got, wantSum)
		}
	}
	ps, err := decodeProcState(b)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode %s: %w", path, err)
	}
	return ps, nil
}

// WriteManifest writes the epoch's manifest into dir (atomically, like
// WriteProcState).
func WriteManifest(dir string, m *Manifest) error {
	m.Version = Version
	b, err := encodeManifest(m)
	if err != nil {
		return err
	}
	return atomicWrite(filepath.Join(dir, ManifestFileName(m.Epoch)), b)
}

// ReadManifest loads one manifest file.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	m, err := decodeManifest(b)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return m, nil
}

// encodeManifest is the manifest file's bytes.
func encodeManifest(m *Manifest) ([]byte, error) {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("checkpoint: marshal manifest: %w", err)
	}
	return append(b, '\n'), nil
}

// decodeManifest parses a manifest file's bytes, refusing other versions.
func decodeManifest(b []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("decode manifest: %w", err)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("manifest version %d, want %d", m.Version, Version)
	}
	return &m, nil
}

// LoadManifests returns every complete checkpoint manifest in dir, sorted
// by epoch. A missing or empty directory is an empty slice, not an error.
func LoadManifests(dir string) ([]*Manifest, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var out []*Manifest
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, "ckpt-e") || !strings.HasSuffix(name, "-manifest.json") {
			continue
		}
		m, err := ReadManifest(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Epoch < out[j].Epoch })
	return out, nil
}

// LoadProcStates reads every process state referenced by a manifest,
// verifying file checksums, and returns them indexed by process. A state
// file is its state's canonical encoding, so a manifest whose state digest
// differs from its file checksum contradicts itself and is rejected.
func LoadProcStates(dir string, m *Manifest) ([]*ProcState, error) {
	out := make([]*ProcState, len(m.Procs))
	for i, mp := range m.Procs {
		if mp.StateDigest != mp.FileSum {
			return nil, fmt.Errorf("checkpoint: proc %d: state digest %s disagrees with file checksum %s", mp.Proc, mp.StateDigest, mp.FileSum)
		}
		ps, err := ReadProcState(filepath.Join(dir, mp.File), mp.FileSum)
		if err != nil {
			return nil, err
		}
		if int(mp.Proc) != i {
			return nil, fmt.Errorf("checkpoint: manifest proc order broken at index %d (proc %d)", i, mp.Proc)
		}
		out[i] = ps
	}
	return out, nil
}

// atomicWrite writes b to path via a temporary file and rename.
func atomicWrite(path string, b []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}
