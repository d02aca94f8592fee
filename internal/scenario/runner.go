// Records and single-run execution: the Record schema, Execute (one
// RunSpec in, one Record out, on a dedicated Cluster), native-checksum
// verification, and JSONL I/O. Sweeps of many runs are sweep.go's.

package scenario

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/core/launch"
	"repro/internal/mcp"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// RecordSchema identifies the JSONL record format.
const RecordSchema = "graphite-scenario/v1"

// Record is one run's result — one line of the output JSONL file.
//
//graphite:wire
type Record struct {
	Schema   string `json:"schema"`
	Scenario string `json:"scenario"`
	Run      int    `json:"run"`
	Grid     int    `json:"grid"`
	Point    int    `json:"point"`
	Repeat   int    `json:"repeat"`
	Workload string `json:"workload"`
	Threads  int    `json:"threads"`
	Scale    int    `json:"scale"`
	Seed     int64  `json:"seed"`
	// Processes is the OS process count of a distributed run (omitted for
	// ordinary in-process runs).
	Processes int `json:"processes,omitempty"`
	// Axes holds this point's swept values, keyed by axis field.
	Axes map[string]any `json:"axes,omitempty"`
	// ConfigDigest is the SHA-256 of the run's full configuration.
	ConfigDigest string `json:"config_digest"`
	// SimCycles is the simulated application run-time (the workload's
	// region of interest when it records one, else the max tile clock).
	SimCycles uint64 `json:"sim_cycles"`
	// Checksum is the workload's result checksum read back from simulated
	// memory; ChecksumOK compares it against the native variant when the
	// scenario sets Verify.
	Checksum   float64 `json:"checksum"`
	ChecksumOK *bool   `json:"checksum_ok,omitempty"`
	// Stats aggregates the per-tile counters (deterministic for a given
	// seed when the run has one application thread; see DESIGN.md).
	Stats stats.Totals `json:"stats"`
	// MissByName is the classified-miss breakdown keyed by kind name —
	// the reader-friendly companion of Stats' positional miss_by array.
	MissByName map[string]uint64 `json:"miss_by_name,omitempty"`
	// Tiles holds the per-tile records when the scenario sets TileStats.
	Tiles []stats.Tile `json:"tiles,omitempty"`
	// Cached marks a record served from a RecordCache instead of being
	// simulated in this invocation (WallSec is zeroed: no host time was
	// spent). Result fields are byte-identical to a fresh run's — that
	// is the determinism contract the cache is built on.
	Cached bool `json:"cached,omitempty"`
	// WallSec is host wall-clock time — never deterministic.
	WallSec float64 `json:"wall_sec"`
	// ProcWallSec holds each OS process's wall-clock serving time (from
	// startup to teardown ack), indexed by process, for distributed runs.
	ProcWallSec []float64 `json:"proc_wall_sec,omitempty"`
	Error       string    `json:"error,omitempty"`
}

// Options configures Run and RunExpanded.
type Options struct {
	// Parallel bounds the local worker slots; 0 means one per host CPU.
	// Forced to 1 when NeedsSerial says the runs cannot share the host.
	Parallel int
	// Progress, when non-nil, receives one line per completed run.
	Progress io.Writer
	// Cache, when non-nil, is the sweep's record cache
	// (SweepOptions.Cache).
	Cache RecordCache
}

// Run expands the scenario and executes every run on local worker slots.
// The returned records are ordered by run index regardless of completion
// order. The error joins all per-run failures (each failed run also
// carries its message in Record.Error); records of successful runs are
// valid even when err != nil.
func Run(s *Scenario, opt Options) ([]Record, error) {
	specs, err := s.Expand()
	if err != nil {
		return nil, err
	}
	return RunExpanded(s, specs, opt)
}

// RunExpanded executes specs previously produced by s.Expand(), for
// callers that inspect the expansion (count it, log it) before running.
func RunExpanded(s *Scenario, specs []RunSpec, opt Options) ([]Record, error) {
	sw := NewSweep(specs, SweepOptions{
		Serial:   NeedsSerial(s, specs),
		Verify:   s.Verify,
		Progress: opt.Progress,
		Cache:    opt.Cache,
	})
	sw.Work(opt.Parallel)
	return sw.Wait()
}

// NeedsSerial reports whether the scenario must run with one worker slot
// per host process (Serial scenarios, runs that pin Config.Workers —
// GOMAXPROCS is process-global — and multi-process runs with pinned
// fabric addresses, which would collide if run concurrently).
func NeedsSerial(s *Scenario, specs []RunSpec) bool {
	if s.Serial {
		return true
	}
	for i := range specs {
		if specs[i].Config.Workers > 0 {
			return true
		}
		if specs[i].Processes > 1 && len(specs[i].Hosts) > 0 {
			return true
		}
	}
	return false
}

// Execute runs one spec to completion, building and tearing down a
// dedicated cluster. Failures are reported in Record.Error rather than
// aborting: the rest of a sweep is usually still valuable.
func Execute(spec *RunSpec) Record {
	rec, _ := ExecuteStats(spec)
	return rec
}

// ExecuteStats is Execute plus the raw RunStats, for callers that need
// per-run data a Record does not carry (clock-skew samples, per-tile
// records).
func ExecuteStats(spec *RunSpec) (Record, *core.RunStats) {
	return ExecuteVia(spec, nil)
}

// ExecuteVia is ExecuteStats with the launcher chosen by the caller: run
// receives the launch.Spec the run amounts to and builds the cluster —
// launch.InProcess, launch.Run, launch.Coordinate, or a wrapper that
// first sets what a RunSpec does not carry (dial timeout, worker
// logging, fault injection). Nil selects launch.Run for a spec
// distributed over OS processes and launch.InProcess otherwise.
//
// It is the single owner of the workload result-readback ABI: the
// checksum lives at DefaultResultAddr, the region-of-interest end time 8
// bytes after it, and the ROI (when recorded) replaces the simulated
// cycle count in both the Record and the RunStats. rs is nil when the
// record carries an error. The record's config digest is computed from
// the unmodified spec config — the process count and placement are
// host-execution details the digest deliberately excludes — so a
// distributed record matches the in-process run of the same spec.
func ExecuteVia(spec *RunSpec, run func(*launch.Spec) (*launch.Result, error)) (Record, *core.RunStats) {
	var rec Record
	stampIdentity(&rec, spec, Digest(&spec.Config))
	ls := &launch.Spec{
		Workload: spec.Workload,
		Threads:  spec.Threads,
		Scale:    spec.Scale,
		Config:   spec.Config,
		Hosts:    spec.Hosts,
		PeekAddr: workloads.DefaultResultAddr,
		PeekLen:  16,
	}
	forked := spec.Processes > 1
	if forked {
		ls.Config.Processes = spec.Processes
	}
	if run == nil {
		run = launch.InProcess
		if forked {
			run = launch.Run
		}
	}
	if cp := spec.Checkpoint; cp != nil && cp.Every > 0 && (forked || cp.Dir != "") {
		// An in-process run has no worker to lose, so checkpointing there
		// is pure state capture — only worth the I/O when the policy names
		// a directory to keep the snapshots in. A forked run checkpoints
		// so that a killed worker costs a replay, not the record; nobody
		// wants those snapshots after the run.
		dir := cp.Dir
		if dir == "" {
			tmp, err := os.MkdirTemp("", "graphite-ckpt-*")
			if err != nil {
				rec.Error = fmt.Sprintf("checkpoint dir: %v", err)
				return rec, nil
			}
			defer os.RemoveAll(tmp)
			dir = tmp
		}
		ls.Checkpoint = &mcp.CheckpointPolicy{Dir: dir, Every: cp.Every, ConfigDigest: rec.ConfigDigest}
		ls.MaxRestarts = cp.MaxRestarts
	}
	res, err := run(ls)
	if err != nil {
		rec.Error = err.Error()
		return rec, nil
	}
	rs := res.Stats
	rec.Checksum = math.Float64frombits(binary.LittleEndian.Uint64(res.Peeked[0:8]))
	if roi := arch.Cycles(binary.LittleEndian.Uint64(res.Peeked[8:16])); roi > 0 {
		rs.SimulatedCycles = roi
	}
	rec.SimCycles = uint64(rs.SimulatedCycles)
	rec.Stats = rs.Totals
	rec.MissByName = rs.Totals.MissByName()
	if spec.TileStats {
		rec.Tiles = rs.Tiles
	}
	rec.WallSec = rs.Wall.Seconds()
	for _, ps := range res.Procs {
		rec.ProcWallSec = append(rec.ProcWallSec, ps.Wall.Seconds())
	}
	return rec, rs
}

// NativeKey identifies one native-execution variant: records sharing a key
// share a native checksum.
type NativeKey struct {
	Workload       string
	Threads, Scale int
}

// NativeChecksum executes the native variant of a workload and returns its
// checksum. ok is false for unknown workloads. The result is deterministic
// for a given key, which is what lets distributed workers verify their own
// records and still match a single-host sweep byte for byte.
func NativeChecksum(k NativeKey) (float64, bool) {
	w, found := workloads.Get(k.Workload)
	if !found {
		return 0, false
	}
	return w.Native(workloads.Params{Threads: k.Threads, Scale: k.Scale}), true
}

// NativeMemo memoizes native checksums per NativeKey, so whoever verifies
// records — a sweep, or a remote worker verifying its own — runs each
// native variant once. Entries are per-key sync.Onces: concurrent callers
// that miss on the same key wait for one native execution instead of each
// running it, and distinct keys run concurrently. The zero value is ready
// to use.
type NativeMemo struct {
	mu      sync.Mutex
	entries map[NativeKey]*nativeEntry
}

type nativeEntry struct {
	once  sync.Once
	val   float64
	known bool
}

// Fill sets rec.ChecksumOK to whether the record's checksum matches its
// native variant's. Error records and unknown workloads are left alone.
func (m *NativeMemo) Fill(rec *Record) {
	if rec.Error != "" {
		return
	}
	k := NativeKey{rec.Workload, rec.Threads, rec.Scale}
	m.mu.Lock()
	if m.entries == nil {
		m.entries = make(map[NativeKey]*nativeEntry)
	}
	e := m.entries[k]
	if e == nil {
		e = &nativeEntry{}
		m.entries[k] = e
	}
	m.mu.Unlock()
	e.once.Do(func() { e.val, e.known = NativeChecksum(k) })
	if !e.known {
		return
	}
	ok := workloads.Close(rec.Checksum, e.val)
	rec.ChecksumOK = &ok
}

// WriteJSONL writes one compact JSON object per line. Field order and
// formatting are fixed by the Record struct, so two runs of the same
// scenario and seed produce byte-identical lines up to the wall_sec
// field.
func WriteJSONL(w io.Writer, records []Record) error {
	enc := json.NewEncoder(w)
	for i := range records {
		if err := enc.Encode(&records[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses records written by WriteJSONL.
func ReadJSONL(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	var out []Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
}

func axesString(axes map[string]any) string {
	if len(axes) == 0 {
		return "-"
	}
	parts := make([]string, 0, len(axes))
	for _, k := range sortedKeys(axes) {
		parts = append(parts, fmt.Sprintf("%s=%v", k, axes[k]))
	}
	return "{" + strings.Join(parts, ",") + "}"
}
