// Record memoization: a Sweep consults a digest-keyed RecordCache before
// queueing a run. Determinism makes this sound — a run's record is a pure
// function of its cache key (see CacheKey) — and the key deliberately
// mirrors what Resume adoption matches: the config.Canonical digest
// plus the run-level identity fields (workload, threads, scale, seed)
// that live on the RunSpec outside config.Config. Presentation fields
// (run index, grid/point coordinates, axes, wall clock) are NOT part of
// the key; they are re-stamped from the consuming spec on every hit, so
// one cached record can serve the same design point wherever it appears
// in any sweep.

package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// RecordCache is the memoization store consulted per RunSpec before
// simulating (implemented by internal/recordcache; defined here so the
// sweep engine does not depend on the store's tiering). Implementations must
// be safe for concurrent use and must return records that the caller
// may hold without further synchronization.
type RecordCache interface {
	// Get returns the record stored under a CacheKey.
	Get(key string) (Record, bool)
	// Put stores an error-free record under its RecordKey.
	Put(Record)
}

// CacheKey derives the memoization key of one run from its identity
// fields. configDigest (Digest) already covers the canonical target
// including RandSeed; workload, threads, scale, and the seed are
// included explicitly because they live on the RunSpec outside
// config.Config — without them two different workloads over the same
// target would collide (the same reason -resume matches them, PR 3).
// Host-execution details (process count, transport, worker pool) are
// excluded via config.Canonical: they must not change results, so an
// in-process run may serve a distributed re-run of the same spec and
// vice versa.
// The key also names the simulator model (ModelPin), so that a
// persistent cache never serves a record an older model made.
func CacheKey(configDigest, workload string, threads, scale int, seed int64) string {
	return cacheKey(ModelPin, configDigest, workload, threads, scale, seed)
}

// ModelPin names the simulator model that makes records: the first 16 hex
// digits of the "full" digest in benchmark/golden/records.sha256, which
// moves whenever a change moves results. TestModelPinMatchesGoldens fails
// when the goldens move and the pin does not.
const ModelPin = "3a4bc9b82861cf6b"

// cacheKey is CacheKey under the model pin given.
func cacheKey(pin, configDigest, workload string, threads, scale int, seed int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "record/v1\x00%s\x00%s\x00%s\x00%d\x00%d\x00%d", pin, configDigest, workload, threads, scale, seed)
	return hex.EncodeToString(h.Sum(nil))
}

// CacheKey returns the spec's memoization key.
func (spec *RunSpec) CacheKey() string {
	return CacheKey(Digest(&spec.Config), spec.Workload, spec.Threads, spec.Scale, spec.Seed)
}

// RecordKey returns the memoization key a record is stored under. A
// record carries every key ingredient, so Put needs no companion spec.
func RecordKey(r *Record) string {
	return CacheKey(r.ConfigDigest, r.Workload, r.Threads, r.Scale, r.Seed)
}

// CacheLookup consults cache for spec (digest must be Digest of the
// spec's config; pass "" to have it computed). Hits come back adopted:
// identity fields re-stamped from the spec, and the replay artifacts set
// — WallSec 0 (no host time was spent), ProcWallSec dropped (per-process
// wall clocks of a past run are meaningless here), Cached true — so
// cached output is byte-identical to simulated output up to
// wall_sec/proc_wall_sec/cached. Result fields — cycles, checksum,
// stats, tiles — pass through untouched. A cached record that cannot
// serve the spec (an error record, or one missing the per-tile stats
// the spec asks for) is a miss.
func CacheLookup(cache RecordCache, spec *RunSpec, digest string) (Record, bool) {
	if cache == nil {
		return Record{}, false
	}
	if digest == "" {
		digest = Digest(&spec.Config)
	}
	rec, ok := cache.Get(CacheKey(digest, spec.Workload, spec.Threads, spec.Scale, spec.Seed))
	if !ok || rec.Error != "" {
		return Record{}, false
	}
	if spec.TileStats && len(rec.Tiles) == 0 {
		// Tiles cannot be backfilled without re-running (same rule as
		// Resume adoption).
		return Record{}, false
	}
	stampIdentity(&rec, spec, digest)
	rec.Cached = true
	rec.WallSec = 0
	rec.ProcWallSec = nil
	return rec, true
}

// stampIdentity overwrites rec's spec-identity fields — everything that
// says which run of which sweep this is, as opposed to what the run
// computed — from spec and its config digest, and drops per-tile stats
// the spec does not ask for. It is the one place a record is tied to a
// spec: a fresh record starts from it, and a record that came from
// anywhere else (a worker's JSON, a resume file, the cache) is re-stamped
// with it, because a JSON round trip erases the distinction between
// json.Number and float64 in the axes map and output that is
// byte-identical however a run was executed or adopted is the contract.
func stampIdentity(rec *Record, spec *RunSpec, digest string) {
	rec.Schema = RecordSchema
	rec.Scenario = spec.Scenario
	rec.Run = spec.Run
	rec.Grid = spec.Grid
	rec.Point = spec.Point
	rec.Repeat = spec.Repeat
	rec.Workload = spec.Workload
	rec.Threads = spec.Threads
	rec.Scale = spec.Scale
	rec.Seed = spec.Seed
	rec.Processes = spec.Processes
	rec.Axes = spec.Axes
	rec.ConfigDigest = digest
	if !spec.TileStats {
		rec.Tiles = nil
	}
}

// Cacheable reports whether a record may enter the cache: it must be a
// genuine error-free result, not itself a cache replay, and when it was
// verified the verification must have passed — a checksum-mismatched
// record is a wrong answer and caching it would replay the wrongness.
func Cacheable(r *Record) bool {
	return r.Error == "" && !r.Cached && (r.ChecksumOK == nil || *r.ChecksumOK)
}
