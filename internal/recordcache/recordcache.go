// Package recordcache memoizes scenario run records by their content
// digest, so repeated or overlapping sweeps answer from the cache
// instead of re-simulating. The determinism work of PRs 2-5 is what
// makes this sound: a record is fully determined by its cache key
// (config.Canonical digest + workload/threads/scale/seed — see
// scenario.CacheKey), byte-identically across in-process, multi-process,
// and distributed execution, so replaying a stored record is
// indistinguishable from re-running the simulation — minus the hours.
//
// The cache is two tiers:
//
//   - An in-memory LRU of decoded records, bounded by a byte budget that
//     counts each record's marshaled length. A hit decodes nothing: it
//     copies the record's slices and maps so the caller owns the result.
//     Eviction only forgets the memory copy; the disk tier still holds
//     the entry.
//   - A disk tier of append-only JSONL segment files under Options.Dir.
//     Each line is a self-validating envelope {key, sum, record} where
//     sum is the SHA-256 of the record bytes, so truncation, bit flips,
//     and torn tails are detected per entry and skipped instead of
//     erroring the sweep. Dead bytes (overwritten or corrupt entries)
//     are reclaimed by compaction: live entries are
//     rewritten to a temp file which is fsynced and renamed into place
//     before the old segments are removed, so a crash at any point
//     leaves a readable cache (at worst with duplicate entries, which
//     the later-segment-wins scan collapses).
//
// Segment names carry scenario.ModelPin, the simulator model that made
// their records. Records of another model are never served: the writer
// removes their segments at Open, with those of names from before the
// pin, and a read-only opener skips them.
//
// Single-writer discipline: one Cache instance owns the directory's
// writer lock (a LOCK file holding its pid; stale locks from dead
// processes are stolen). Instances that cannot take the lock open
// read-only — they serve Gets from disk and keep Puts in memory only —
// so two concurrent sweeps can share a cache directory safely.
//
// All methods are safe for concurrent use: the dispatch coordinator's
// merge goroutines and the K-parallel scenario runner workers share one
// Cache.
package recordcache

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/scenario"
)

// Options configures Open.
type Options struct {
	// Dir is the disk tier's directory (created if missing). Empty means
	// memory-only: no persistence, no sharing.
	Dir string
	// MaxBytes bounds the in-memory tier by the marshaled length of the
	// records it holds (0 = unlimited), the bytes each takes on disk. An
	// entry larger than the whole budget is served from disk only.
	MaxBytes int64
}

// Stats is a point-in-time counter snapshot.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"` // memory-tier LRU evictions
	Corrupt   int64 `json:"corrupt"`   // disk entries failing checksum/decode
	Compacts  int64 `json:"compacts"`

	Entries int   `json:"entries"` // in-memory tier
	Bytes   int64 `json:"bytes"`   // marshaled length of the in-memory records

	DiskEntries int   `json:"disk_entries"` // live disk index entries
	DiskLive    int64 `json:"disk_live"`    // live bytes across segments
	DiskDead    int64 `json:"disk_dead"`    // reclaimable bytes

	ReadOnly bool `json:"read_only"` // another instance holds the writer lock
}

// HitRate returns hits/(hits+misses) as a percentage (100 when idle).
func (s Stats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 100
	}
	return 100 * float64(s.Hits) / float64(s.Hits+s.Misses)
}

// diskLine is one segment line: a self-validating record envelope.
//
//graphite:wire
type diskLine struct {
	Key    string          `json:"key"`
	Sum    string          `json:"sum"`
	Record json.RawMessage `json:"record"`
}

// diskEntry locates one live line inside a segment.
type diskEntry struct {
	seg string
	off int64
	len int // line length excluding the trailing newline
}

// memEntry is one in-memory tier entry (an LRU list value). rec is never
// mutated once stored, so a reader may copy it after releasing the lock.
type memEntry struct {
	key  string
	rec  *scenario.Record
	size int64 // marshaled length of rec
}

// Cache is a two-tier digest-keyed record store. See the package comment.
type Cache struct {
	opt Options

	mu sync.Mutex

	// memory tier
	lru   *list.List // front = most recently used; values are *memEntry
	mem   map[string]*list.Element
	bytes int64

	// disk tier
	dir      string
	readOnly bool
	locked   bool
	index    map[string]diskEntry
	segments []string // every known segment file, scan order
	readers  map[string]*os.File
	active   *os.File
	activeNm string
	activeOf int64
	segSeq   int64
	live     int64
	dead     int64
	diskErr  error // first append failure; disables further appends

	hits, misses, evictions, corrupt, compacts int64
}

const (
	lockFile = "LOCK"
	// segPrefix begins the name of every segment of this model.
	segPrefix = "seg-" + scenario.ModelPin + "-"
	segExt    = ".jsonl"
	// compactMinDead is the dead-byte floor below which automatic
	// compaction is not worth the rewrite.
	compactMinDead = 64 << 10
	// maxLine bounds one segment line (records can embed per-tile stats).
	maxLine = 64 << 20
)

// Open opens (creating if necessary) a cache. Open never fails on cache
// *content* — corrupt or torn entries are skipped and scheduled for
// compaction — only on environmental errors (unusable directory).
func Open(opt Options) (*Cache, error) {
	c := &Cache{
		opt:     opt,
		lru:     list.New(),
		mem:     map[string]*list.Element{},
		index:   map[string]diskEntry{},
		readers: map[string]*os.File{},
		dir:     opt.Dir,
	}
	if c.dir == "" {
		return c, nil
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return nil, fmt.Errorf("recordcache: %w", err)
	}
	c.acquireLock()
	names, stale, err := segmentNames(c.dir)
	if err != nil {
		return nil, fmt.Errorf("recordcache: %w", err)
	}
	if c.locked {
		// Segments of another model hold records no key of this one
		// reaches, and leftover temp files are failed compactions from a
		// crashed writer; only the lock holder may remove them.
		tmps, _ := filepath.Glob(filepath.Join(c.dir, ".compact-*.tmp"))
		for _, name := range stale {
			tmps = append(tmps, filepath.Join(c.dir, name))
		}
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	for _, name := range names {
		c.scanSegment(name)
	}
	c.segments = names
	// Corruption found at open is compacted away immediately so it can
	// never be rescanned; plain dead weight waits for the usual trigger.
	if c.corrupt > 0 && !c.readOnly {
		c.mu.Lock()
		c.compactLocked()
		c.mu.Unlock()
	}
	return c, nil
}

// segmentNames lists the directory's segment files of this model in scan
// order (lexical = chronological: after the pin, names embed a
// zero-padded creation time), and apart from them the stale segments:
// another model's, and those named before names carried the pin.
func segmentNames(dir string) (names, stale []string, err error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		name := e.Name()
		switch {
		case !e.Type().IsRegular() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, segExt):
		case strings.HasPrefix(name, segPrefix):
			names = append(names, name)
		default:
			stale = append(stale, name)
		}
	}
	sort.Strings(names)
	return names, stale, nil
}

// acquireLock takes the directory writer lock or degrades to read-only.
// A lock whose pid no longer runs is stale (crashed writer) and stolen.
func (c *Cache) acquireLock() {
	path := filepath.Join(c.dir, lockFile)
	for attempt := 0; attempt < 2; attempt++ {
		f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err == nil {
			fmt.Fprintf(f, "%d\n", os.Getpid())
			f.Close()
			c.locked = true
			return
		}
		if !os.IsExist(err) {
			break
		}
		b, rerr := os.ReadFile(path)
		pid, perr := strconv.Atoi(strings.TrimSpace(string(b)))
		if rerr == nil && perr == nil && pidAlive(pid) {
			break
		}
		os.Remove(path)
	}
	c.readOnly = true
}

// scanSegment builds the disk index from one segment, later lines (and
// later segments) winning per key. Invalid lines are skipped: a torn
// final line (no newline — an interrupted append) is expected crash
// debris, anything else counts as corruption and schedules compaction.
func (c *Cache) scanSegment(name string) {
	f, err := os.Open(filepath.Join(c.dir, name))
	if err != nil {
		return // unreadable segment: treat as absent
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<20)
	var off int64
	for {
		line, err := r.ReadBytes('\n')
		if len(line) == 0 {
			return // clean EOF
		}
		n := int64(len(line))
		complete := err == nil
		trimmed := bytes.TrimRight(line, "\n")
		if len(bytes.TrimSpace(trimmed)) == 0 {
			off += n
			if !complete {
				return
			}
			continue
		}
		dl, ok := decodeLine(trimmed)
		switch {
		case !ok:
			c.dead += n
			if complete {
				c.corrupt++
			}
		default:
			if old, live := c.index[dl.Key]; live {
				c.dead += int64(old.len) + 1
				c.live -= int64(old.len) + 1
			}
			c.index[dl.Key] = diskEntry{seg: name, off: off, len: len(trimmed)}
			c.live += n
		}
		off += n
		if !complete {
			return
		}
	}
}

// decodeLine parses and checksums one segment line.
func decodeLine(line []byte) (diskLine, bool) {
	var dl diskLine
	if json.Unmarshal(line, &dl) != nil || dl.Key == "" || len(dl.Record) == 0 {
		return dl, false
	}
	return dl, sumHex(dl.Record) == dl.Sum
}

func sumHex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// Get returns a copy of the record stored under key that the caller
// owns, consulting the memory tier first and promoting disk hits into
// it. Implements scenario.RecordCache.
func (c *Cache) Get(key string) (scenario.Record, bool) {
	c.mu.Lock()
	rec := c.lookupLocked(key)
	if rec == nil {
		c.misses++
		c.mu.Unlock()
		return scenario.Record{}, false
	}
	c.hits++
	c.mu.Unlock()
	return cloneRecord(rec), true
}

// lookupLocked returns the stored record for key, or nil. A disk hit is
// decoded here, once, and promoted into the memory tier.
func (c *Cache) lookupLocked(key string) *scenario.Record {
	if el, ok := c.mem[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*memEntry).rec
	}
	e, ok := c.index[key]
	if !ok {
		return nil
	}
	data, ok := c.readEntryLocked(key, e)
	rec := new(scenario.Record)
	if !ok || json.Unmarshal(data, rec) != nil {
		// Bit rot since the open-time scan, or a record that passes its
		// checksum but is no record: forget the entry and let compaction
		// rewrite the survivors.
		c.corrupt++
		c.dropDiskLocked(key, e)
		c.maybeCompactLocked()
		return nil
	}
	c.insertMemLocked(key, rec, int64(len(data)))
	return rec
}

// readEntryLocked reads and re-validates one indexed line from disk.
func (c *Cache) readEntryLocked(key string, e diskEntry) ([]byte, bool) {
	f := c.readers[e.seg]
	if f == nil {
		var err error
		f, err = os.Open(filepath.Join(c.dir, e.seg))
		if err != nil {
			return nil, false
		}
		c.readers[e.seg] = f
	}
	buf := make([]byte, e.len)
	if _, err := f.ReadAt(buf, e.off); err != nil {
		return nil, false
	}
	dl, ok := decodeLine(buf)
	if !ok || dl.Key != key {
		return nil, false
	}
	return dl.Record, true
}

// dropDiskLocked forgets a disk entry, moving its bytes to the dead pool.
func (c *Cache) dropDiskLocked(key string, e diskEntry) {
	delete(c.index, key)
	c.dead += int64(e.len) + 1
	c.live -= int64(e.len) + 1
}

// Put stores one record under its content key (scenario.RecordKey).
// Failed runs are never cached — an error record must not masquerade as
// a result on the next sweep. Implements scenario.RecordCache.
func (c *Cache) Put(rec scenario.Record) {
	if rec.Error != "" {
		return
	}
	// The cached flag and wall clock are replay artifacts of *this* run;
	// the stored record is the pristine result, stamped on the way out.
	rec.Cached = false
	data, err := json.Marshal(&rec)
	if err != nil {
		return
	}
	key := scenario.RecordKey(&rec)
	stored := cloneRecord(&rec)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.insertMemLocked(key, &stored, int64(len(data)))
	c.appendDiskLocked(key, data)
	c.maybeCompactLocked()
}

// insertMemLocked adds (or refreshes) a memory-tier entry and evicts
// from the cold end until the budgets hold again. An entry larger than
// the whole byte budget is evicted immediately (disk still serves it).
func (c *Cache) insertMemLocked(key string, rec *scenario.Record, size int64) {
	if el, ok := c.mem[key]; ok {
		me := el.Value.(*memEntry)
		c.bytes += size - me.size
		me.rec, me.size = rec, size
		c.lru.MoveToFront(el)
	} else {
		c.mem[key] = c.lru.PushFront(&memEntry{key: key, rec: rec, size: size})
		c.bytes += size
	}
	for c.lru.Len() > 0 && c.opt.MaxBytes > 0 && c.bytes > c.opt.MaxBytes {
		c.evictions++
		c.removeMemLocked(c.lru.Back())
	}
}

func (c *Cache) removeMemLocked(el *list.Element) {
	me := el.Value.(*memEntry)
	c.lru.Remove(el)
	delete(c.mem, me.key)
	c.bytes -= me.size
}

// cloneRecord copies r deeply enough that the copy shares no memory with
// r: every field that refers to memory is copied too. Axis values are
// bools, numbers and strings (a scenario sets only such config leaves),
// so copying the axes map copies them.
func cloneRecord(r *scenario.Record) scenario.Record {
	out := *r
	out.Axes = maps.Clone(r.Axes)
	out.MissByName = maps.Clone(r.MissByName)
	out.Tiles = slices.Clone(r.Tiles)
	out.ProcWallSec = slices.Clone(r.ProcWallSec)
	if r.ChecksumOK != nil {
		ok := *r.ChecksumOK
		out.ChecksumOK = &ok
	}
	return out
}

// appendDiskLocked appends one envelope line to the active segment. A
// write failure disables the disk tier for the rest of the run (memory
// keeps serving) rather than failing the sweep.
func (c *Cache) appendDiskLocked(key string, data []byte) {
	if c.dir == "" || c.readOnly || c.diskErr != nil {
		return
	}
	if c.active == nil {
		name := c.segNameLocked()
		f, err := os.OpenFile(filepath.Join(c.dir, name), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			c.diskErr = err
			return
		}
		c.active, c.activeNm, c.activeOf = f, name, 0
		c.segments = append(c.segments, name)
	}
	line := encodeLine(key, data)
	if _, err := c.active.Write(line); err != nil {
		c.diskErr = err
		return
	}
	if old, live := c.index[key]; live {
		c.dead += int64(old.len) + 1
		c.live -= int64(old.len) + 1
	}
	c.index[key] = diskEntry{seg: c.activeNm, off: c.activeOf, len: len(line) - 1}
	c.live += int64(len(line))
	c.activeOf += int64(len(line))
}

func encodeLine(key string, data []byte) []byte {
	line, err := json.Marshal(&diskLine{Key: key, Sum: sumHex(data), Record: data})
	if err != nil {
		// diskLine is plain data over already-marshaled bytes.
		panic("recordcache: encode segment line: " + err.Error())
	}
	return append(line, '\n')
}

// segNameLocked mints a fresh segment name that sorts after every
// existing one of this model (the pin, then zero-padded wall nanoseconds
// + pid + per-instance seq).
func (c *Cache) segNameLocked() string {
	c.segSeq++
	return fmt.Sprintf("%s%020d-%d-%d%s", segPrefix, time.Now().UnixNano(), os.Getpid(), c.segSeq, segExt)
}

// maybeCompactLocked rewrites the disk tier when enough of it is dead
// weight (at least half, and past an absolute floor so tiny caches
// don't churn).
func (c *Cache) maybeCompactLocked() {
	if c.dead >= compactMinDead && c.dead >= c.live {
		c.compactLocked()
	}
}

// compactLocked rewrites all live entries into one fresh segment and
// removes the old ones. Crash-safe: the new segment is fully written,
// fsynced, and renamed into place before anything is deleted, and
// duplicate entries from a crash between rename and delete collapse at
// next scan.
func (c *Cache) compactLocked() error {
	if c.dir == "" || c.readOnly {
		return nil
	}
	// Stable output order: disk layout order of the surviving entries.
	type kv struct {
		key string
		e   diskEntry
	}
	entries := make([]kv, 0, len(c.index))
	for k, e := range c.index {
		entries = append(entries, kv{k, e})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].e.seg != entries[j].e.seg {
			return entries[i].e.seg < entries[j].e.seg
		}
		return entries[i].e.off < entries[j].e.off
	})

	newName := c.segNameLocked()
	tmp := filepath.Join(c.dir, fmt.Sprintf(".compact-%d-%d.tmp", os.Getpid(), c.segSeq))
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("recordcache: compact: %w", err)
	}
	newIndex := make(map[string]diskEntry, len(entries))
	var off int64
	for _, kv := range entries {
		data, ok := c.readEntryLocked(kv.key, kv.e)
		if !ok {
			c.corrupt++
			continue // rotted since indexing: compaction is how it dies
		}
		line := encodeLine(kv.key, data)
		if _, err := f.Write(line); err != nil {
			f.Close()
			os.Remove(tmp)
			return fmt.Errorf("recordcache: compact: %w", err)
		}
		newIndex[kv.key] = diskEntry{seg: newName, off: off, len: len(line) - 1}
		off += int64(len(line))
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("recordcache: compact: %w", err)
	}
	f.Close()
	if err := os.Rename(tmp, filepath.Join(c.dir, newName)); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("recordcache: compact: %w", err)
	}

	// The new segment is durable; retire everything older.
	old := c.segments
	c.closeFilesLocked()
	for _, name := range old {
		os.Remove(filepath.Join(c.dir, name))
	}
	c.segments = []string{newName}
	c.index = newIndex
	c.live, c.dead = off, 0
	c.compacts++
	// Reopen the compacted segment for further appends.
	af, err := os.OpenFile(filepath.Join(c.dir, newName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		c.diskErr = err
		return nil
	}
	c.active, c.activeNm, c.activeOf = af, newName, off
	return nil
}

// closeFilesLocked closes the active writer and all segment readers.
func (c *Cache) closeFilesLocked() {
	if c.active != nil {
		c.active.Close()
		c.active = nil
	}
	for _, f := range c.readers {
		f.Close()
	}
	c.readers = map[string]*os.File{}
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Corrupt:     c.corrupt,
		Compacts:    c.compacts,
		Entries:     c.lru.Len(),
		Bytes:       c.bytes,
		DiskEntries: len(c.index),
		DiskLive:    c.live,
		DiskDead:    c.dead,
		ReadOnly:    c.readOnly,
	}
}

// Close releases file handles and the writer lock. The cache must not
// be used afterwards.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closeFilesLocked()
	if c.locked {
		os.Remove(filepath.Join(c.dir, lockFile))
		c.locked = false
	}
	return c.diskErr
}
