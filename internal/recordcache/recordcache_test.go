package recordcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/scenario"
)

// testRecord builds a distinguishable, key-complete record. pad inflates
// the marshaled size via the axes map, so byte-budget tests can steer
// entry sizes without inventing record fields.
func testRecord(n int, pad int) scenario.Record {
	rec := scenario.Record{
		Schema:       scenario.RecordSchema,
		Scenario:     "cache-test",
		Run:          n,
		Workload:     fmt.Sprintf("wl-%d", n),
		Threads:      1,
		Scale:        4,
		Seed:         int64(n + 1),
		ConfigDigest: fmt.Sprintf("digest-%04d", n),
		SimCycles:    uint64(1000 + n),
		Checksum:     float64(n) * 1.5,
	}
	if pad > 0 {
		rec.Axes = map[string]any{"pad": strings.Repeat("x", pad)}
	}
	return rec
}

func key(rec *scenario.Record) string { return scenario.RecordKey(rec) }

func mustGet(t *testing.T, c *Cache, rec scenario.Record) scenario.Record {
	t.Helper()
	got, ok := c.Get(key(&rec))
	if !ok {
		t.Fatalf("record %d (%s) missing from cache", rec.Run, rec.Workload)
	}
	if got.SimCycles != rec.SimCycles || got.Checksum != rec.Checksum || got.Workload != rec.Workload {
		t.Fatalf("record %d corrupted on round trip:\n got %+v\nwant %+v", rec.Run, got, rec)
	}
	return got
}

func TestMemoryOnlyRoundTrip(t *testing.T) {
	c, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := testRecord(1, 0)
	if _, ok := c.Get(key(&r)); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Put(r)
	mustGet(t, c, r)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestErrorRecordsNeverCached(t *testing.T) {
	c, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := testRecord(1, 0)
	r.Error = "simulated failure"
	c.Put(r)
	if _, ok := c.Get(key(&r)); ok {
		t.Fatal("error record entered the cache")
	}
}

// TestDiskPersistence: entries survive Close/Open and a disk promotion
// returns the identical record.
func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var recs []scenario.Record
	for i := 0; i < 5; i++ {
		recs = append(recs, testRecord(i, 10*i))
		c.Put(recs[i])
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st := c2.Stats()
	if st.DiskEntries != 5 || st.Entries != 0 {
		t.Fatalf("after reopen: %+v, want 5 disk entries, cold memory", st)
	}
	for _, r := range recs {
		mustGet(t, c2, r)
	}
	if st := c2.Stats(); st.Entries != 5 {
		t.Fatalf("disk hits were not promoted to memory: %+v", st)
	}
}

// TestOverwriteLatestWins: re-putting a key serves the newest record and
// the superseded line becomes dead weight that compaction reclaims.
func TestOverwriteLatestWins(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r := testRecord(1, 0)
	c.Put(r)
	r.SimCycles = 99999
	c.Put(r)
	mustGet(t, c, r)
	if st := c.Stats(); st.DiskEntries != 1 || st.DiskDead == 0 {
		t.Fatalf("overwrite accounting wrong: %+v", st)
	}
	c.mu.Lock()
	err = c.compactLocked()
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskDead != 0 || st.DiskEntries != 1 {
		t.Fatalf("compaction did not reclaim dead bytes: %+v", st)
	}
	mustGet(t, c, r)
	c.Close()

	// Latest-wins must also hold across a reopen scan.
	c2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	mustGet(t, c2, r)
}

func TestTTLExpiry(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir, TTL: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	now := time.Unix(1_000_000, 0)
	c.now = func() time.Time { return now }
	r := testRecord(1, 0)
	c.Put(r)
	now = now.Add(30 * time.Minute)
	mustGet(t, c, r)
	now = now.Add(31 * time.Minute)
	if _, ok := c.Get(key(&r)); ok {
		t.Fatal("expired entry served")
	}
	st := c.Stats()
	if st.Expired == 0 || st.DiskEntries != 0 || st.Entries != 0 {
		t.Fatalf("expiry accounting wrong: %+v", st)
	}
}

// segmentFiles returns the cache directory's segment paths.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := segmentNames(dir)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, len(names))
	for i, n := range names {
		paths[i] = filepath.Join(dir, n)
	}
	return paths
}

// corruptByte flips one bit inside the segment line holding marker and
// returns whether it found it.
func corruptByte(t *testing.T, path string, marker string) bool {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(marker))
	if i < 0 {
		return false
	}
	data[i] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return true
}

// TestBitFlipDetectedAndCompactedAway is the corruption-recovery
// contract: a flipped byte fails the entry's checksum at the reopen
// scan, the entry is skipped (not an error), and the open-time compact
// removes the bad bytes from disk while every healthy entry survives.
func TestBitFlipDetectedAndCompactedAway(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var recs []scenario.Record
	for i := 0; i < 4; i++ {
		recs = append(recs, testRecord(i, 100))
		c.Put(recs[i])
	}
	c.Close()

	// Flip a bit inside record 2's payload (its workload name).
	flipped := false
	for _, p := range segmentFiles(t, dir) {
		if corruptByte(t, p, `\"workload\":\"wl-2\"`) || corruptByte(t, p, `"workload":"wl-2"`) {
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("test premise broken: record 2 not found in any segment")
	}

	c2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("corruption must not error the open: %v", err)
	}
	defer c2.Close()
	st := c2.Stats()
	if st.Corrupt == 0 {
		t.Fatalf("bit flip not detected: %+v", st)
	}
	if st.Compacts == 0 || st.DiskDead != 0 {
		t.Fatalf("corruption detected but not compacted away: %+v", st)
	}
	if _, ok := c2.Get(key(&recs[2])); ok {
		t.Fatal("corrupted record served")
	}
	for i, r := range recs {
		if i == 2 {
			continue
		}
		mustGet(t, c2, r)
	}
	// The compacted segment must no longer contain the corrupt entry.
	for _, p := range segmentFiles(t, dir) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte("wl-2")) || bytes.Contains(data, []byte(key(&recs[2]))) {
			t.Fatalf("corrupt entry still present on disk in %s", p)
		}
	}
}

// TestTruncatedTailTolerated: a segment cut mid-line (interrupted append
// or crash) loses only the torn entry; everything before it still
// serves, and the cache keeps accepting writes.
func TestTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var recs []scenario.Record
	for i := 0; i < 3; i++ {
		recs = append(recs, testRecord(i, 50))
		c.Put(recs[i])
	}
	c.Close()

	segs := segmentFiles(t, dir)
	if len(segs) != 1 {
		t.Fatalf("want 1 segment, have %d", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Cut inside the final line.
	if err := os.WriteFile(segs[0], data[:len(data)-20], 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("torn tail must not error the open: %v", err)
	}
	defer c2.Close()
	mustGet(t, c2, recs[0])
	mustGet(t, c2, recs[1])
	if _, ok := c2.Get(key(&recs[2])); ok {
		t.Fatal("torn record served")
	}
	// A torn tail is crash debris, not corruption.
	if st := c2.Stats(); st.Corrupt != 0 {
		t.Fatalf("torn tail miscounted as corruption: %+v", st)
	}
	// The tier must still accept and serve new writes.
	r := testRecord(9, 0)
	c2.Put(r)
	mustGet(t, c2, r)
}

// TestStaleCompactionTempIgnored: a temp file left by a compaction that
// crashed mid-write must not be scanned as cache content, and the lock
// holder cleans it up.
func TestStaleCompactionTempIgnored(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r := testRecord(1, 0)
	c.Put(r)
	c.Close()

	tmp := filepath.Join(dir, ".compact-99999-1.tmp")
	if err := os.WriteFile(tmp, []byte("{half a line"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	mustGet(t, c2, r)
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatal("stale compaction temp file not removed by the lock holder")
	}
}

// TestSecondOpenerDegradesToReadOnly: while one instance holds the
// writer lock, a second instance on the same directory serves reads but
// keeps its puts out of the shared segments.
func TestSecondOpenerDegradesToReadOnly(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	shared := testRecord(1, 0)
	w.Put(shared)

	ro, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if st := ro.Stats(); !st.ReadOnly {
		t.Fatal("second opener did not degrade to read-only")
	}
	mustGet(t, ro, shared) // reads pass through to the shared disk tier
	private := testRecord(2, 0)
	ro.Put(private)
	mustGet(t, ro, private) // memory tier still works
	if st := ro.Stats(); st.DiskEntries != 1 {
		t.Fatalf("read-only instance wrote to disk: %+v", st)
	}
	// The writer never sees the read-only instance's private put.
	if _, ok := w.Get(key(&private)); ok {
		t.Fatal("read-only put leaked into the shared tier")
	}
}

// TestStaleLockStolen: a LOCK file naming a dead pid must not wedge the
// directory read-only forever.
func TestStaleLockStolen(t *testing.T) {
	dir := t.TempDir()
	// Pid 1 is init: alive but not ours — a *held* lock. Use an absurd
	// pid that cannot exist instead.
	if err := os.WriteFile(filepath.Join(dir, lockFile), []byte("999999999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if st := c.Stats(); st.ReadOnly {
		t.Fatal("stale lock not stolen")
	}
	r := testRecord(1, 0)
	c.Put(r)
	if st := c.Stats(); st.DiskEntries != 1 {
		t.Fatalf("writes disabled after lock steal: %+v", st)
	}
}
