package recordcache

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/stats"
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

// TestOtherModelSegmentsAreDropped: a segment of another model (another
// pin, or a name from before segments carried one) is never served. A
// read-only opener leaves it in place; the writer removes it at Open.
func TestOtherModelSegmentsAreDropped(t *testing.T) {
	dir := t.TempDir()
	r := testRecord(1, 0)
	data, err := json.Marshal(&r)
	if err != nil {
		t.Fatal(err)
	}
	line := encodeLine(key(&r), data)
	stale := []string{
		"seg-0000000000000000-00000000000000000001-1-1" + segExt, // another pin
		"seg-00000000000000000001-1-1" + segExt,                  // no pin
	}
	for _, name := range stale {
		if err := os.WriteFile(filepath.Join(dir, name), line, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	present := func() int {
		n := 0
		for _, name := range stale {
			if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
				n++
			}
		}
		return n
	}

	// A live writer holds the lock: this opener is read-only.
	if err := os.WriteFile(filepath.Join(dir, lockFile), []byte(fmt.Sprintf("%d\n", os.Getpid())), 0o644); err != nil {
		t.Fatal(err)
	}
	ro, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ro.Get(key(&r)); ok || !ro.Stats().ReadOnly {
		t.Fatalf("read-only opener served another model's record (read-only %v)", ro.Stats().ReadOnly)
	}
	ro.Close()
	if n := present(); n != len(stale) {
		t.Fatalf("a read-only opener removed %d stale segments", len(stale)-n)
	}

	os.Remove(filepath.Join(dir, lockFile))
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Get(key(&r)); ok {
		t.Fatal("the writer served another model's record")
	}
	if n := present(); n != 0 {
		t.Fatalf("%d stale segments survived the writer's open", n)
	}
	c.Put(r)
	mustGet(t, c, r)
}

// segmentFiles returns the cache directory's segment paths.
func segmentFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, _, err := segmentNames(dir)
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

// TestUndecodableRecordIsCorrupt: a line whose envelope checksum holds
// but whose record does not decode is corruption, like a bit flip. The
// first Get counts it, drops it from the index and misses; nothing of it
// stays resident, and compaction removes it from disk.
func TestUndecodableRecordIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	const k = "undecodable"
	seg := filepath.Join(dir, segPrefix+"00000000000000000001-1-1"+segExt)
	if err := os.WriteFile(seg, encodeLine(k, []byte(`{"run":"not a number"}`)), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 3; i++ {
		if _, ok := c.Get(k); ok {
			t.Fatal("an undecodable record was served")
		}
	}
	st := c.Stats()
	if st.Misses != 3 || st.Corrupt != 1 || st.Entries != 0 || st.Bytes != 0 || st.DiskEntries != 0 || st.DiskDead == 0 {
		t.Fatalf("stats = %+v, want 3 misses, 1 corrupt, nothing resident or indexed, dead bytes", st)
	}
	c.mu.Lock()
	err = c.compactLocked()
	c.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range segmentFiles(t, dir) {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(data, []byte(k)) {
			t.Fatalf("compaction kept the undecodable line in %s", p)
		}
	}
}

// richRecord builds a record with every field that refers to memory
// set, each to values a JSON round trip keeps as they are.
func richRecord() scenario.Record {
	ok := true
	rec := testRecord(7, 0)
	rec.Axes = map[string]any{"l2_kb": float64(512), "sync": "lax"}
	rec.ChecksumOK = &ok
	rec.Stats.Tiles = 2
	rec.Stats.Instructions = 12345
	rec.MissByName = map[string]uint64{"cold": 9, "capacity": 4}
	rec.Tiles = []stats.Tile{{TileID: 0, Instructions: 12000, Loads: 300}, {TileID: 1, Instructions: 345, Stores: 21}}
	rec.ProcWallSec = []float64{0.5, 0.25}
	rec.WallSec = 1.5
	return rec
}

// scribble mutates every field of rec that refers to memory.
func scribble(rec *scenario.Record) {
	rec.Tiles[0].Instructions = 1
	rec.MissByName["cold"] = 1
	rec.MissByName["new"] = 1
	rec.Axes["sync"] = "lax_barrier"
	rec.ProcWallSec[0] = 99
	*rec.ChecksumOK = false
}

// TestCallerOwnsRecords: what Put is given and what Get returns belong
// to the caller, from the memory tier and from the disk tier alike.
// Mutating either leaves what the cache serves next unchanged.
func TestCallerOwnsRecords(t *testing.T) {
	want := richRecord()
	expect := func(c *Cache, tier string) {
		t.Helper()
		got, ok := c.Get(key(&want))
		if !ok {
			t.Fatalf("%s: record missing", tier)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: served\n%+v\nwant\n%+v", tier, got, want)
		}
		scribble(&got)
	}

	dir := t.TempDir()
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	put := richRecord()
	c.Put(put)
	scribble(&put)
	expect(c, "memory hit after Put")
	expect(c, "memory hit after a mutated Get")
	c.Close()

	c2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	expect(c2, "disk hit")
	expect(c2, "memory hit after a mutated disk hit")
	if st := c2.Stats(); st.Hits != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 2 hits and the disk hit promoted", st)
	}
}

// TestTiersServeIdenticalOutput: a record served by CacheLookup writes
// the same JSONL bytes whether it came from the memory tier (as Put left
// it) or from the disk tier (decoded from its segment line).
func TestTiersServeIdenticalOutput(t *testing.T) {
	rec := richRecord()
	spec := &scenario.RunSpec{
		Scenario:  "tiers",
		Run:       3,
		Workload:  rec.Workload,
		Threads:   rec.Threads,
		Scale:     rec.Scale,
		Seed:      rec.Seed,
		Axes:      map[string]any{"l2_kb": json.Number("512")},
		TileStats: true,
	}
	jsonl := func(c *Cache) []byte {
		t.Helper()
		got, ok := scenario.CacheLookup(c, spec, rec.ConfigDigest)
		if !ok {
			t.Fatal("CacheLookup missed")
		}
		var b bytes.Buffer
		if err := scenario.WriteJSONL(&b, []scenario.Record{got}); err != nil {
			t.Fatal(err)
		}
		return b.Bytes()
	}

	dir := t.TempDir()
	c, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(rec)
	fromMemory := jsonl(c)
	c.Close()

	c2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	fromDisk := jsonl(c2)
	if st := c2.Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want one disk hit", st)
	}
	if !bytes.Equal(fromMemory, fromDisk) {
		t.Fatalf("tiers differ:\nmemory %s\ndisk   %s", fromMemory, fromDisk)
	}
	for _, field := range []string{`"tiles":[`, `"miss_by_name":{`, `"checksum_ok":true`, `"axes":{`} {
		if !bytes.Contains(fromDisk, []byte(field)) {
			t.Fatalf("output lacks %s: %s", field, fromDisk)
		}
	}
}

// TestCloneRecordCoversEveryReference: cloneRecord copies the fields of
// scenario.Record that refer to memory by name, one level deep (axis
// values are scalars), so a new field of that kind, or a reference
// inside the elements of a copied one, must be handled there (and added
// to richRecord and scribble) before the cache can keep its promise that
// callers own what they get.
func TestCloneRecordCoversEveryReference(t *testing.T) {
	cloned := map[string]bool{"Axes": true, "ChecksumOK": true, "MissByName": true, "Tiles": true, "ProcWallSec": true}
	rt := reflect.TypeOf(scenario.Record{})
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		switch {
		case !hasReference(f.Type):
		case !cloned[f.Name]:
			t.Errorf("scenario.Record.%s (%s) refers to memory but cloneRecord does not copy it", f.Name, f.Type)
		case f.Name != "Axes" && hasReference(f.Type.Elem()):
			t.Errorf("the elements of scenario.Record.%s (%s) refer to memory, but cloneRecord copies them shallowly", f.Name, f.Type)
		}
	}
}

// hasReference reports whether a value of type t can refer to memory
// that a copy of the value would share.
func hasReference(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface, reflect.Chan, reflect.Func:
		return true
	case reflect.Array:
		return hasReference(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasReference(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
