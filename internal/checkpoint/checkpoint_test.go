package checkpoint_test

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/coremodel"
	"repro/internal/mcp"
	"repro/internal/simtest"
)

// realCapture runs a small two-process cluster that checkpoints itself
// mid-run, so its caches hold valid lines, and returns the directory and
// the last manifest.
func realCapture(tb testing.TB) (string, *checkpoint.Manifest) {
	tb.Helper()
	cfg := config.Default()
	cfg.Tiles, cfg.Processes = 4, 2
	cfg.L1I = config.CacheConfig{Enabled: true, Size: 1 << 10, Assoc: 2, LineSize: 64, HitLatency: 1}
	cfg.L1D = config.CacheConfig{Enabled: true, Size: 2 << 10, Assoc: 2, LineSize: 64, HitLatency: 1}
	cfg.L2 = config.CacheConfig{Enabled: true, Size: 16 << 10, Assoc: 4, LineSize: 64, HitLatency: 8}
	cfg.Sync.Model = config.LaxBarrier
	cfg.Sync.BarrierQuantum = 500
	prog := core.Program{Name: "ckpt", Funcs: []core.ThreadFunc{func(th *core.Thread, _ uint64) {
		buf := th.Malloc(8192)
		for i := 0; i < 40; i++ {
			th.Compute(coremodel.Arith, 300)
			th.Store64(buf+arch.Addr((i%128)*64), uint64(i))
			_ = th.Load64(buf + arch.Addr(((i+7)%128)*64))
		}
	}}}
	c, err := core.NewCluster(cfg, prog)
	if err != nil {
		tb.Fatal(err)
	}
	defer c.Close()
	dir := tb.TempDir()
	c.SetCheckpoint(&mcp.CheckpointPolicy{Dir: dir, Every: 2, ConfigDigest: "test-digest"})
	simtest.Deadline(tb, 2*time.Minute, func() { _, err = c.Run(0) })
	if err != nil {
		tb.Fatal(err)
	}
	ms, err := checkpoint.LoadManifests(dir)
	if err != nil || len(ms) == 0 {
		tb.Fatalf("run left %d manifests (%v)", len(ms), err)
	}
	return dir, ms[len(ms)-1]
}

// TestRealCaptureRoundTrips decodes a real capture, writes it again and
// reads it back: the second file has the first one's checksum, and the
// two decoded states are equal.
func TestRealCaptureRoundTrips(t *testing.T) {
	dir, m := realCapture(t)
	states, err := checkpoint.LoadProcStates(dir, m)
	if err != nil {
		t.Fatal(err)
	}
	valid := 0
	for i, ps := range states {
		for _, ts := range ps.Tiles {
			valid += len(ts.L2.Valid)
		}
		out := t.TempDir()
		file, sum, digest, err := checkpoint.WriteProcState(out, ps)
		if err != nil {
			t.Fatal(err)
		}
		if sum != m.Procs[i].FileSum || digest != sum {
			t.Fatalf("proc %d: rewritten file sum %s digest %s, manifest %s", i, sum, digest, m.Procs[i].FileSum)
		}
		back, err := checkpoint.ReadProcState(filepath.Join(out, file), sum)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ps, back) {
			t.Fatalf("proc %d: state changed across a write and read", i)
		}
	}
	if valid == 0 {
		t.Fatal("capture holds no valid L2 slots; the round trip exercised no cache lines")
	}
}

// filledState is a ProcState with every field set, through every nested
// type of the state file.
func filledState(t *testing.T) *checkpoint.ProcState {
	ps := &checkpoint.ProcState{}
	simtest.Fill(t, ps)
	ps.Version = checkpoint.Version // the header field: any other value is rejected
	return ps
}

// TestCodecCoversEveryField encodes a state with every field of every
// nested type set and requires it back unchanged: a field the codec was
// not taught about comes back zero.
func TestCodecCoversEveryField(t *testing.T) {
	ps := filledState(t)
	b := checkpoint.EncodeProcState(ps)
	if len(b) != cap(b) {
		t.Errorf("sizing pass counted %d bytes, encoder wrote %d", cap(b), len(b))
	}
	got, err := checkpoint.DecodeProcState(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ps, got) {
		t.Fatalf("round trip lost fields:\n want %+v\n got  %+v", ps.Tiles[1], got.Tiles[1])
	}
	if again := checkpoint.EncodeProcState(got); !bytes.Equal(b, again) {
		t.Fatal("re-encoding a decoded state changed its bytes")
	}
}

func TestCorruptStateFiles(t *testing.T) {
	ps := filledState(t)
	dir := t.TempDir()
	file, sum, _, err := checkpoint.WriteProcState(dir, ps)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, file)
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x40
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := checkpoint.ReadProcState(path, sum); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("flipped byte: got %v, want a checksum error", err)
	}

	badMagic := bytes.Clone(good)
	badMagic[0] = 'X'
	wrongVersion := bytes.Clone(good)
	wrongVersion[len("GRPHCKPT")] = checkpoint.Version + 1
	// The empty state with its Proc, a one-byte 0, spelled as two bytes.
	empty := checkpoint.EncodeProcState(&checkpoint.ProcState{Version: checkpoint.Version})
	hdr := len("GRPHCKPT") + 1
	overlong := append(append(bytes.Clone(empty[:hdr]), 0x80), empty[hdr:]...)
	for name, b := range map[string][]byte{
		"truncated":       good[:len(good)-1],
		"empty":           nil,
		"bad magic":       badMagic,
		"wrong version":   wrongVersion,
		"v1 json":         []byte(`{"version":1,"proc":0,"epoch":64,"config_digest":"d","tiles":[]}`),
		"trailing bytes":  append(bytes.Clone(good), 0),
		"overlong varint": overlong,
	} {
		if _, err := checkpoint.DecodeProcState(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// TestCacheRestore restores a capture into a cache that holds other
// lines: only the captured lines may remain. Then it decodes captures
// whose slot lists are out of range, out of order or otherwise
// inconsistent: the file is well formed, and cache.Restore must refuse it
// without touching the cache.
func TestCacheRestore(t *testing.T) {
	cc := config.CacheConfig{Enabled: true, Size: 1 << 10, Assoc: 2, LineSize: 64, HitLatency: 1}
	line := func(b byte) []byte { return bytes.Repeat([]byte{b}, 64) }
	src := cache.New(cc)
	defer src.Release()
	src.Insert(3, cache.Shared, line(3))
	src.Insert(4, cache.Modified, line(4))
	base := src.Capture()
	if len(base.Valid) != 2 {
		t.Fatalf("capture lists %d valid slots, want 2", len(base.Valid))
	}
	dst := cache.New(cc)
	defer dst.Release()
	for l := cache.LineAddr(5); l < 12; l++ {
		dst.Insert(l, cache.Modified, line(byte(l)))
	}
	if err := dst.Restore(base); err != nil {
		t.Fatal(err)
	}
	if got := dst.Capture(); !reflect.DeepEqual(got, base) {
		t.Fatalf("restore over a used cache:\n got  %+v\n want %+v", got, base)
	}

	for name, edit := range map[string]func(*checkpoint.CacheState){
		"out of range": func(s *checkpoint.CacheState) { s.Valid[1].Index = s.Slots + 5 },
		"out of order": func(s *checkpoint.CacheState) { s.Valid[0], s.Valid[1] = s.Valid[1], s.Valid[0] },
		"duplicate":    func(s *checkpoint.CacheState) { s.Valid[1].Index = s.Valid[0].Index },
		"invalid":      func(s *checkpoint.CacheState) { s.Valid[0].State = uint8(cache.Invalid) },
		"short data":   func(s *checkpoint.CacheState) { s.Data = s.Data[:64] },
		"geometry":     func(s *checkpoint.CacheState) { s.Slots *= 2 },
	} {
		cs := *base
		cs.Valid = append([]checkpoint.CacheSlot(nil), base.Valid...)
		edit(&cs)
		ps := &checkpoint.ProcState{Version: checkpoint.Version, Tiles: []checkpoint.TileState{{L2: &cs}}}
		got, err := checkpoint.DecodeProcState(checkpoint.EncodeProcState(ps))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := dst.Restore(got.Tiles[0].L2); err == nil {
			t.Errorf("%s: restore accepted %+v", name, got.Tiles[0].L2.Valid)
		}
		if after := dst.Capture(); !reflect.DeepEqual(after, base) {
			t.Errorf("%s: failed restore changed the cache", name)
		}
	}
}

// FuzzDecodeProcState feeds arbitrary bytes to the decoder: it must not
// panic, must not allocate more than a bound proportional to the input,
// and every input it accepts must be the canonical encoding of what it
// decoded to.
func FuzzDecodeProcState(f *testing.F) {
	dir, m := realCapture(f)
	real, err := os.ReadFile(filepath.Join(dir, m.Procs[0].File))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(append(bytes.Clone(real), 0))
	f.Add([]byte(`{"version":1,"proc":0,"tiles":[]}`))
	f.Add(checkpoint.EncodeProcState(&checkpoint.ProcState{Version: checkpoint.Version}))
	f.Fuzz(func(t *testing.T, b []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ps, err := checkpoint.DecodeProcState(b)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(32*len(b))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(b), alloc)
		}
		if err != nil {
			return
		}
		if again := checkpoint.EncodeProcState(ps); !bytes.Equal(again, b) {
			t.Fatalf("accepted a non-canonical encoding (%d bytes, canonical %d)", len(b), len(again))
		}
	})
}

// FuzzManifest feeds arbitrary bytes to the manifest decoder, seeded
// with a real capture's manifest: it must not panic, and a manifest it
// accepts must survive a rewrite — its encoding decodes again, encodes to
// the same bytes, and keeps its replay-verification digests.
func FuzzManifest(f *testing.F) {
	dir, m := realCapture(f)
	real, err := os.ReadFile(filepath.Join(dir, checkpoint.ManifestFileName(m.Epoch)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add(real[:len(real)/2])
	f.Add(bytes.Replace(real, []byte(`"version": 1`), []byte(`"version": 2`), 1))
	f.Add([]byte(`{"version":1,"procs":[],"mcp":{}}`))
	f.Add([]byte(`{"version":1,"Procs":[{"proc":-1,"file":"../x"}],"mcp":null}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := checkpoint.DecodeManifest(b)
		if err != nil {
			return
		}
		enc, err := checkpoint.EncodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest does not encode: %v", err)
		}
		again, err := checkpoint.DecodeManifest(enc)
		if err != nil {
			t.Fatalf("re-encoded manifest refused: %v\n%s", err, enc)
		}
		if enc2, err := checkpoint.EncodeManifest(again); err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("re-encoding is not stable (%v):\n%s\n%s", err, enc, enc2)
		}
		if !reflect.DeepEqual(again.VerifyDigests(), m.VerifyDigests()) {
			t.Fatal("rewrite changed the manifest's verification digests")
		}
	})
}
