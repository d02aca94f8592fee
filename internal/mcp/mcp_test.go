package mcp

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/simtest"
	"repro/internal/wire"
)

func TestAllocatorBasic(t *testing.T) {
	a := NewAllocator(0x1000, 0x10000)
	p1, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != 0x1000 {
		t.Fatalf("first alloc at %#x", uint64(p1))
	}
	if p1%allocAlign != 0 {
		t.Fatal("unaligned allocation")
	}
	p2, _ := a.Alloc(1)
	if p2 < p1+128 { // 100 rounds to 128
		t.Fatalf("second alloc %#x overlaps first", uint64(p2))
	}
	if a.InUse() != 128+64 {
		t.Fatalf("InUse = %d", a.InUse())
	}
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p1); err == nil {
		t.Fatal("double free accepted")
	}
	if err := a.Free(0xDEAD); err == nil {
		t.Fatal("bogus free accepted")
	}
}

func TestAllocatorReusesFreedSpace(t *testing.T) {
	a := NewAllocator(0, 1024)
	p1, _ := a.Alloc(512)
	if _, err := a.Alloc(512); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(64); err == nil {
		t.Fatal("alloc beyond capacity succeeded")
	}
	a.Free(p1)
	p3, err := a.Alloc(512)
	if err != nil {
		t.Fatal(err)
	}
	if p3 != p1 {
		t.Fatalf("freed space not reused: %#x vs %#x", uint64(p3), uint64(p1))
	}
}

func TestAllocatorCoalesces(t *testing.T) {
	a := NewAllocator(0, 1024)
	p1, _ := a.Alloc(256)
	p2, _ := a.Alloc(256)
	p3, _ := a.Alloc(256)
	a.Free(p2)
	a.Free(p1)
	a.Free(p3)
	if a.freeSpans() != 1 {
		t.Fatalf("free list fragmented into %d spans after full free", a.freeSpans())
	}
	if _, err := a.Alloc(1024); err != nil {
		t.Fatalf("coalesced heap cannot satisfy full-size alloc: %v", err)
	}
}

func TestAllocatorPeak(t *testing.T) {
	a := NewAllocator(0, 4096)
	p1, _ := a.Alloc(1024)
	a.Alloc(1024)
	a.Free(p1)
	if a.Peak() != 2048 {
		t.Fatalf("peak = %d", a.Peak())
	}
	if a.InUse() != 1024 {
		t.Fatalf("inUse = %d", a.InUse())
	}
}

func TestAllocatorNeverOverlapsQuick(t *testing.T) {
	f := func(sizes []uint16) bool {
		a := NewAllocator(0, 1<<20)
		type block struct{ base, size arch.Addr }
		var blocks []block
		for _, s := range sizes {
			sz := arch.Addr(s%2048) + 1
			p, err := a.Alloc(sz)
			if err != nil {
				continue
			}
			for _, b := range blocks {
				if p < b.base+b.size && b.base < p+sz {
					return false
				}
			}
			blocks = append(blocks, block{p, sz})
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMsgCodecs(t *testing.T) {
	sr, err := DecodeSpawnReq(EncodeSpawnReq(SpawnReq{Func: 7, Arg: 0xDEADBEEF}))
	if err != nil || sr.Func != 7 || sr.Arg != 0xDEADBEEF {
		t.Fatalf("spawn codec: %+v %v", sr, err)
	}
	want := StartThread{Tile: 5, Func: 2, Arg: 9, Parent: 3, Seq: 1 << 40}
	if st, err := DecodeStartThread(EncodeStartThread(want)); err != nil || st != want {
		t.Fatalf("start codec: %+v %v", st, err)
	}
	v, err := DecodeU64(EncodeU64(42))
	if err != nil || v != 42 {
		t.Fatal("u64 codec")
	}
	x, y, err := DecodeU64Pair(EncodeU64Pair(1, 2))
	if err != nil || x != 1 || y != 2 {
		t.Fatal("pair codec")
	}
	if _, err := DecodeSpawnReq(nil); err == nil {
		t.Fatal("decoded nil spawn")
	}
	if _, err := DecodeU64([]byte{1}); err == nil {
		t.Fatal("decoded short u64")
	}
	if _, _, err := DecodeU64Pair([]byte{1}); err == nil {
		t.Fatal("decoded short pair")
	}
	if _, err := DecodeStartThread([]byte{1}); err == nil {
		t.Fatal("decoded short start")
	}
	for _, res := range []CkptSaveResult{
		{Proc: 3, File: "ckpt-e00000064-p003.state", FileSum: "ab12", StateDigest: "ab12"},
		{Proc: -1, Err: "disk full"},
		{},
	} {
		b := wire.Encode(res.Walk)
		var got CkptSaveResult
		if err := wire.Decode(b, got.Walk); err != nil || got != res {
			t.Fatalf("ckpt save codec: %+v -> %+v, %v", res, got, err)
		}
		if err := wire.Decode(b[:len(b)-1], new(CkptSaveResult).Walk); err == nil {
			t.Fatalf("decoded short ckpt save reply %+v", res)
		}
		if err := wire.Decode(append(b, 0), new(CkptSaveResult).Walk); err == nil {
			t.Fatalf("decoded oversized ckpt save reply %+v", res)
		}
	}
	for m := uint8(0); m <= MsgFlushRep; m++ {
		if msgName(m) == "" {
			t.Fatal("empty message name")
		}
	}
}

// payload is a variable-length control payload: its layout is its walk.
type payload interface{ Walk(*wire.Codec) }

// payloadKinds builds an empty value of every payload kind.
var payloadKinds = []func() payload{
	func() payload { return &CkptProbeRep{} },
	func() payload { return &CkptSaveResult{} },
	func() payload { return &statsRep{} },
}

// TestPayloadsRoundTrip fills every field of every payload kind, encodes
// and decodes it, and requires it back unchanged: a field added without
// teaching its walk comes back zero.
func TestPayloadsRoundTrip(t *testing.T) {
	for _, kind := range payloadKinds {
		in := kind()
		simtest.Fill(t, in)
		b := wire.Encode(in.Walk)
		out := kind()
		if err := wire.Decode(b, out.Walk); err != nil {
			t.Fatalf("%T: %v", in, err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("%T round trip:\n got  %+v\n want %+v", in, out, in)
		}
	}
}

// FuzzControlPayload feeds arbitrary bytes to the payload decoders, the
// first byte picking the kind: a decoder must not panic, must not
// allocate more than a bound proportional to its input, and every input
// it accepts must be the encoding of what it decoded to.
func FuzzControlPayload(f *testing.F) {
	for k, kind := range payloadKinds {
		filled := kind()
		simtest.Fill(f, filled)
		f.Add(append([]byte{byte(k)}, wire.Encode(filled.Walk)...))
		f.Add(append([]byte{byte(k)}, wire.Encode(kind().Walk)...))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		p := payloadKinds[int(b[0])%len(payloadKinds)]()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := wire.Decode(b[1:], p.Walk)
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(32*len(b))+1<<20 {
			t.Fatalf("decoding %d bytes allocated %d", len(b), alloc)
		}
		if err != nil {
			return
		}
		if again := wire.Encode(p.Walk); !bytes.Equal(again, b[1:]) {
			t.Fatalf("%T accepted a non-canonical encoding (%d bytes, canonical %d)", p, len(b)-1, len(again))
		}
	})
}

// simEntry is one 12-byte batch entry, encoded as a ledger would.
func simEntry(tile int32, epoch int64) []byte {
	return EncodeSimBatch([]SimWait{{Tile: arch.TileID(tile), Epoch: epoch}})
}

// FuzzSimBatch feeds arbitrary bytes and tile counts to the LaxBarrier
// batch decoder: it must not panic, every input it accepts must re-encode
// byte for byte, and it must refuse any entry whose tile is outside
// [0, tiles) or whose epoch is below -1.
func FuzzSimBatch(f *testing.F) {
	f.Add(EncodeSimBatch([]SimWait{{Tile: 0, Epoch: 1}, {Tile: 3, Epoch: -1}}), uint16(4))
	f.Add(simEntry(4, 1), uint16(4))
	f.Add(simEntry(-1, 1), uint16(4))
	f.Add(simEntry(0, -2), uint16(4))
	f.Add([]byte{1, 2, 3}, uint16(1))
	f.Fuzz(func(t *testing.T, b []byte, tiles uint16) {
		waits, err := AppendSimBatch(nil, b, int(tiles))
		bad := len(b) == 0 || len(b)%12 != 0
		for i := 0; !bad && i < len(b)/12; i++ {
			tile := int32(binary.LittleEndian.Uint32(b[i*12:]))
			epoch := int64(binary.LittleEndian.Uint64(b[i*12+4:]))
			bad = tile < 0 || tile >= int32(tiles) || epoch < -1
		}
		if bad != (err != nil) {
			t.Fatalf("%d bytes for %d tiles: error %v, want one: %v", len(b), tiles, err, bad)
		}
		if err == nil && !bytes.Equal(EncodeSimBatch(waits), b) {
			t.Fatalf("accepted batch re-encodes differently")
		}
	})
}
