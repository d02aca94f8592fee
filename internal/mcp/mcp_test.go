package mcp

import (
	"bytes"
	"io"
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

func TestFSOpenReadWrite(t *testing.T) {
	fs := NewFS()
	rep := fs.Handle(FileReq{Op: FileOpen, Path: "/out.dat", Flags: OCreate})
	if rep.Err != "" {
		t.Fatal(rep.Err)
	}
	fd := rep.FD
	if fd < 3 {
		t.Fatalf("fd = %d", fd)
	}
	rep = fs.Handle(FileReq{Op: FileWrite, FD: fd, Data: []byte("hello ")})
	if rep.Err != "" || rep.N != 6 {
		t.Fatalf("write: %+v", rep)
	}
	fs.Handle(FileReq{Op: FileWrite, FD: fd, Data: []byte("world")})
	// Seek to start and read back.
	rep = fs.Handle(FileReq{Op: FileSeek, FD: fd, Off: 0, Whence: io.SeekStart})
	if rep.Err != "" || rep.N != 0 {
		t.Fatalf("seek: %+v", rep)
	}
	rep = fs.Handle(FileReq{Op: FileRead, FD: fd, N: 100})
	if rep.Err != "" || string(rep.Data) != "hello world" {
		t.Fatalf("read: %q %s", rep.Data, rep.Err)
	}
	// EOF.
	rep = fs.Handle(FileReq{Op: FileRead, FD: fd, N: 10})
	if rep.Err != "" || rep.N != 0 {
		t.Fatalf("EOF read: %+v", rep)
	}
	if rep := fs.Handle(FileReq{Op: FileStat, FD: fd}); rep.N != 11 {
		t.Fatalf("stat: %+v", rep)
	}
	if rep := fs.Handle(FileReq{Op: FileClose, FD: fd}); rep.Err != "" {
		t.Fatal(rep.Err)
	}
	if fs.openFDs() != 0 {
		t.Fatal("fd leaked")
	}
}

func TestFSDescriptorSharingAcrossThreads(t *testing.T) {
	// The consistency property of paper §3.4: one thread writes through an
	// fd, another thread (possibly in another host process) reads through
	// a second fd on the same path.
	fs := NewFS()
	w := fs.Handle(FileReq{Op: FileOpen, Path: "/shared", Flags: OCreate})
	fs.Handle(FileReq{Op: FileWrite, FD: w.FD, Data: []byte("xyz")})
	r := fs.Handle(FileReq{Op: FileOpen, Path: "/shared"})
	rep := fs.Handle(FileReq{Op: FileRead, FD: r.FD, N: 3})
	if string(rep.Data) != "xyz" {
		t.Fatalf("cross-fd read = %q", rep.Data)
	}
	// And the very same fd value works from "another thread" (same table).
	rep = fs.Handle(FileReq{Op: FileSeek, FD: w.FD, Off: 0, Whence: io.SeekStart})
	if rep.Err != "" {
		t.Fatal(rep.Err)
	}
	rep = fs.Handle(FileReq{Op: FileRead, FD: w.FD, N: 3})
	if string(rep.Data) != "xyz" {
		t.Fatalf("same-fd read = %q", rep.Data)
	}
}

func TestFSErrors(t *testing.T) {
	fs := NewFS()
	if rep := fs.Handle(FileReq{Op: FileOpen, Path: "/missing"}); rep.Err == "" {
		t.Fatal("open of missing file without O_CREATE succeeded")
	}
	if rep := fs.Handle(FileReq{Op: FileRead, FD: 99, N: 1}); rep.Err == "" {
		t.Fatal("read on bad fd succeeded")
	}
	if rep := fs.Handle(FileReq{Op: FileWrite, FD: 99}); rep.Err == "" {
		t.Fatal("write on bad fd succeeded")
	}
	if rep := fs.Handle(FileReq{Op: FileUnlink, Path: "/missing"}); rep.Err == "" {
		t.Fatal("unlink of missing file succeeded")
	}
	if rep := fs.Handle(FileReq{Op: 200}); rep.Err == "" {
		t.Fatal("unknown op succeeded")
	}
}

func TestFSTruncAndAppend(t *testing.T) {
	fs := NewFS()
	a := fs.Handle(FileReq{Op: FileOpen, Path: "/f", Flags: OCreate})
	fs.Handle(FileReq{Op: FileWrite, FD: a.FD, Data: []byte("0123456789")})
	b := fs.Handle(FileReq{Op: FileOpen, Path: "/f", Flags: OTrunc})
	if rep := fs.Handle(FileReq{Op: FileStat, FD: b.FD}); rep.N != 0 {
		t.Fatalf("O_TRUNC left %d bytes", rep.N)
	}
	fs.Handle(FileReq{Op: FileWrite, FD: b.FD, Data: []byte("ab")})
	c := fs.Handle(FileReq{Op: FileOpen, Path: "/f", Flags: OAppend})
	fs.Handle(FileReq{Op: FileWrite, FD: c.FD, Data: []byte("cd")})
	r := fs.Handle(FileReq{Op: FileOpen, Path: "/f"})
	rep := fs.Handle(FileReq{Op: FileRead, FD: r.FD, N: 10})
	if string(rep.Data) != "abcd" {
		t.Fatalf("append result = %q", rep.Data)
	}
}

func TestMsgCodecs(t *testing.T) {
	sr, err := DecodeSpawnReq(EncodeSpawnReq(SpawnReq{Func: 7, Arg: 0xDEADBEEF}))
	if err != nil || sr.Func != 7 || sr.Arg != 0xDEADBEEF {
		t.Fatalf("spawn codec: %+v %v", sr, err)
	}
	st, err := DecodeStartThread(EncodeStartThread(StartThread{Tile: 5, Func: 2, Arg: 9}))
	if err != nil || st.Tile != 5 || st.Func != 2 || st.Arg != 9 {
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
	func() payload { return &FileReq{} },
	func() payload { return &FileRep{} },
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
