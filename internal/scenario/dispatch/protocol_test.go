package dispatch

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/scenario"
)

// TestReadMsgHeaderAloneAllocatesLittle: a frame header that claims the
// largest payload, followed by end of stream, is an error, and reading
// it allocates what arrived, not what the header claimed. The
// coordinator reads such a header from every connection before it knows
// the peer speaks the protocol.
func TestReadMsgHeaderAloneAllocatesLittle(t *testing.T) {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], maxFrame)
	r := bufio.NewReader(bytes.NewReader(hdr[:]))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := readMsg(r)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatalf("readMsg of a bare %d-byte header = %+v, want an error", maxFrame, m)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("readMsg of a bare %d-byte header allocated %d bytes, want < 1 MiB", maxFrame, got)
	}
}

// frame encodes m as writeMsg sends it.
func frame(tb testing.TB, m *message) []byte {
	tb.Helper()
	var b bytes.Buffer
	if err := writeMsg(&b, m); err != nil {
		tb.Fatal(err)
	}
	return b.Bytes()
}

// FuzzDispatchFrame checks the frame decoder on bytes a peer sends:
// readMsg never panics, and a frame it accepts round-trips — written
// back by writeMsg and read again, it writes the same bytes. The seeds
// are the conversation's frames: hello, welcome, a spec and the record
// a worker returns for it, and done.
func FuzzDispatchFrame(f *testing.F) {
	_, specs := loadTestScenario(f)
	rec := scenario.Execute(&specs[0])
	for _, m := range []*message{
		{Type: msgHello, Proto: protoVersion, Primary: true},
		{Type: msgWelcome, Proto: protoVersion, Serial: true},
		{Type: msgSpec, Verify: true, Spec: &specs[0]},
		{Type: msgRecord, Record: &rec},
		{Type: msgDone},
	} {
		f.Add(frame(f, m))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := readMsg(bufio.NewReader(bytes.NewReader(b)))
		if err != nil {
			return
		}
		once := frame(t, m)
		m2, err := readMsg(bufio.NewReader(bytes.NewReader(once)))
		if err != nil {
			t.Fatalf("frame %q, written back as %q, does not read: %v", b, once, err)
		}
		if twice := frame(t, m2); !bytes.Equal(twice, once) {
			t.Fatalf("frame %q writes back as %q, then as %q", b, once, twice)
		}
	})
}
