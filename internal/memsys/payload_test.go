package memsys

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/network"
)

// dispatchPanic shuts c down, hands pkt straight to tile's dispatch, and
// returns what dispatch panicked with ("" if it returned).
func dispatchPanic(c *cluster, tile int, pkt network.Packet) (msg string) {
	c.close()
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	pkt.Class, pkt.Dst = network.ClassMemory, arch.TileID(tile)
	c.nodes[tile].dispatch(pkt)
	return ""
}

// wantRefused fails unless dispatch refused the payload under its
// malformed-payload policy: a panic that names memsys, not a runtime
// fault and not silence.
func wantRefused(t *testing.T, msg string) {
	t.Helper()
	if !strings.HasPrefix(msg, "memsys: ") {
		t.Fatalf("dispatch did not refuse the payload (panic %q)", msg)
	}
}

// Line 64 is homed at tile 0 of two.
const payloadLine = 64 * 64

func TestPeekPastLineEndRefused(t *testing.T) {
	c := newCluster(t, testConfig(2))
	c.nodes[1].Poke(payloadLine, []byte{1, 2, 3}) // the line is stored
	peek := encodePeek(nil, peekPayload{addr: payloadLine + 8, n: 64})
	wantRefused(t, dispatchPanic(c, 0, network.Packet{Type: msgPeek, Src: 1, Seq: 1, Payload: peek}))
}

// A Peek's length is refused before anything is sized by it.
func TestPeekHugeLengthRefused(t *testing.T) {
	c := newCluster(t, testConfig(2))
	peek := encodePeek(nil, peekPayload{addr: payloadLine, n: 1 << 20})
	wantRefused(t, dispatchPanic(c, 0, network.Packet{Type: msgPeek, Src: 1, Seq: 1, Payload: peek}))
}

func TestPokePastLineEndRefused(t *testing.T) {
	c := newCluster(t, testConfig(2))
	poke := encodePeek(nil, peekPayload{addr: payloadLine + 60, n: 8, data: make([]byte, 8)})
	wantRefused(t, dispatchPanic(c, 0, network.Packet{Type: msgPoke, Src: 1, Seq: 1, Payload: poke}))
}

// A data-bearing reply or writeback must carry a whole line, or the home
// would grant bytes left over from an earlier grant.
func TestShortLineDataRefused(t *testing.T) {
	for _, typ := range []uint8{msgInvRep, msgWbRep, msgFlushRep, msgEvictM} {
		t.Run(msgName(typ), func(t *testing.T) {
			c := newCluster(t, testConfig(2))
			pay := encodeData(nil, dataPayload{line: 64, writer: 1, flags: flagHasData, data: make([]byte, 8)})
			wantRefused(t, dispatchPanic(c, 0, network.Packet{Type: typ, Src: 1, Seq: 1, Payload: pay}))
		})
	}
}

// FuzzMemsysPayload checks the four payload decoders: decoding never
// panics, and a payload one accepts re-encodes to the same bytes. The
// seeds are payloads the protocol sends.
func FuzzMemsysPayload(f *testing.F) {
	line := bytes.Repeat([]byte{0xAB}, 64)
	f.Add(uint8(0), encodeReq(nil, reqPayload{line: 0x7C0, mask: 1, flags: flagUpgrade}))
	f.Add(uint8(1), encodeData(nil, dataPayload{line: 0x7C0, mask: 0xF0, writer: 3, flags: flagHasData, data: line}))
	f.Add(uint8(1), encodeData(nil, dataPayload{line: 0x7C0, writer: 3, flags: flagNotPresent}))
	f.Add(uint8(2), encodeLine(nil, 0x7C0))
	f.Add(uint8(3), encodePeek(nil, peekPayload{addr: 0x1F008, n: 8, data: line[:8]}))
	f.Fuzz(func(t *testing.T, kind uint8, b []byte) {
		var out []byte
		switch kind % 4 {
		case 0:
			p, err := decodeReq(b)
			if err != nil {
				return
			}
			out = encodeReq(nil, p)
		case 1:
			p, err := decodeData(b)
			if err != nil {
				return
			}
			out = encodeData(nil, p)
		case 2:
			l, err := decodeLine(b)
			if err != nil {
				return
			}
			out = encodeLine(nil, l)
		case 3:
			p, err := decodePeek(b)
			if err != nil {
				return
			}
			out = encodePeek(nil, p)
		}
		if !bytes.Equal(out, b) {
			t.Fatalf("payload kind %d: %x re-encodes as %x", kind%4, b, out)
		}
	})
}
