// Package memsys implements the memory subsystem of a Graphite tile
// (paper §3.2): the private L1 instruction/data caches and private L2, the
// distributed directory (one home per tile, lines striped across homes),
// the per-tile DRAM controller, and the directory-based MSI coherence
// protocol that ties them together over the memory network.
//
// Following the paper, the functional and modeled roles are unified: cache
// lines and DRAM backing stores carry the application's real data, and
// every load or store is served through the protocol. A simulation that
// completes with correct program output therefore validates the protocol.
//
// Concurrency model. Each tile runs one memory server goroutine (Serve)
// that processes all memory-class packets addressed to the tile — its
// home/directory role, coherence commands against its caches, and replies
// completing its core's outstanding miss. The tile's core context issues
// at most one outstanding request at a time (one app thread per tile).
//
// The caches are a single-writer domain guarded by a biased ownership
// word (Node.coreState), not a mutex: the core context claims the word
// with one CAS per access and releases it with another, and the hot path
// — an L1/L2 hit — runs with zero locks between those two operations.
// Home-initiated interventions (Inv/Wb/Flush) never touch the caches from
// the server goroutine while the core holds the word: they are published
// through an intervention mailbox plus a pending bit that the core's
// release observes and drains. When the word is free — the tile's thread
// is blocked on its own miss, in a control-plane RPC, computing natively,
// or long exited — the server claims the word itself and applies the
// intervention on the spot, so a quiet tile can never stall the protocol.
// Miss completions transfer ownership back: the server matches the reply,
// re-marks the word owned, and the woken core installs the line itself.
// The full ownership and ordering argument lives in DESIGN.md §13.
//
// A tile's home — its directory and DRAM controller — is one unit under
// one mutex, taken by the server per home message and by the core only in
// the local-home shortcuts. The server's outgoing messages are batched
// per destination and flushed before the server blocks or wakes its core,
// which preserves the per-sender-FIFO orderings the protocol relies on
// (see the race analysis in DESIGN.md).
package memsys

import (
	"encoding/binary"
	"fmt"

	"repro/internal/arch"
)

// Memory protocol message types (network.Packet.Type within ClassMemory).
const (
	// Requester -> home.
	msgShReq  uint8 = iota // read miss: request Shared copy
	msgExReq               // write miss or upgrade: request Modified
	msgEvictS              // notify eviction of a Shared line
	msgEvictM              // writeback eviction of a Modified line
	msgPeek                // functional read (pre-run/post-flush only)
	msgPoke                // functional write (pre-run/post-flush only)

	// Home -> cache controller.
	msgInvReq   // invalidate a Shared copy
	msgWbReq    // downgrade Modified to Shared, send data home
	msgFlushReq // invalidate Modified copy, send data home

	// Cache controller -> home.
	msgInvRep
	msgWbRep
	msgFlushRep

	// Home -> requester.
	msgShRep
	msgExRep
	msgUpgRep // exclusive grant without data (requester kept its S copy)

	// Home -> evicting tile / peeker.
	msgEvictAck
	msgPeekRep
	msgPokeAck

	// Control plane -> server: run the queued control functions (see
	// EnqueueCtrl in snapshot.go). Sent from a control endpoint, never
	// tile-to-tile, so it cannot perturb selfInflight accounting.
	msgCkpt
)

func msgName(t uint8) string {
	names := []string{"ShReq", "ExReq", "EvictS", "EvictM", "Peek", "Poke",
		"InvReq", "WbReq", "FlushReq", "InvRep", "WbRep", "FlushRep",
		"ShRep", "ExRep", "UpgRep", "EvictAck", "PeekRep", "PokeAck", "Ckpt"}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("msg(%d)", t)
}

// Payload flag bits.
const (
	flagUpgrade    uint8 = 1 << 0 // ExReq: requester holds a Shared copy
	flagNotPresent uint8 = 1 << 1 // replies: line was not present
	flagHasData    uint8 = 1 << 2 // replies: payload carries line data
	flagIFetch     uint8 = 1 << 3 // ShReq: instruction fetch (fills L1I)
)

// reqPayload is the body of ShReq/ExReq: line, access word-mask, flags.
type reqPayload struct {
	line  uint64
	mask  uint64
	flags uint8
}

// Encoded payload sizes, used by the local-home shortcut to charge the
// exact wire timing a loopback message would have had.
const (
	reqPayloadLen  = 17 // encodeReq
	dataPayloadLen = 21 // encodeData, excluding line data
	linePayloadLen = 8  // encodeLine
)

// ensureLen returns a length-n slice, reusing scratch's storage when it is
// large enough. The encoders below take a scratch buffer because encoded
// payloads live only until the next Send, which copies them into the wire
// frame — each sending context can recycle one buffer for all its sends.
func ensureLen(scratch []byte, n int) []byte {
	if cap(scratch) < n {
		return make([]byte, n)
	}
	return scratch[:n]
}

func encodeReq(scratch []byte, p reqPayload) []byte {
	buf := ensureLen(scratch, 17)
	binary.LittleEndian.PutUint64(buf[0:8], p.line)
	binary.LittleEndian.PutUint64(buf[8:16], p.mask)
	buf[16] = p.flags
	return buf
}

func decodeReq(b []byte) (reqPayload, error) {
	if len(b) != 17 {
		return reqPayload{}, fmt.Errorf("memsys: bad request payload (%d bytes)", len(b))
	}
	return reqPayload{
		line:  binary.LittleEndian.Uint64(b[0:8]),
		mask:  binary.LittleEndian.Uint64(b[8:16]),
		flags: b[16],
	}, nil
}

// dataPayload is the body of data-bearing replies and writebacks:
// line, write/last-writer mask, writer, flags, and optionally line data.
type dataPayload struct {
	line   uint64
	mask   uint64
	writer arch.TileID
	flags  uint8
	data   []byte
}

func encodeData(scratch []byte, p dataPayload) []byte {
	buf := ensureLen(scratch, 21+len(p.data))
	binary.LittleEndian.PutUint64(buf[0:8], p.line)
	binary.LittleEndian.PutUint64(buf[8:16], p.mask)
	binary.LittleEndian.PutUint32(buf[16:20], uint32(int32(p.writer)))
	buf[20] = p.flags
	copy(buf[21:], p.data)
	return buf
}

func decodeData(b []byte) (dataPayload, error) {
	if len(b) < 21 {
		return dataPayload{}, fmt.Errorf("memsys: bad data payload (%d bytes)", len(b))
	}
	p := dataPayload{
		line:   binary.LittleEndian.Uint64(b[0:8]),
		mask:   binary.LittleEndian.Uint64(b[8:16]),
		writer: arch.TileID(int32(binary.LittleEndian.Uint32(b[16:20]))),
		flags:  b[20],
	}
	if len(b) > 21 {
		p.data = b[21:]
	}
	return p, nil
}

// ctrlPayload is the body of InvReq/WbReq/FlushReq/EvictS/EvictAck: just a
// line address.
func encodeLine(scratch []byte, line uint64) []byte {
	buf := ensureLen(scratch, 8)
	binary.LittleEndian.PutUint64(buf, line)
	return buf
}

func decodeLine(b []byte) (uint64, error) {
	if len(b) != 8 {
		return 0, fmt.Errorf("memsys: bad line payload (%d bytes)", len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

// peekPayload is the body of Peek/Poke requests and replies.
type peekPayload struct {
	addr arch.Addr
	n    uint32
	data []byte // Poke request and PeekRep carry data
}

func encodePeek(scratch []byte, p peekPayload) []byte {
	buf := ensureLen(scratch, 12+len(p.data))
	binary.LittleEndian.PutUint64(buf[0:8], uint64(p.addr))
	binary.LittleEndian.PutUint32(buf[8:12], p.n)
	copy(buf[12:], p.data)
	return buf
}

func decodePeek(b []byte) (peekPayload, error) {
	if len(b) < 12 {
		return peekPayload{}, fmt.Errorf("memsys: bad peek payload (%d bytes)", len(b))
	}
	p := peekPayload{
		addr: arch.Addr(binary.LittleEndian.Uint64(b[0:8])),
		n:    binary.LittleEndian.Uint32(b[8:12]),
	}
	if len(b) > 12 {
		p.data = b[12:]
	}
	return p, nil
}
