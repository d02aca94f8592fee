// Package dispatch is the sweep engine's network driver: a coordinator
// serves the pending runs of a scenario.Sweep over TCP, and workers (the
// same graphite-sweep binary, started with -worker) pull specs, execute
// them with scenario.Execute, and stream Records back. This is the
// evaluation-plane analogue of the paper's core idea — one logical job
// spread transparently across hosts — applied to the design-space sweeps
// of §4 instead of a single simulation.
//
// Wire format: length-prefixed JSON frames (a uint32 little-endian
// payload length followed by one JSON message), matching the framing
// conventions of internal/transport's TCP fabric. The conversation is
// strictly request/response per connection, one spec in flight at a
// time; a worker that wants N concurrent runs opens N connections.
//
//	worker → coordinator   {"type":"hello","proto":1}
//	coordinator → worker   {"type":"welcome","proto":1,"serial":…}
//	coordinator → worker   {"type":"spec","verify":…,"spec":{…}}
//	worker → coordinator   {"type":"record","record":{…}}
//	…                      (spec/record repeats)
//	coordinator → worker   {"type":"done"}
//
// Fault tolerance: the coordinator tracks the single in-flight spec of
// every connection and fails it back to the sweep the moment the
// connection errors, so killing a worker mid-sweep loses no runs. Output
// determinism is the Sweep's: it re-stamps each record's spec-identity
// fields from its own expansion and orders the output by run index, so
// the JSONL is byte-identical to a locally executed sweep's up to
// wall_sec (see DESIGN.md §10).
package dispatch

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/scenario"
)

// protoVersion is bumped on incompatible message-format changes; the
// hello/welcome exchange rejects mismatched peers loudly instead of
// letting them mis-decode each other's frames.
const protoVersion = 1

// maxFrame bounds one protocol frame. Specs are small; records can carry
// per-tile stats for large targets, hence the generous cap.
const maxFrame = 64 << 20

// Message types.
const (
	msgHello   = "hello"
	msgWelcome = "welcome"
	msgSpec    = "spec"
	msgRecord  = "record"
	msgDone    = "done"
)

// message is the single envelope of every frame in either direction.
//
//graphite:wire
type message struct {
	Type  string `json:"type"`
	Proto int    `json:"proto,omitempty"`
	// Primary (hello) marks a worker process's first connection. The
	// coordinator's WorkersExpected gate counts primaries, so it means
	// "N worker processes" regardless of each worker's -parallel fan-out
	// (which a serial sweep clamps to one connection anyway).
	Primary bool `json:"primary,omitempty"`
	// Serial (welcome) tells the worker the scenario requires one run at
	// a time per host process (scenario.NeedsSerial).
	Serial bool `json:"serial,omitempty"`
	// Verify (spec) asks the worker to fill Record.ChecksumOK against the
	// native kernel.
	Verify bool              `json:"verify,omitempty"`
	Spec   *scenario.RunSpec `json:"spec,omitempty"`
	Record *scenario.Record  `json:"record,omitempty"`
}

// writeMsg sends one frame. Header and payload go out as a single Write
// so a frame is never interleaved with another from the same goroutine's
// point of view.
func writeMsg(conn io.Writer, m *message) error {
	payload, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("dispatch: encode %s: %w", m.Type, err)
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("dispatch: %s frame of %d bytes exceeds limit", m.Type, len(payload))
	}
	buf := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	copy(buf[4:], payload)
	_, err = conn.Write(buf)
	return err
}

// readMsg reads one frame. The payload's buffer grows as its bytes
// arrive: a header alone, from a peer not yet known to speak the
// protocol, costs no more than the bytes that follow it.
func readMsg(r *bufio.Reader) (*message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("dispatch: frame of %d bytes exceeds limit", n)
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, err
	}
	if len(payload) < int(n) {
		return nil, io.ErrUnexpectedEOF
	}
	var m message
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("dispatch: decode frame: %w", err)
	}
	return &m, nil
}
