package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the harness into a layer's public API. The
// harness is the only recorder: nothing inside the simulator is
// instrumented, so a span's self time is "time in this layer's call that
// no nested harness call accounts for".
type span struct {
	Name   string
	Layer  string
	Start  time.Duration // since the tracer's origin
	End    time.Duration
	ID     int
	Parent int // -1 for a rep's root span
	Rep    int
}

// tracer records spans in memory; a nil *tracer records nothing, which is
// how the untraced run shares the rep code. It is used from one goroutine.
type tracer struct {
	origin time.Time
	spans  []span
	open   []int // stack of open span IDs
	rep    int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Layer: layer, Start: time.Since(t.origin), ID: id, Parent: parent, Rep: t.rep})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("benchmark: spans closed out of order")
	}
	t.spans[id].End = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
}

// nextRep starts a new rep: later spans carry the new rep number.
func (t *tracer) nextRep() {
	if t != nil {
		t.rep++
	}
}

// selfTimes returns each span's duration minus the part its children
// cover, indexed by span ID.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which chrome://tracing, Perfetto and speedscope all open.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChrome writes the spans as a trace-event file.
func writeChrome(path string, spans []span) error {
	events := make([]chromeEvent, len(spans))
	for i, s := range spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			PID: 1, TID: 1,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "rep": s.Rep},
		}
	}
	buf, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}
