// Package experiments regenerates every table and figure of the paper's
// evaluation (§4): host-core scaling (Figure 4), simulation slowdown
// versus native (Table 2), large-target scaling (Figure 5), the
// synchronization-model comparison (Figure 6 / Table 3), clock skew
// (Figure 7), the cache miss-rate characterization (Figure 8), and the
// cache-coherence study (Figure 9).
//
// Each experiment builds a scenario.Scenario, runs its expansion on the
// sweep engine (scenario.Run; Figure 7, whose skew samples live in
// core.RunStats rather than in a Record, executes each expanded spec
// with scenario.ExecuteStats), derives structured results from the
// records, and prints the same rows the paper reports. Absolute numbers
// differ from the paper's (the substrate is a simulator on a small host,
// not an 8-core Xeon cluster); the shapes — who wins, by what factor,
// where curves bend — are the reproduction target.
package experiments

import (
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/config"
	"repro/internal/workloads"
)

// Preset scales an experiment's problem sizes.
type Preset int

const (
	// Quick finishes in seconds; used by unit tests and CI.
	Quick Preset = iota
	// Standard is the default for cmd/graphite-sweep.
	Standard
	// Full approaches the paper's sizes where host memory permits.
	Full
)

// String returns the flag/scenario spelling of the preset.
func (p Preset) String() string {
	switch p {
	case Quick:
		return "quick"
	case Standard:
		return "standard"
	default:
		return "full"
	}
}

// ParsePreset converts a flag value.
func ParsePreset(s string) (Preset, error) {
	switch s {
	case "quick":
		return Quick, nil
	case "standard":
		return Standard, nil
	case "full":
		return Full, nil
	default:
		return Quick, fmt.Errorf("unknown preset %q (quick|standard|full)", s)
	}
}

// anys converts an axis's values to the []any a scenario.Axis holds.
func anys[T any](xs []T) []any {
	out := make([]any, len(xs))
	for i, x := range xs {
		out[i] = x
	}
	return out
}

// syncModels are the three synchronization models Figures 6 and 7 and
// Table 3 compare, in the paper's order.
var syncModels = []config.SyncModel{config.Lax, config.LaxP2P, config.LaxBarrier}

// nativeTime measures the wall-clock time of the native variant, repeated
// until at least minDuration has elapsed to get a stable measurement.
//
//graphite:wallclock benchmarks the native baseline of Table 2; wall time is the measurement itself, not simulated state
func nativeTime(name string, p workloads.Params) time.Duration {
	w, _ := workloads.Get(name)
	const minDuration = 20 * time.Millisecond
	reps := 0
	start := time.Now()
	for time.Since(start) < minDuration {
		w.Native(p)
		reps++
	}
	return time.Since(start) / time.Duration(reps)
}

// mean and stddev over float64 slices.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
