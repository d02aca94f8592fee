package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"
)

// tracedSession is the traced run of one workload: reps with spans
// alternate with plain reps (their difference is the tracing overhead),
// then the layer fixtures run, and the session reports every per-layer
// metric and writes the spans as a trace-event file.
func tracedSession(spec *sessionSpec, w workload, window time.Duration, emit func(event)) error {
	tr := newTracer()
	var traced, plain []repResult
	var tracedRep []int             // the tracer's rep number of each entry of traced
	var tracedTotal []time.Duration // and the time its rep call took, set-up and checks included
	var mallocs, instr uint64
	var pauseMax time.Duration
	var peak atomic.Int64

	// The layer fixtures need most of the run; the reps get the rest.
	begin := time.Now()
	for time.Since(begin) < window*2/5 || len(traced) < 2 {
		runtime.GC() // before every rep, as in the untraced run
		stop := make(chan struct{})
		sampled := make(chan struct{})
		go func() {
			defer close(sampled)
			tick := time.NewTicker(5 * time.Millisecond)
			defer tick.Stop()
			for {
				if n := int64(runtime.NumGoroutine()); n > peak.Load() {
					peak.Store(n)
				}
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
		}()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr.nextRep()
		t0 := time.Now()
		r := w.rep("n", tr)
		total := time.Since(t0)
		runtime.ReadMemStats(&after)
		close(stop)
		<-sampled
		emit(repEvent("n", r))
		if r.err == nil {
			traced = append(traced, r)
			tracedRep = append(tracedRep, tr.rep)
			tracedTotal = append(tracedTotal, total)
			mallocs += after.Mallocs - before.Mallocs
			instr += r.instr
			for gc := before.NumGC; gc < after.NumGC; gc++ {
				if p := time.Duration(after.PauseNs[gc%uint32(len(after.PauseNs))]); p > pauseMax {
					pauseMax = p
				}
			}
		}
		runtime.GC()
		p := w.rep("n", nil)
		emit(repEvent("n", p))
		if p.err == nil {
			plain = append(plain, p)
		}
		if len(traced)+len(plain) == 0 && time.Since(begin) > window {
			return fmt.Errorf("no rep succeeded")
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)

	m, notes := layerSuite(spec, func() { emit(event{Ev: "progress", Next: "fixture"}) })
	walls := func(rs []repResult) []float64 {
		var out []float64
		for _, r := range rs {
			out = append(out, r.wall.Seconds())
		}
		return out
	}
	if len(plain) > 0 {
		m["trace_overhead_frac"] = median(walls(traced))/median(walls(plain)) - 1
	}
	_, _, m["run_wall_s_p75"] = quartiles(append(walls(traced), walls(plain)...))
	var total counts
	var runFrac, shareCore, shareHit, shareMiss, shareNet []float64
	for _, r := range traced {
		total.l2Misses += r.counts.l2Misses
		total.invalidations += r.counts.invalidations
		total.packets += r.counts.packets
		wallNS := float64(r.wall)
		runFrac = append(runFrac, float64(r.runWall)/wallNS)
		hits := float64(r.counts.loads+r.counts.stores) - float64(r.counts.l2Misses)
		shareCore = append(shareCore, float64(r.instr)*m["coremodel.instr_ns"]/wallNS)
		shareHit = append(shareHit, hits*m["memsys.local_hit_ns"]/wallNS)
		shareMiss = append(shareMiss, float64(r.counts.l2Misses)*m["memsys.remote_miss_us"]*1e3/wallNS)
		shareNet = append(shareNet, float64(r.counts.packets)*m["network.send_recv_ns"]/wallNS)
	}
	kinstr := float64(instr) / 1e3
	m["memsys.l2_misses_per_kinstr"] = float64(total.l2Misses) / kinstr
	m["memsys.invalidations_per_kinstr"] = float64(total.invalidations) / kinstr
	m["network.packets_per_kinstr"] = float64(total.packets) / kinstr
	m["runtime.allocs_per_kinstr"] = float64(mallocs) / kinstr
	m["runtime.gc_cpu_frac"] = ms.GCCPUFraction
	m["runtime.gc_pause_ms_max"] = float64(pauseMax) / float64(time.Millisecond)
	m["runtime.goroutines_peak"] = float64(peak.Load())
	m["core.run_self_frac"] = median(runFrac)
	m["share.coremodel"], m["share.memsys_hit"] = median(shareCore), median(shareHit)
	m["share.memsys_miss"], m["share.network"] = median(shareMiss), median(shareNet)

	// A rep's span self times must add up to the time the rep took: what
	// they miss is time the harness spent outside every span.
	self := selfTimes(tr.spans)
	perRep := map[int]time.Duration{}
	for _, s := range tr.spans {
		perRep[s.Rep] += self[s.ID]
	}
	for i, total := range tracedTotal {
		if sum := perRep[tracedRep[i]]; abs(float64(sum-total)) > 0.02*float64(total) {
			notes = append(notes, fmt.Sprintf("traced rep %d: span self times sum to %v, the rep took %v", tracedRep[i], sum, total))
		}
	}
	path := filepath.Join(spec.OutDir, "trace-"+spec.Workload+".json")
	if err := writeChrome(path, tr.spans); err != nil {
		return err
	}
	notes = append(notes, fmt.Sprintf("%d spans of %d traced reps written to %s", len(tr.spans), len(traced), path))
	emit(event{Ev: "layers", Metrics: m, Notes: notes})
	return nil
}
