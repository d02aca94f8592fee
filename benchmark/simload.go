package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/core"
	"repro/internal/recordcache"
	"repro/internal/scenario"
	"repro/internal/workloads"
)

// simScenario returns the one-run scenario of a simulation workload. The
// shapes are fixed; the seed is the scenario's reproducibility base, the
// only input the simulator takes from it (it becomes Config.RandSeed and
// part of the record-cache key).
func simScenario(name string, seed int64, smoke bool) *scenario.Scenario {
	sc := &scenario.Scenario{Name: name, Seed: seed, Grids: []scenario.Grid{{}}}
	switch name {
	case "hit-local":
		sc.Preset, sc.Workload, sc.Threads, sc.Scale = "default", "matmul", 4, 128
		sc.Base = map[string]any{"Tiles": 4}
		if smoke {
			sc.Scale = 16
		}
	case "share-chan":
		sc.Preset, sc.Workload, sc.Scale = "small-cache", "radix", 14
		sc.Base = map[string]any{"Tiles": 32, "Processes": 2, "MemNet.Kind": "mesh_contention", "Coherence.Kind": "full_map"}
		if smoke {
			sc.Scale, sc.Base["Tiles"] = 8, 8
		}
	case "dist-tcp":
		sc.Preset, sc.Workload, sc.Scale, sc.Processes = "small-cache", "radix", 13, 2
		sc.Base = map[string]any{"Tiles": 16, "Sync.Model": "lax_barrier", "Sync.BarrierQuantum": 1000}
		// Dir empty: a per-run temporary directory, removed after the run,
		// as a run that checkpoints only to survive a lost worker has it.
		sc.Checkpoint = &scenario.CheckpointPolicy{Every: 64}
		if smoke {
			sc.Scale, sc.Base["Tiles"], sc.Checkpoint.Every = 8, 4, 8
		}
	case "tile-1024":
		sc.Preset, sc.Workload, sc.Scale = "large-target", "matmul", 64
		sc.Base = map[string]any{"Tiles": 1024}
		if smoke {
			sc.Scale, sc.Base["Tiles"] = 16, 64
		}
	}
	return sc
}

// simWorkload is one of the four single-run simulation workloads.
type simWorkload struct {
	name  string
	smoke bool

	spec   scenario.RunSpec
	native float64
	// refChecksum and refDigest are the dist-tcp spec's result when run
	// in-process: distribution must not change either.
	refChecksum float64
	refDigest   string
	last        scenario.Record // the warm-up rep's verified record
	cache       *recordcache.Cache
	workDir     string
}

func (w *simWorkload) setup(env *sessionSpec) error {
	w.workDir = env.WorkDir
	specs, err := simScenario(w.name, env.Seed, w.smoke).Expand()
	if err != nil {
		return err
	}
	w.spec = specs[0]
	native, ok := scenario.NativeChecksum(scenario.NativeKey{Workload: w.spec.Workload, Threads: w.spec.Threads, Scale: w.spec.Scale})
	if !ok {
		return fmt.Errorf("no native variant of %s", w.spec.Workload)
	}
	w.native = native
	cache, err := recordcache.Open(recordcache.Options{Dir: filepath.Join(w.workDir, "warm-cache")})
	if err != nil {
		return err
	}
	w.cache = cache
	if r := w.rep("n", nil); r.err != nil {
		return fmt.Errorf("warm-up rep: %w", r.err)
	}
	if w.spec.Processes > 1 {
		local := w.spec
		local.Processes, local.Checkpoint = 0, nil
		rec := scenario.Execute(&local)
		if rec.Error != "" {
			return fmt.Errorf("in-process reference run: %s", rec.Error)
		}
		w.refChecksum, w.refDigest = rec.Checksum, rec.ConfigDigest
		if r := w.check(&w.last); r != nil {
			return fmt.Errorf("warm-up rep against the in-process reference: %w", r)
		}
	}
	return nil
}

// check verifies one record: no error, the native checksum, and for the
// distributed workload the in-process run's checksum and config digest.
func (w *simWorkload) check(rec *scenario.Record) error {
	if rec.Error != "" {
		return errors.New(rec.Error)
	}
	if !workloads.Close(rec.Checksum, w.native) {
		return fmt.Errorf("checksum %v differs from native %v", rec.Checksum, w.native)
	}
	if w.refDigest != "" {
		if !workloads.Close(rec.Checksum, w.refChecksum) {
			return fmt.Errorf("checksum %v differs from the in-process run's %v", rec.Checksum, w.refChecksum)
		}
		if rec.ConfigDigest != w.refDigest {
			return fmt.Errorf("config digest %s differs from the in-process run's %s", rec.ConfigDigest, w.refDigest)
		}
	}
	return nil
}

func (w *simWorkload) rep(kind string, tr *tracer) repResult {
	spec := w.spec
	spec.Config.Workers = nproc()
	if kind == "w1" {
		spec.Config.Workers = 1
		if spec.Processes > 1 {
			// Config.Workers only reaches an in-process Cluster.Run; the
			// coordinator and the workers it forks take theirs here.
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
			prev, had := os.LookupEnv("GOMAXPROCS")
			os.Setenv("GOMAXPROCS", "1")
			defer func() {
				if had {
					os.Setenv("GOMAXPROCS", prev)
				} else {
					os.Unsetenv("GOMAXPROCS")
				}
			}()
		}
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	root := tr.begin("benchmark", "rep "+w.name)
	var rec scenario.Record
	var runWall time.Duration
	if tr != nil && spec.Processes <= 1 {
		rec, runWall = tracedExecute(&spec, tr)
	} else {
		id := tr.begin("scenario", "scenario.ExecuteStats")
		rec = scenario.Execute(&spec)
		tr.end(id)
		runWall = time.Duration(rec.WallSec * float64(time.Second))
	}
	id := tr.begin("benchmark", "verify")
	err := w.check(&rec)
	tr.end(id)
	tr.end(root)
	wall := time.Since(t0)
	if err == nil {
		w.last = rec
	}
	return repResult{
		wall: wall, firstRecord: wall, runWall: runWall, cpu: cpuTime() - cpu0,
		instr: rec.Stats.Instructions, runs: 1, err: err,
		counts: counts{
			loads: rec.Stats.Loads, stores: rec.Stats.Stores, l2Misses: rec.Stats.L2Misses,
			invalidations: rec.Stats.InvSent, packets: rec.Stats.NetPacketsSent,
		},
	}
}

// tracedExecute is scenario.ExecuteStats for an in-process spec, taken
// apart so that each call into a layer gets its own span.
func tracedExecute(spec *scenario.RunSpec, tr *tracer) (scenario.Record, time.Duration) {
	rec := scenario.Record{
		Schema: scenario.RecordSchema, Scenario: spec.Scenario, Run: spec.Run,
		Workload: spec.Workload, Threads: spec.Threads, Scale: spec.Scale, Seed: spec.Seed, Axes: spec.Axes,
	}
	id := tr.begin("scenario", "scenario.Digest")
	rec.ConfigDigest = scenario.Digest(&spec.Config)
	tr.end(id)

	wl, _ := workloads.Get(spec.Workload)
	id = tr.begin("workloads", "Workload.Build")
	prog := wl.Build(workloads.Params{Threads: spec.Threads, Scale: spec.Scale})
	tr.end(id)

	id = tr.begin("core", "core.NewCluster")
	cl, err := core.NewCluster(spec.Config, prog)
	tr.end(id)
	if err != nil {
		rec.Error = err.Error()
		return rec, 0
	}
	id = tr.begin("core", "Cluster.Run")
	rs, err := cl.Run(0)
	tr.end(id)
	runWall := tr.spans[id].End - tr.spans[id].Start
	if err == nil {
		id = tr.begin("core", "Cluster.Peek")
		var buf [16]byte
		cl.Peek(workloads.DefaultResultAddr, buf[:])
		tr.end(id)
		rec.Checksum = math.Float64frombits(binary.LittleEndian.Uint64(buf[0:8]))
		rec.SimCycles = uint64(rs.SimulatedCycles)
		rec.Stats = rs.Totals
		rec.WallSec = rs.Wall.Seconds()
	} else {
		rec.Error = err.Error()
	}
	id = tr.begin("core", "Cluster.Close")
	cl.Close()
	tr.end(id)
	return rec, runWall
}

// warm stores the session's last verified record and resubmits its spec
// through scenario.CacheLookup — what the sweep runner and the dispatch
// coordinator do with every spec before they would simulate it. It
// returns the replay rates of six batches of 200 lookups, after a few
// untimed lookups. A batch lasts about 3 ms: a moment off the CPU spoils
// the few batches it falls in and the median over the run's hundreds
// ignores them, where a long batch would carry every one of them into its
// rate. The collector is off meanwhile (a lookup allocates 3.5 KB), so
// that the reps' pools age by the session's one collection a rep whether
// or not a replay ran between. The result may not change.
func (w *simWorkload) warm() ([]float64, error) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	w.cache.Put(w.last)
	replay := func(n int) error {
		for i := 0; i < n; i++ {
			got, ok := scenario.CacheLookup(w.cache, &w.spec, "")
			if !ok || !got.Cached || got.Checksum != w.last.Checksum {
				return fmt.Errorf("warm replay missed the cache or changed the result (hit=%v)", ok)
			}
		}
		return nil
	}
	if err := replay(50); err != nil {
		return nil, err
	}
	const batches, replays = 6, 200
	rates := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		if err := replay(replays); err != nil {
			return nil, err
		}
		rates = append(rates, replays/time.Since(t0).Seconds())
	}
	return rates, nil
}

func (w *simWorkload) close() {
	if w.cache != nil {
		_ = w.cache.Close() // a scratch cache; its directory is removed with the session
	}
}
