// Package scenario turns the simulator into a general design-space sweep
// machine (the paper's stated purpose, §4: explore many target
// architectures cheaply). A Scenario is a declarative description of a
// set of simulation runs: a named configuration preset, field overrides
// addressed by dotted Go field paths into config.Config, and parameter
// grids whose axes expand into the cross product of independent runs.
// The runner (runner.go) executes the expanded runs on a host-parallel
// worker pool and emits one JSONL record per run.
//
// Scenarios come from two places: JSON files loaded with Load (the
// cmd/graphite-sweep -scenario mode), and Go code building the structs
// directly. The experiments package builds every table and figure of the
// paper this way and runs it with Run, as the -scenario mode runs a
// file; Figure 7 alone executes its expanded specs with ExecuteStats,
// because its clock-skew samples are not part of a Record.
package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"sort"
	"strings"

	"repro/internal/config"
	"repro/internal/workloads"
)

// Axis is one swept dimension of a grid. Field is either a run-level
// parameter ("workload", "threads", "scale", "processes" — the last being
// the OS process count of a distributed run), the virtual "line_size"
// (which sets the line size of every cache level together, as
// config.Validate requires), or a dotted path into config.Config
// ("Tiles", "L2.LineSize", "Sync.Model", ...). Enum-typed config fields
// accept their string spellings ("lax_barrier", "dir_nb", "mesh_hop", ...).
//
//graphite:wire
type Axis struct {
	Field  string `json:"field"`
	Values []any  `json:"values"`
}

// Grid is one block of runs: optional per-grid defaults plus the axes
// whose cross product the grid expands to. A grid with no axes is a
// single run.
//
//graphite:wire
type Grid struct {
	// Workload, Threads, Scale, Processes override the scenario-level
	// defaults for this grid (zero values inherit).
	Workload  string `json:"workload,omitempty"`
	Threads   int    `json:"threads,omitempty"`
	Scale     int    `json:"scale,omitempty"`
	Processes int    `json:"processes,omitempty"`
	// Base is applied to the configuration after the scenario-level Base.
	Base map[string]any `json:"base,omitempty"`
	// Axes are expanded right-to-left: the last axis varies fastest.
	Axes []Axis `json:"axes,omitempty"`
}

// CheckpointPolicy is the per-run checkpoint and recovery policy. For
// multi-process runs it also arms worker-loss recovery: the coordinator
// re-forks dead workers and replays, verifying the replay against the
// saved manifests, so a killed worker costs wall-clock time instead of
// the run.
//
//graphite:wire
type CheckpointPolicy struct {
	// Every checkpoints at every Nth barrier epoch (0: checkpointing
	// off). Requires the LaxBarrier synchronization model — epochs are
	// the only globally quiescent points.
	Every int64 `json:"every,omitempty"`
	// Dir receives the checkpoint files. Empty: a per-run temporary
	// directory, removed after the run (useful purely for recovery).
	Dir string `json:"dir,omitempty"`
	// MaxRestarts bounds worker re-fork recovery attempts for
	// multi-process runs (0: give up on the first worker loss).
	MaxRestarts int `json:"max_restarts,omitempty"`
}

// Scenario is a declarative sweep definition.
//
//graphite:wire
type Scenario struct {
	// Name labels every emitted record.
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
	// Preset names the base configuration (see Presets); default "default".
	Preset string `json:"preset,omitempty"`
	// Size resolves workload problem sizes when Scale is 0:
	// "quick" (default), "standard", or "full".
	Size string `json:"size,omitempty"`
	// Workload, Threads, Scale are scenario-wide defaults. Threads 0 means
	// one thread per target tile; Scale 0 means the workload's Size default.
	Workload string `json:"workload,omitempty"`
	Threads  int    `json:"threads,omitempty"`
	Scale    int    `json:"scale,omitempty"`
	// Processes > 1 executes each run as one simulation distributed
	// across that many OS processes (tiles striped, TCP fabric), instead
	// of in-process. Like threads/scale it is a run-level field: grids
	// may override it and axes may sweep it ("processes"). Results are
	// identical to the in-process run of the same spec — the config
	// digest deliberately excludes host-execution fields.
	Processes int `json:"processes,omitempty"`
	// Hosts pins every process's fabric listen address (host:port, one
	// per process) when Processes > 1. Empty: free localhost ports per
	// run. Scenarios with pinned hosts run serially (concurrent runs
	// would collide on the ports).
	Hosts []string `json:"hosts,omitempty"`
	// Seed is the reproducibility base; run i executes with RandSeed
	// Seed+i. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// Repeats runs every grid point this many times (consecutive run
	// indices, hence distinct seeds). Default 1.
	Repeats int `json:"repeats,omitempty"`
	// Serial forces the runner to one worker, e.g. for wall-clock-accurate
	// measurements. Runs that set Config.Workers force this implicitly
	// (GOMAXPROCS is process-global).
	Serial bool `json:"serial,omitempty"`
	// Verify additionally executes each run's native variant and records
	// whether the simulated checksum matches it.
	Verify bool `json:"verify,omitempty"`
	// TileStats embeds the per-tile statistics records in every JSONL
	// record (large; off by default).
	TileStats bool `json:"tile_stats,omitempty"`
	// Checkpoint enables per-run checkpointing (and, for multi-process
	// runs, worker-loss recovery) for every run of the scenario.
	Checkpoint *CheckpointPolicy `json:"checkpoint,omitempty"`
	// Base is applied to the preset configuration before grid overrides.
	Base  map[string]any `json:"base,omitempty"`
	Grids []Grid         `json:"grids"`
}

// RunSpec is one fully resolved run of an expanded scenario. It is
// JSON-round-trippable (config.Config is plain data), which is what lets
// the dispatch package ship specs to remote workers: a worker decodes the
// spec, executes it, and the recomputed config digest matches the
// coordinator's.
//
//graphite:wire
type RunSpec struct {
	Scenario string `json:"scenario"`
	Run      int    `json:"run"`   // global index across the scenario
	Grid     int    `json:"grid"`  // index of the originating grid
	Point    int    `json:"point"` // index within the grid's cross product
	Repeat   int    `json:"repeat"`
	Workload string `json:"workload"`
	Threads  int    `json:"threads"`
	Scale    int    `json:"scale"`
	Seed     int64  `json:"seed"` // Config.RandSeed of this run
	// Processes > 1 distributes this run across that many OS processes;
	// Hosts optionally pins the per-process fabric addresses (see
	// Scenario.Hosts).
	Processes int      `json:"processes,omitempty"`
	Hosts     []string `json:"hosts,omitempty"`
	// Axes records the axis values of this point (for the JSONL record).
	Axes map[string]any `json:"axes,omitempty"`
	// TileStats embeds per-tile records in the run's Record.
	TileStats bool `json:"tile_stats,omitempty"`
	// Checkpoint is the run's checkpoint/recovery policy (nil: off).
	Checkpoint *CheckpointPolicy `json:"checkpoint,omitempty"`
	Config     config.Config     `json:"config"` //graphite:wireexempt Config's wire schema IS its Go field names: config_digest hashes config.Canonical()'s JSON, so retagging would invalidate every recorded digest; the round-trip tests in config freeze it instead
}

// presets maps preset names to base configurations. "default" is the
// paper's Table 1 target; the others are the evaluation section's
// variants, which internal/experiments' scenarios name.
var presets = map[string]func() config.Config{
	// The Table 1 target architecture.
	"default": config.Default,
	// The experiments' base: Table 1 scaled to simulation-friendly cache
	// sizes (per-tile cache metadata is host memory; see DESIGN.md).
	"small-cache": func() config.Config {
		cfg := config.Default()
		cfg.L1I = config.CacheConfig{Enabled: false}
		cfg.L1D = config.CacheConfig{Enabled: true, Size: 16 << 10, Assoc: 8, LineSize: 64, HitLatency: 1}
		cfg.L2 = config.CacheConfig{Enabled: true, Size: 256 << 10, Assoc: 8, LineSize: 64, HitLatency: 8}
		return cfg
	},
	// The §4.4 memory system of Figure 8: no L1s, a single 1 MB 4-way L2
	// taking every reference.
	"l2-only": func() config.Config {
		cfg := config.Default()
		cfg.L1I = config.CacheConfig{Enabled: false}
		cfg.L1D = config.CacheConfig{Enabled: false}
		cfg.L2 = config.CacheConfig{Enabled: true, Size: 1 << 20, Assoc: 4, LineSize: 64, HitLatency: 8}
		return cfg
	},
	// Lean per-tile caches for very large targets (Figure 5: 1024 tiles).
	"large-target": func() config.Config {
		cfg := config.Default()
		cfg.L1I = config.CacheConfig{Enabled: false}
		cfg.L1D = config.CacheConfig{Enabled: true, Size: 4 << 10, Assoc: 2, LineSize: 64, HitLatency: 1}
		cfg.L2 = config.CacheConfig{Enabled: true, Size: 32 << 10, Assoc: 4, LineSize: 64, HitLatency: 8}
		return cfg
	},
}

// Presets returns the available preset names, sorted.
func Presets() []string {
	out := make([]string, 0, len(presets))
	//graphite:maporder drained into sort.Strings below; iteration order cannot survive the sort
	for n := range presets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Preset returns the named base configuration.
func Preset(name string) (config.Config, error) {
	if name == "" {
		name = "default"
	}
	f, ok := presets[name]
	if !ok {
		return config.Config{}, fmt.Errorf("scenario: unknown preset %q (have %s)", name, strings.Join(Presets(), ", "))
	}
	return f(), nil
}

// Load reads a scenario file. Unknown fields are rejected so typos in
// sweep definitions fail loudly instead of silently not sweeping.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// Parse decodes a scenario from JSON.
func Parse(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	dec.UseNumber()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// Expand resolves every grid point into a RunSpec, applying overrides in
// documented precedence order (lowest to highest): preset, scenario Base,
// grid Base, axis values (later axes win on the same field). Every
// resulting configuration is validated; the first invalid point aborts
// the expansion with its grid/point coordinates.
func (s *Scenario) Expand() ([]RunSpec, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: missing name")
	}
	if len(s.Grids) == 0 {
		return nil, fmt.Errorf("scenario %s: no grids", s.Name)
	}
	size := s.Size
	if size == "" {
		size = "quick"
	}
	seed := s.Seed
	if seed == 0 {
		seed = 1
	}
	repeats := s.Repeats
	if repeats <= 0 {
		repeats = 1
	}

	// Count the runs before allocating any: the count is a product of
	// sizes a short request can make huge.
	grids := make([]int, len(s.Grids)) // points per grid
	total := 0
	for gi := range s.Grids {
		points := 1
		for ai, ax := range s.Grids[gi].Axes {
			if len(ax.Values) == 0 {
				return nil, fmt.Errorf("scenario %s grid %d axis %d (%s): no values", s.Name, gi, ai, ax.Field)
			}
			points = min(points*len(ax.Values), MaxRuns+1)
		}
		grids[gi] = points
		total = min(total+points*min(repeats, MaxRuns+1), MaxRuns+1)
	}
	if total > MaxRuns {
		return nil, fmt.Errorf("scenario %s: more than %d runs", s.Name, MaxRuns)
	}

	specs := make([]RunSpec, 0, total)
	for gi, points := range grids {
		for pt := 0; pt < points; pt++ {
			spec, err := s.resolvePoint(gi, pt, size)
			if err != nil {
				return nil, err
			}
			for rep := 0; rep < repeats; rep++ {
				sp := *spec
				sp.Repeat = rep
				sp.Run = len(specs)
				sp.Seed = seed + int64(sp.Run)
				sp.Config.RandSeed = sp.Seed
				specs = append(specs, sp)
			}
		}
	}
	return specs, nil
}

// MaxRuns bounds the runs one scenario expands to. Expand refuses a
// scenario above it before it allocates anything, so that a short
// submission cannot exhaust a daemon's memory.
const MaxRuns = 1 << 16

// resolvePoint builds the RunSpec of one grid point (before repeat/seed
// assignment).
func (s *Scenario) resolvePoint(gi, pt int, size string) (*RunSpec, error) {
	g := &s.Grids[gi]
	fail := func(err error) (*RunSpec, error) {
		return nil, fmt.Errorf("scenario %s grid %d point %d: %w", s.Name, gi, pt, err)
	}

	cfg, err := Preset(s.Preset)
	if err != nil {
		return fail(err)
	}
	spec := &RunSpec{
		Scenario:   s.Name,
		Grid:       gi,
		Point:      pt,
		Workload:   s.Workload,
		Threads:    s.Threads,
		Scale:      s.Scale,
		Processes:  s.Processes,
		Axes:       map[string]any{},
		TileStats:  s.TileStats,
		Checkpoint: s.Checkpoint,
	}
	if g.Workload != "" {
		spec.Workload = g.Workload
	}
	if g.Threads != 0 {
		spec.Threads = g.Threads
	}
	if g.Scale != 0 {
		spec.Scale = g.Scale
	}
	if g.Processes != 0 {
		spec.Processes = g.Processes
	}
	for _, over := range []map[string]any{s.Base, g.Base} {
		for _, field := range sortedKeys(over) {
			if err := applyField(&cfg, spec, field, over[field]); err != nil {
				return fail(err)
			}
		}
	}
	// Decompose pt into axis indices, last axis fastest; apply in
	// declaration order so a later axis wins on a shared field.
	vals := make([]any, len(g.Axes))
	idx := pt
	for ai := len(g.Axes) - 1; ai >= 0; ai-- {
		vals[ai] = g.Axes[ai].Values[idx%len(g.Axes[ai].Values)]
		idx /= len(g.Axes[ai].Values)
	}
	for ai, ax := range g.Axes {
		spec.Axes[ax.Field] = vals[ai]
		if err := applyField(&cfg, spec, ax.Field, vals[ai]); err != nil {
			return fail(err)
		}
	}

	if spec.Workload == "" {
		return fail(fmt.Errorf("no workload (set it on the scenario, the grid, or a %q axis)", "workload"))
	}
	if _, ok := workloads.Get(spec.Workload); !ok {
		return fail(fmt.Errorf("unknown workload %q", spec.Workload))
	}
	if spec.Scale == 0 {
		sc, err := workloads.ScaleFor(spec.Workload, size)
		if err != nil {
			return fail(err)
		}
		spec.Scale = sc
	}
	if spec.Threads == 0 {
		spec.Threads = cfg.Tiles
	}
	if spec.Threads < 1 || spec.Threads > cfg.Tiles {
		return fail(fmt.Errorf("threads %d out of range [1, %d tiles]", spec.Threads, cfg.Tiles))
	}
	if spec.Processes < 0 || spec.Processes > cfg.Tiles {
		return fail(fmt.Errorf("processes %d out of range [0, %d tiles]", spec.Processes, cfg.Tiles))
	}
	if spec.Processes > 1 {
		if len(s.Hosts) > 0 && len(s.Hosts) != spec.Processes {
			return fail(fmt.Errorf("%d hosts for %d processes", len(s.Hosts), spec.Processes))
		}
		spec.Hosts = s.Hosts
	}
	if err := cfg.Validate(); err != nil {
		return fail(err)
	}
	spec.Config = cfg
	return spec, nil
}

// applyField applies one override. Run-level fields are the lowercase
// names "workload", "threads", "scale", "processes"; everything else is a
// dotted Go field path into config.Config.
func applyField(cfg *config.Config, spec *RunSpec, field string, v any) error {
	switch field {
	case "workload":
		s, ok := v.(string)
		if !ok {
			return fmt.Errorf("workload: want a string, got %T", v)
		}
		spec.Workload = s
		return nil
	case "threads":
		n, err := toInt(v)
		if err != nil {
			return fmt.Errorf("threads: %w", err)
		}
		spec.Threads = int(n)
		return nil
	case "scale":
		n, err := toInt(v)
		if err != nil {
			return fmt.Errorf("scale: %w", err)
		}
		spec.Scale = int(n)
		return nil
	case "processes":
		// OS process count of the run — a sweepable host-execution
		// parameter (distinct from the config path "Processes", which
		// stripes tiles across simulated processes in-process).
		n, err := toInt(v)
		if err != nil {
			return fmt.Errorf("processes: %w", err)
		}
		spec.Processes = int(n)
		return nil
	case "line_size":
		// Virtual field: the line size must be identical across enabled
		// cache levels (config.Validate), so sweeping it means setting
		// every level at once.
		n, err := toInt(v)
		if err != nil {
			return fmt.Errorf("line_size: %w", err)
		}
		cfg.L1I.LineSize = int(n)
		cfg.L1D.LineSize = int(n)
		cfg.L2.LineSize = int(n)
		return nil
	}
	return setConfigField(cfg, field, v)
}

// enumParsers maps enum-typed config fields to their string parsers.
var enumParsers = map[reflect.Type]func(string) (int64, error){
	reflect.TypeOf(config.SyncModel(0)): func(s string) (int64, error) {
		v, err := config.ParseSyncModel(s)
		return int64(v), err
	},
	reflect.TypeOf(config.NetworkModelKind(0)): func(s string) (int64, error) {
		v, err := config.ParseNetworkModelKind(s)
		return int64(v), err
	},
	reflect.TypeOf(config.CoherenceKind(0)): func(s string) (int64, error) {
		v, err := config.ParseCoherenceKind(s)
		return int64(v), err
	},
	reflect.TypeOf(config.CoreModelKind(0)): func(s string) (int64, error) {
		v, err := config.ParseCoreModelKind(s)
		return int64(v), err
	},
}

// setConfigField sets a leaf field of config.Config addressed by a dotted
// path of exported Go field names, e.g. "L2.LineSize" or "Sync.Model".
func setConfigField(cfg *config.Config, path string, v any) error {
	rv := reflect.ValueOf(cfg).Elem()
	for _, part := range strings.Split(path, ".") {
		if rv.Kind() != reflect.Struct {
			return fmt.Errorf("config field %q: %q is not a struct", path, part)
		}
		f := rv.FieldByName(part)
		if !f.IsValid() {
			return fmt.Errorf("config field %q: no field %q in %s (fields: %s)",
				path, part, rv.Type(), fieldNames(rv.Type()))
		}
		rv = f
	}
	return setLeaf(rv, v, path)
}

// setLeaf assigns v (a JSON scalar or a Go value from a programmatic
// scenario) to the addressed field.
func setLeaf(rv reflect.Value, v any, path string) error {
	if parse, ok := enumParsers[rv.Type()]; ok {
		if s, isStr := v.(string); isStr {
			n, err := parse(s)
			if err != nil {
				return fmt.Errorf("config field %q: %w", path, err)
			}
			rv.SetInt(n)
			return nil
		}
		// Fall through: numeric enum values are accepted too.
	}
	switch rv.Kind() {
	case reflect.Bool:
		b, ok := v.(bool)
		if !ok {
			return fmt.Errorf("config field %q: want a bool, got %v (%T)", path, v, v)
		}
		rv.SetBool(b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		n, err := toInt(v)
		if err != nil {
			return fmt.Errorf("config field %q: %w", path, err)
		}
		rv.SetInt(n)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		n, err := toInt(v)
		if err != nil || n < 0 {
			return fmt.Errorf("config field %q: want a non-negative integer, got %v", path, v)
		}
		rv.SetUint(uint64(n))
	case reflect.Float32, reflect.Float64:
		f, err := toFloat(v)
		if err != nil {
			return fmt.Errorf("config field %q: %w", path, err)
		}
		rv.SetFloat(f)
	default:
		return fmt.Errorf("config field %q: cannot set %s fields from a scenario", path, rv.Kind())
	}
	return nil
}

// toInt converts a scenario value (json.Number from files, Go numeric
// types from programmatic scenarios) to an integer.
func toInt(v any) (int64, error) {
	switch n := v.(type) {
	case json.Number:
		return n.Int64()
	case int:
		return int64(n), nil
	case int64:
		return n, nil
	case uint64:
		return int64(n), nil
	case float64:
		if n != float64(int64(n)) {
			return 0, fmt.Errorf("want an integer, got %v", n)
		}
		return int64(n), nil
	}
	rv := reflect.ValueOf(v)
	switch rv.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return rv.Int(), nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return int64(rv.Uint()), nil
	}
	return 0, fmt.Errorf("want an integer, got %v (%T)", v, v)
}

func toFloat(v any) (float64, error) {
	switch n := v.(type) {
	case json.Number:
		return n.Float64()
	case float64:
		return n, nil
	case int:
		return float64(n), nil
	case int64:
		return float64(n), nil
	}
	return 0, fmt.Errorf("want a number, got %v (%T)", v, v)
}

func sortedKeys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	//graphite:maporder drained into sort.Strings below; iteration order cannot survive the sort
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func fieldNames(t reflect.Type) string {
	var names []string
	for i := 0; i < t.NumField(); i++ {
		names = append(names, t.Field(i).Name)
	}
	return strings.Join(names, ", ")
}

// Digest returns the canonical configuration digest recorded with every
// run: a SHA-256 over the JSON form of the config's canonical target
// (config.Canonical — host-execution fields like the OS process count,
// transport, and GOMAXPROCS bound are excluded, because they must not
// change results). Two runs with equal digests simulated the identical
// target.
func Digest(cfg *config.Config) string {
	canon := cfg.Canonical()
	buf, err := json.Marshal(&canon)
	if err != nil {
		// Config is plain data; marshalling cannot fail.
		panic("scenario: config digest: " + err.Error())
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
