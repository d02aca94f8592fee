package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/recordcache"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/workloads"
)

// goldenDigests holds the committed digests of the sweep's simulated
// results (see recordsDigest), one "<shape> <digest>" line for the full
// sweep and one for the smoke preset's. A change to the model regenerates
// them with -write-golden; a change that only makes the simulator faster
// must leave them alone.
//
//go:embed golden/records.sha256
var goldenDigests string

// sweepScenario builds the sweep's scenario document: single-thread runs,
// which the simulator reproduces bit for bit, so the record stream is the
// exact-repeat check on the simulated statistics.
func sweepScenario(seed int64, smoke bool) []byte {
	lines, kinds, repeats := []any{16, 32, 64, 128}, []any{"full_map", "dir_nb", "limitless"}, 4
	if smoke {
		lines, kinds, repeats = []any{64}, []any{"full_map"}, 2
	}
	doc := map[string]any{
		"name": "sweep-svc", "preset": "small-cache", "size": "quick", "threads": 1, "seed": seed,
		"repeats": repeats, "verify": true,
		"base": map[string]any{"Tiles": 8},
		"grids": []any{map[string]any{"axes": []any{
			map[string]any{"field": "workload", "values": []any{"radix", "fft"}},
			map[string]any{"field": "line_size", "values": lines},
			map[string]any{"field": "Coherence.Kind", "values": kinds},
		}}},
	}
	buf, err := json.Marshal(doc)
	if err != nil {
		panic(err) // a literal of plain values
	}
	return buf
}

// sweepWorkload drives a graphited service.Server behind a real loopback
// listener with one client, closed loop.
type sweepWorkload struct {
	smoke bool

	body    []byte
	runs    int
	native  map[scenario.NativeKey]float64
	workDir string
	pairs   int
	// digest is the recordsDigest of the last cold pass; every pass of a
	// session must produce the same one.
	digest string
}

func (w *sweepWorkload) setup(env *sessionSpec) error {
	if err := w.load(env); err != nil {
		return err
	}
	// The sweep builds clusters of a dozen cache geometries; their pools
	// take a few passes to fill.
	for i := 0; i < 3 && (i == 0 || !w.smoke); i++ {
		if r := w.rep("n", nil); r.err != nil {
			return fmt.Errorf("warm-up pair: %w", r.err)
		}
	}
	return nil
}

// load builds the scenario document, counts its runs and computes the
// native checksums its records must reproduce.
func (w *sweepWorkload) load(env *sessionSpec) error {
	w.workDir = env.WorkDir
	w.body = sweepScenario(env.Seed, w.smoke)
	sc, err := scenario.Parse(bytes.NewReader(w.body))
	if err != nil {
		return err
	}
	specs, err := sc.Expand()
	if err != nil {
		return err
	}
	w.runs = len(specs)
	w.native = map[scenario.NativeKey]float64{}
	for i := range specs {
		k := scenario.NativeKey{Workload: specs[i].Workload, Threads: specs[i].Threads, Scale: specs[i].Scale}
		if _, done := w.native[k]; !done {
			sum, ok := scenario.NativeChecksum(k)
			if !ok {
				return fmt.Errorf("no native variant of %s", k.Workload)
			}
			w.native[k] = sum
		}
	}
	return nil
}

// firstWriter buffers a record stream and notes when its first byte came.
type firstWriter struct {
	buf   bytes.Buffer
	first time.Time
	tr    *tracer
	span  int
}

func (f *firstWriter) Write(p []byte) (int, error) {
	if f.first.IsZero() {
		f.first = time.Now()
		f.tr.end(f.span)
	}
	return f.buf.Write(p)
}

// pass submits the scenario and streams every record back.
func (w *sweepWorkload) pass(ctx context.Context, cl *client.Client, tr *tracer) (out []byte, wall, first time.Duration, st client.JobStatus, err error) {
	t0 := time.Now()
	id := tr.begin("service", "Client.Submit")
	st, err = cl.Submit(ctx, w.body)
	tr.end(id)
	if err != nil {
		return nil, 0, 0, st, err
	}
	id = tr.begin("service", "Client.StreamRecords")
	fw := &firstWriter{tr: tr, span: tr.begin("dispatch", "first record")}
	n, err := cl.StreamRecords(ctx, st.ID, 0, fw)
	if fw.first.IsZero() {
		tr.end(fw.span)
	}
	tr.end(id)
	wall = time.Since(t0)
	if err != nil {
		return nil, wall, 0, st, err
	}
	if n != w.runs {
		return nil, wall, 0, st, fmt.Errorf("streamed %d records, want %d", n, w.runs)
	}
	id = tr.begin("service", "Client.Job")
	st, err = cl.Job(ctx, st.ID)
	tr.end(id)
	if err == nil && st.State != service.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	return fw.buf.Bytes(), wall, fw.first.Sub(t0), st, err
}

// sweepDaemon is one in-process graphited: a service.Server with its own
// record cache directory behind a loopback listener, and its one client.
type sweepDaemon struct {
	cache  *recordcache.Cache
	svc    *service.Server
	srv    *http.Server
	served chan struct{}
	cl     *client.Client
	dir    string
}

func (w *sweepWorkload) openDaemon(fleet int, tr *tracer) (*sweepDaemon, error) {
	w.pairs++
	d := &sweepDaemon{dir: filepath.Join(w.workDir, fmt.Sprintf("cache-%d", w.pairs)), served: make(chan struct{})}
	id := tr.begin("recordcache", "recordcache.Open")
	cache, err := recordcache.Open(recordcache.Options{Dir: d.dir})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	d.cache = cache
	id = tr.begin("service", "service.New+listen")
	defer tr.end(id)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, cache.Close())
	}
	d.svc = service.New(service.Options{Workers: fleet, Cache: cache})
	d.srv = &http.Server{Handler: d.svc.Handler()}
	go func() {
		defer close(d.served)
		_ = d.srv.Serve(ln) // always ErrServerClosed: close ends it
	}()
	d.cl, err = client.New("http://" + ln.Addr().String())
	if err != nil {
		return nil, errors.Join(err, d.close(nil))
	}
	return d, nil
}

func (d *sweepDaemon) close(tr *tracer) error {
	id := tr.begin("service", "Server.Close")
	d.svc.Close()
	err := d.srv.Close()
	<-d.served
	tr.end(id)
	id = tr.begin("recordcache", "Cache.Close")
	err = errors.Join(err, d.cache.Close())
	tr.end(id)
	return errors.Join(err, os.RemoveAll(d.dir))
}

// rep is one cold pass against a fresh daemon and cache directory and,
// at Workers=nproc, the warm resubmission that must simulate nothing.
func (w *sweepWorkload) rep(kind string, tr *tracer) (res repResult) {
	fleet := nproc()
	if kind == "w1" {
		fleet = 1
	}
	root := tr.begin("benchmark", "rep sweep-svc")
	defer tr.end(root)
	d, err := w.openDaemon(fleet, tr)
	if err != nil {
		return repResult{err: err}
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	cpu0 := cpuTime()
	cold, wall, first, st, err := w.pass(ctx, d.cl, tr)
	res = repResult{wall: wall, cpu: cpuTime() - cpu0, firstRecord: first, runs: w.runs}
	if err == nil && st.RunsExecuted != w.runs {
		err = fmt.Errorf("cold pass executed %d of %d runs", st.RunsExecuted, w.runs)
	}
	// A warm pass takes a few milliseconds, so an "n" rep makes five and
	// reports their median.
	var warmWalls []float64
	var warm []byte
	for i := 0; i < 5 && err == nil && kind == "n"; i++ {
		var wall time.Duration
		warm, wall, _, st, err = w.pass(ctx, d.cl, tr)
		warmWalls = append(warmWalls, wall.Seconds())
		if err == nil && (st.RunsExecuted != 0 || st.RunsCached != w.runs) {
			err = fmt.Errorf("warm pass executed %d runs and served %d from the cache, want 0 and %d", st.RunsExecuted, st.RunsCached, w.runs)
		}
	}
	if cerr := d.close(tr); err == nil {
		err = cerr
	}
	if err != nil {
		res.err = err
		return res
	}

	id := tr.begin("benchmark", "verify")
	sum, err := w.verify(cold)
	if err == nil && kind == "n" {
		res.warmRunsPerS = float64(w.runs) / median(warmWalls)
		if !bytes.Equal(stripHostFields(cold, false), stripHostFields(warm, false)) {
			err = errors.New("warm record stream differs from the cold one beyond wall_sec, proc_wall_sec and cached")
		}
	}
	if err == nil && w.digest != "" && w.digest != sum.digest {
		err = fmt.Errorf("simulated results changed between passes of one session: %s then %s", w.digest, sum.digest)
	}
	tr.end(id)
	res.instr, res.counts, res.runWall, res.err = sum.instr, sum.counts, sum.wall/time.Duration(fleet), err
	if err == nil {
		w.digest = sum.digest
	}
	return res
}

// sweepSum is what verify extracts from a cold record stream.
type sweepSum struct {
	instr  uint64
	counts counts
	wall   time.Duration // sum of the records' wall_sec
	digest string
}

// verify checks every record of a stream against the native checksums
// computed during set-up, and totals the simulated work.
func (w *sweepWorkload) verify(stream []byte) (sweepSum, error) {
	recs, err := scenario.ReadJSONL(bytes.NewReader(stream))
	if err != nil {
		return sweepSum{}, err
	}
	var s sweepSum
	for i := range recs {
		r := &recs[i]
		if r.Error != "" {
			return s, fmt.Errorf("run %d: %s", r.Run, r.Error)
		}
		want := w.native[scenario.NativeKey{Workload: r.Workload, Threads: r.Threads, Scale: r.Scale}]
		if !workloads.Close(r.Checksum, want) || r.ChecksumOK == nil || !*r.ChecksumOK {
			return s, fmt.Errorf("run %d (%s): checksum %v, native %v", r.Run, r.Workload, r.Checksum, want)
		}
		s.instr += r.Stats.Instructions
		s.counts.loads += r.Stats.Loads
		s.counts.stores += r.Stats.Stores
		s.counts.l2Misses += r.Stats.L2Misses
		s.counts.invalidations += r.Stats.InvSent
		s.counts.packets += r.Stats.NetPacketsSent
		s.wall += time.Duration(r.WallSec * float64(time.Second))
	}
	s.digest = recordsDigest(stream)
	return s, nil
}

// stripHostFields removes from every record line the fields that are
// about the host and not the simulation: wall_sec, proc_wall_sec and
// cached. With seedFields it also removes seed and config_digest (which
// covers RandSeed), leaving only what was simulated: under Lax the seed
// reaches nothing in the model, so that form is the same for every seed.
func stripHostFields(stream []byte, seedFields bool) []byte {
	var out bytes.Buffer
	for _, line := range bytes.Split(bytes.TrimSpace(stream), []byte("\n")) {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(line, &m); err != nil {
			out.Write(line) // not a record; keep it so the difference shows
			out.WriteByte('\n')
			continue
		}
		delete(m, "wall_sec")
		delete(m, "proc_wall_sec")
		delete(m, "cached")
		if seedFields {
			delete(m, "seed")
			delete(m, "config_digest")
		}
		buf, _ := json.Marshal(m) // map keys marshal sorted; RawMessage values cannot fail
		out.Write(buf)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// recordsDigest is the SHA-256 of a record stream's simulated content.
func recordsDigest(stream []byte) string {
	sum := sha256.Sum256(stripHostFields(stream, true))
	return hex.EncodeToString(sum[:])
}

// digest48 is a digest's first 48 bits as a number a float64 holds
// exactly, so the identity fits the metrics' number-only format.
func digest48(hexDigest string) float64 {
	v, _ := strconv.ParseUint(hexDigest[:12], 16, 64) // twelve hex digits by construction
	return float64(v)
}

func goldenShape(smoke bool) string {
	if smoke {
		return "smoke"
	}
	return "full"
}

// goldenFor returns the committed digest of the full or the smoke sweep.
func goldenFor(smoke bool) string {
	for _, line := range strings.Split(goldenDigests, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == goldenShape(smoke) {
			return f[1]
		}
	}
	return ""
}

// warm has nothing to add: every "n" rep ends with its warm passes.
func (w *sweepWorkload) warm() ([]float64, error) { return nil, nil }

func (w *sweepWorkload) close() {}
