package service

import (
	"bytes"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/recordcache"
	"repro/internal/scenario"
	"repro/internal/scenario/dispatch"
)

// variant is the part of the test scenario the equivalence cases toggle
// between the two passes of a case.
type variant struct{ verify, tiles bool }

func (v variant) body() []byte {
	return []byte(fmt.Sprintf(`{
  "name": "equivalence", "preset": "small-cache", "size": "quick",
  "threads": 1, "seed": 1, "verify": %t, "tile_stats": %t,
  "base": { "Tiles": 4 },
  "grids": [ { "axes": [
    { "field": "workload", "values": ["radix", "fft"] },
    { "field": "line_size", "values": [32, 64] } ] } ]
}`, v.verify, v.tiles))
}

func (v variant) expand() (*scenario.Scenario, []scenario.RunSpec, error) {
	sc, err := scenario.Parse(bytes.NewReader(v.body()))
	if err != nil {
		return nil, nil, err
	}
	specs, err := sc.Expand()
	return sc, specs, err
}

// tilesBody matches the contents of a record's per-tile array. Per-tile
// counters are outside the byte-identity contract: some follow host
// timing even for a single-thread run (dram_queue_wait accumulates the
// lax queue model's estimates, net_packets_recv is snapshotted while the
// last acknowledgements are still in flight). The totals, cycles and
// checksums the rest of the record is made of do not.
var tilesBody = regexp.MustCompile(`"tiles":\[.*?\]((?:,"cached":true)?,"wall_sec")`)

// simulated reduces a JSONL stream to what must be identical however its
// records came to be; whether each record carries per-tile stats at all
// is part of that.
func simulated(out []byte) string {
	return stripReplay(tilesBody.ReplaceAll(out, []byte(`"tiles":[…]$1`)))
}

// pass is what one sweep through one engine produced: the JSONL it
// emitted incrementally, and how each record came to be. reused is -1
// when the engine cannot report it.
type pass struct {
	out                      []byte
	executed, reused, cached int
}

// carry is the state a case's first pass leaves for its second.
type carry struct {
	resume []scenario.Record
	cache  *recordcache.Cache
}

func (c carry) sweepOptions(sc *scenario.Scenario, specs []scenario.RunSpec, out *bytes.Buffer) scenario.SweepOptions {
	opt := scenario.SweepOptions{
		Serial: scenario.NeedsSerial(sc, specs),
		Verify: sc.Verify,
		Out:    out,
		Resume: c.resume,
	}
	if c.cache != nil {
		opt.Cache = c.cache
	}
	return opt
}

// checkOut: the incrementally written output must be the bytes the final
// record slice serializes to.
func checkOut(out []byte, records []scenario.Record) error {
	var want bytes.Buffer
	if err := scenario.WriteJSONL(&want, records); err != nil {
		return err
	}
	if !bytes.Equal(out, want.Bytes()) {
		return errors.New("incremental Out differs from the final records")
	}
	return nil
}

// runLocal drives the sweep on local worker slots — what scenario.Run and
// graphite-sweep -scenario do.
func runLocal(_ *testing.T, v variant, c carry) (pass, error) {
	sc, specs, err := v.expand()
	if err != nil {
		return pass{}, err
	}
	return within(func() (pass, error) {
		var out bytes.Buffer
		sw := scenario.NewSweep(specs, c.sweepOptions(sc, specs, &out))
		sw.Work(2)
		records, err := sw.Wait()
		if err == nil {
			err = checkOut(out.Bytes(), records)
		}
		return pass{out.Bytes(), sw.Executed(), sw.Reused(), sw.Cached()}, err
	})
}

// runWire drives the sweep through a loopback coordinator gated on two
// worker processes' worth of dispatch.Work — graphite-sweep -serve plus
// two graphite-sweep -worker.
func runWire(_ *testing.T, v variant, c carry) (pass, error) {
	sc, specs, err := v.expand()
	if err != nil {
		return pass{}, err
	}
	return within(func() (pass, error) {
		var out bytes.Buffer
		coord, err := dispatch.NewCoordinator(specs, dispatch.Options{
			WorkersExpected: 2,
			SweepOptions:    c.sweepOptions(sc, specs, &out),
		})
		if err != nil {
			return pass{}, err
		}
		workers := make(chan error, 2)
		for w := 0; w < 2; w++ {
			go func() {
				workers <- dispatch.Work(coord.Addr(), dispatch.WorkerOptions{Parallel: 1, DialTimeout: 5 * time.Second})
			}()
		}
		// Workers are released by the finished sweep, not by Wait:
		// collect them first, so none is still dialing when Wait closes
		// the listener.
		for w := 0; w < 2; w++ {
			if werr := <-workers; werr != nil {
				err = errors.Join(err, fmt.Errorf("worker: %w", werr))
			}
		}
		records, werr := coord.Wait()
		if err = errors.Join(err, werr); err == nil {
			err = checkOut(out.Bytes(), records)
		}
		return pass{out.Bytes(), coord.Executed(), coord.Reused(), coord.Cached()}, err
	})
}

// runService drives the sweep as a graphited job served by the daemon's
// in-process fleet.
func runService(t *testing.T, v variant, c carry) (pass, error) {
	if c.resume != nil {
		return pass{}, errors.New("the service API has no resume input")
	}
	_, cl := newTestService(t, Options{Workers: 2, Cache: c.cache})
	ctx := testContext(t)
	st, err := cl.Submit(ctx, v.body())
	if err != nil {
		return pass{}, err
	}
	var out bytes.Buffer
	if _, err := cl.StreamRecords(ctx, st.ID, 0, &out); err != nil {
		return pass{}, err
	}
	final, err := cl.WaitTerminal(ctx, st.ID)
	if err == nil && final.State != StateDone {
		err = fmt.Errorf("job settled %s: %s", final.State, final.Error)
	}
	return pass{out.Bytes(), final.RunsExecuted, -1, final.RunsCached}, err
}

// within runs f under a deadline, so a sweep that never settles fails the
// test in seconds instead of hanging it. (The service engine needs none:
// its client calls carry a context deadline.)
func within(f func() (pass, error)) (pass, error) {
	type result struct {
		p   pass
		err error
	}
	done := make(chan result, 1)
	go func() {
		p, err := f()
		done <- result{p, err}
	}()
	select {
	case r := <-done:
		return r.p, r.err
	case <-time.After(90 * time.Second):
		return pass{}, errors.New("sweep did not finish within 90s")
	}
}

// TestSweepEnginesEquivalent is the sweep engine's one contract, checked
// through every driver: a scenario run on local slots, over the wire, or
// as a daemon job emits byte-identical JSONL (up to wall clocks and the
// cached flag) and accounts for every record the same way — and that
// stays true when the runs are not executed but adopted, from a resumed
// output file or from the record cache, including across a change of
// verify or tile_stats between the pass that produced the records and
// the pass that adopts them.
func TestSweepEnginesEquivalent(t *testing.T) {
	const runs = 4
	engines := []struct {
		name string
		run  func(*testing.T, variant, carry) (pass, error)
	}{
		{"local", runLocal},
		{"wire", runWire},
		{"service", runService},
	}
	on := variant{verify: true}
	cases := []struct {
		name          string
		first, second variant
		// adopted is how many of the second pass's records come from the
		// first pass instead of being executed.
		adopted int
		// torn cuts the first pass's output mid-way through its third
		// line before resuming from it.
		torn bool
	}{
		{"warm", on, on, runs, false},
		{"torn prefix", on, on, 2, true},
		{"verify on→off", on, variant{}, runs, false},
		{"verify off→on", variant{}, on, runs, false},
		{"tile_stats on→off", variant{verify: true, tiles: true}, on, runs, false},
		{"tile_stats off→on", on, variant{verify: true, tiles: true}, 0, false},
	}

	// The reference for each variant is a cold local run; every pass of
	// every engine is compared to it, so no engine is only ever compared
	// with itself.
	reference := map[variant]string{}
	want := func(v variant) string {
		if _, ok := reference[v]; !ok {
			p, err := runLocal(t, v, carry{})
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			reference[v] = simulated(p.out)
		}
		return reference[v]
	}

	check := func(t *testing.T, what string, v variant, p pass, executed, reused, cached int) {
		t.Helper()
		if got := simulated(p.out); got != want(v) {
			t.Fatalf("%s: records differ from a cold local run:\n got: %s\nwant: %s", what, got, want(v))
		}
		if p.reused < 0 {
			reused = -1
		}
		if p.executed != executed || p.reused != reused || p.cached != cached {
			t.Fatalf("%s: executed/reused/cached = %d/%d/%d, want %d/%d/%d",
				what, p.executed, p.reused, p.cached, executed, reused, cached)
		}
	}

	for _, e := range engines {
		for _, c := range cases {
			for _, via := range []string{"resume", "cache"} {
				if via == "resume" && e.name == "service" || via == "cache" && c.torn {
					continue
				}
				t.Run(e.name+"/"+c.name+"/"+via, func(t *testing.T) {
					// The cache lives on disk and is reopened for the
					// second pass, so adoption crosses cache instances.
					dir := t.TempDir()
					open := func() *recordcache.Cache {
						if via != "cache" {
							return nil
						}
						cache, err := recordcache.Open(recordcache.Options{Dir: dir})
						if err != nil {
							t.Fatal(err)
						}
						return cache
					}

					cache := open()
					cold, err := e.run(t, c.first, carry{cache: cache})
					if err != nil {
						t.Fatalf("cold pass: %v", err)
					}
					check(t, "cold pass", c.first, cold, runs, 0, 0)
					if cache != nil {
						cache.Close()
					}

					next := carry{cache: open()}
					if next.cache != nil {
						defer next.cache.Close()
					}
					if via == "resume" {
						prefix := cold.out
						if c.torn {
							lines := bytes.SplitAfter(prefix, []byte("\n"))
							cut := len(lines[0]) + len(lines[1]) + len(lines[2])/2
							// A resuming reader keeps the complete lines
							// (graphite-sweep's readResume; CI resumes a
							// torn file through it).
							prefix = prefix[:bytes.LastIndexByte(prefix[:cut], '\n')+1]
						}
						if next.resume, err = scenario.ReadJSONL(bytes.NewReader(prefix)); err != nil {
							t.Fatal(err)
						}
					}
					second, err := e.run(t, c.second, next)
					if err != nil {
						t.Fatalf("second pass: %v", err)
					}
					reused, cached := c.adopted, 0
					if via == "cache" {
						reused, cached = 0, c.adopted
					}
					check(t, "second pass", c.second, second, runs-c.adopted, reused, cached)
					if flagged := strings.Count(string(second.out), `"cached":true`); flagged != cached {
						t.Fatalf("second pass: %d records flagged cached, want %d", flagged, cached)
					}
				})
			}
		}
	}
}
