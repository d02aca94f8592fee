package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/recordcache"
	"repro/internal/scenario"
	"repro/internal/scenario/dispatch"
	"repro/internal/service/client"
)

// testScenarioJSON is the same shape the dispatch tests use: a small
// verified sweep, single-threaded so records are byte-deterministic.
const testScenarioJSON = `{
  "name": "service-test",
  "preset": "small-cache",
  "size": "quick",
  "threads": 1,
  "seed": 1,
  "verify": true,
  "base": { "Tiles": 4 },
  "grids": [
    {
      "axes": [
        { "field": "workload", "values": ["radix", "fft"] },
        { "field": "line_size", "values": [32, 64] }
      ]
    }
  ]
}`

// replayRe strips the fields a daemon-served record may differ in from a
// locally executed one: wall clocks and the cached flag.
var replayRe = regexp.MustCompile(`,"(wall_sec":[0-9eE.+-]+|proc_wall_sec":\[[^]]*\]|cached":true)`)

func stripReplay(b []byte) string { return replayRe.ReplaceAllString(string(b), "") }

// newTestService spins up a Server (with cleanup) and an httptest front
// end, returning a client bound to it.
func newTestService(t *testing.T, opt Options) (*Server, *client.Client) {
	t.Helper()
	svc := New(opt)
	hs := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		svc.Close()
		hs.Close()
	})
	cl, err := client.New(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	return svc, cl
}

// testContext bounds every client call of a test, so a job that never
// settles fails the test in seconds instead of hanging it.
func testContext(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// referenceJSONL executes the test scenario locally and returns its
// stripped JSONL — the byte-identity baseline for daemon-served output.
func referenceJSONL(t *testing.T) string {
	t.Helper()
	sc, err := scenario.Parse(strings.NewReader(testScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	records, err := scenario.Run(sc, scenario.Options{Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := scenario.WriteJSONL(&buf, records); err != nil {
		t.Fatal(err)
	}
	return stripReplay(buf.Bytes())
}

// TestJobLifecycle is the service's core contract: submit → stream →
// resubmit-with-warm-cache. The daemon-served records must be
// byte-identical to local execution (up to wall clocks and the cached
// flag), the warm resubmission must simulate nothing, and /metrics must
// report the warm job's cache hits.
func TestJobLifecycle(t *testing.T) {
	cache, err := recordcache.Open(recordcache.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer cache.Close()
	svc, cl := newTestService(t, Options{Workers: 2, Cache: cache})
	ctx := testContext(t)
	want := referenceJSONL(t)

	// Cold submission: everything executes.
	st, err := cl.Submit(ctx, []byte(testScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued && st.State != StateRunning {
		t.Fatalf("fresh job in state %q", st.State)
	}
	if st.RunsTotal != 4 {
		t.Fatalf("runs_total = %d, want 4", st.RunsTotal)
	}
	var cold bytes.Buffer
	if n, err := cl.StreamRecords(ctx, st.ID, 0, &cold); err != nil || n != 4 {
		t.Fatalf("cold stream: %d lines, %v", n, err)
	}
	if got := stripReplay(cold.Bytes()); got != want {
		t.Fatalf("daemon-served records differ from local execution:\n got: %s\nwant: %s", got, want)
	}
	final, err := cl.WaitTerminal(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.RunsExecuted != 4 || final.RunsCached != 0 {
		t.Fatalf("cold job settled as %+v", final)
	}

	// Warm resubmission: the shared cache serves every run, nothing is
	// simulated.
	st2, err := cl.Submit(ctx, []byte(testScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	var warm bytes.Buffer
	if n, err := cl.StreamRecords(ctx, st2.ID, 0, &warm); err != nil || n != 4 {
		t.Fatalf("warm stream: %d lines, %v", n, err)
	}
	if got := stripReplay(warm.Bytes()); got != want {
		t.Fatalf("warm records differ from local execution:\n got: %s\nwant: %s", got, want)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(warm.Bytes()), []byte("\n")) {
		if !bytes.Contains(line, []byte(`"cached":true`)) {
			t.Fatalf("warm record not flagged cached: %s", line)
		}
	}
	final2, err := cl.WaitTerminal(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final2.State != StateDone || final2.RunsExecuted != 0 || final2.RunsCached != 4 {
		t.Fatalf("warm job settled as %+v", final2)
	}

	// ?from= resumes mid-stream: the suffix matches the cold read.
	var tail bytes.Buffer
	if n, err := cl.StreamRecords(ctx, st.ID, 2, &tail); err != nil || n != 2 {
		t.Fatalf("resumed stream: %d lines, %v", n, err)
	}
	coldLines := bytes.SplitAfter(cold.Bytes(), []byte("\n"))
	if want := string(coldLines[2]) + string(coldLines[3]); tail.String() != want {
		t.Fatalf("?from=2 suffix mismatch:\n got: %q\nwant: %q", tail.String(), want)
	}

	// Listing shows both jobs in submission order.
	jobs, err := cl.Jobs(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != st.ID || jobs[1].ID != st2.ID {
		t.Fatalf("job list %+v", jobs)
	}

	// Canceling a settled job is a conflict.
	if _, err := cl.Cancel(ctx, st.ID); err == nil {
		t.Fatal("cancel of a done job succeeded")
	} else {
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusConflict {
			t.Fatalf("cancel of a done job: %v, want HTTP 409", err)
		}
	}

	// /metrics reports the warm job's cache hits and the fleet size.
	body := httpGet(t, svc, "/metrics")
	for _, want := range []string{
		"graphited_cache_hits_total 4",
		"graphited_jobs_submitted_total 2",
		"graphited_runs_completed_total 8",
		"graphited_jobs{state=\"done\"} 2",
		"graphited_workers 2",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	if !strings.Contains(httpGet(t, svc, "/healthz"), "ok") {
		t.Fatal("healthz not ok")
	}
}

// httpGet fetches a path directly off the handler (no live listener
// needed for non-streaming routes).
func httpGet(t *testing.T, svc *Server, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec.Body.String()
}

// TestCancelRunningJob: with no fleet attached, a submitted job sits
// running forever; DELETE must settle it as failed, stamp every run with
// the cancel error, and end open record streams.
func TestCancelRunningJob(t *testing.T) {
	_, cl := newTestService(t, Options{Workers: -1})
	ctx := testContext(t)
	st, err := cl.Submit(ctx, []byte(testScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}

	// Open the stream before canceling: cancellation must release it.
	streamed := make(chan struct {
		n   int
		err error
	}, 1)
	var buf bytes.Buffer
	go func() {
		n, err := cl.StreamRecords(ctx, st.ID, 0, &buf)
		streamed <- struct {
			n   int
			err error
		}{n, err}
	}()

	if _, err := cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitTerminal(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "canceled") {
		t.Fatalf("canceled job settled as %+v", final)
	}
	res := <-streamed
	if res.err != nil || res.n != 4 {
		t.Fatalf("stream after cancel: %d lines, %v", res.n, res.err)
	}
	for _, line := range bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n")) {
		var rec scenario.Record
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("canceled stream line %q: %v", line, err)
		}
		if !strings.Contains(rec.Error, "canceled") {
			t.Fatalf("canceled run %d carries error %q", rec.Run, rec.Error)
		}
	}
}

// TestCancelWhileFleetRunning: DELETE of a job whose runs are executing on
// the in-process fleet settles it as failed at once — the run in flight
// burns to completion and its record is dropped with the connection —
// every record the fleet did not finish carries the cancel error, and the
// fleet's goroutines exit.
func TestCancelWhileFleetRunning(t *testing.T) {
	_, cl := newTestService(t, Options{Workers: 1})
	ctx := testContext(t)
	// 64 runs on one slot: long enough that the cancel lands mid-sweep.
	body := strings.Replace(testScenarioJSON, `"seed": 1,`, `"seed": 1, "repeats": 16,`, 1)
	st, err := cl.Submit(ctx, []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	// Once the first record is out, the slot is executing a later run.
	for {
		js, err := cl.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.RunsDone > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := cl.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitTerminal(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || !strings.Contains(final.Error, "canceled") {
		t.Fatalf("canceled job settled as %+v", final)
	}
	if final.RunsExecuted == 0 || final.RunsExecuted == final.RunsTotal || final.RunsDone != final.RunsTotal {
		t.Fatalf("cancel did not land mid-sweep: %+v", final)
	}

	// No leak: the fleet's slots return once their in-flight run ends.
	fleet := func() bool {
		buf := make([]byte, 1<<20)
		return bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("dispatch.Work"))
	}
	for deadline := time.Now().Add(30 * time.Second); fleet(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("fleet goroutines still running 30s after the cancel")
		}
	}

	// The abandoned run changed nothing: exactly the runs executed before
	// the cancel carry results, in a stream of all 64.
	after, err := cl.Job(ctx, st.ID)
	if err != nil || after.RunsExecuted != final.RunsExecuted {
		t.Fatalf("status moved after settling: %+v → %+v, %v", final, after, err)
	}
	var buf bytes.Buffer
	if n, err := cl.StreamRecords(ctx, st.ID, 0, &buf); err != nil || n != final.RunsTotal {
		t.Fatalf("stream: %d lines, %v", n, err)
	}
	if clean := final.RunsTotal - bytes.Count(buf.Bytes(), []byte(`"error":"dispatch: job canceled"`)); clean != final.RunsExecuted {
		t.Fatalf("%d records without the cancel error, want the %d executed", clean, final.RunsExecuted)
	}
}

// TestCancelQueuedJob: a job canceled while waiting for a slot never
// runs and serves an empty record stream.
func TestCancelQueuedJob(t *testing.T) {
	_, cl := newTestService(t, Options{Workers: -1, MaxActive: 1})
	ctx := testContext(t)
	// First job occupies the only slot (no workers — it never finishes).
	blocker, err := cl.Submit(ctx, []byte(testScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := cl.Submit(ctx, []byte(testScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := cl.Job(ctx, queued.ID); err != nil || st.State != StateQueued {
		t.Fatalf("second job state %v, %v", st.State, err)
	}
	if _, err := cl.Cancel(ctx, queued.ID); err != nil {
		t.Fatal(err)
	}
	final, err := cl.WaitTerminal(ctx, queued.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.RunsDone != 0 {
		t.Fatalf("canceled queued job settled as %+v", final)
	}
	var buf bytes.Buffer
	if n, err := cl.StreamRecords(ctx, queued.ID, 0, &buf); err != nil || n != 0 {
		t.Fatalf("canceled queued job streamed %d lines, %v", n, err)
	}
	if _, err := cl.Cancel(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerDeathRequeue: an external worker that takes a spec and dies
// must not lose the run — the coordinator requeues it and a healthy
// worker finishes the job. This is PR 3's requeue contract observed
// through the service's front door, using the same counting-fake-worker
// technique as the dispatch tests (the dispatch wire protocol is spoken
// inline here: length-prefixed JSON frames).
func TestWorkerDeathRequeue(t *testing.T) {
	_, cl := newTestService(t, Options{Workers: -1})
	ctx := testContext(t)
	st, err := cl.Submit(ctx, []byte(testScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}

	// The job advertises its coordinator for external workers.
	var addr string
	for deadline := time.Now().Add(5 * time.Second); ; {
		js, err := cl.Job(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if js.DispatchAddr != "" {
			addr = js.DispatchAddr
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never advertised a dispatch address")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Fake worker: hello, welcome, take one spec, die without replying.
	taken := takeSpecAndDie(t, addr)
	if taken != 1 {
		t.Fatalf("fake worker took %d specs, want 1", taken)
	}

	// A healthy worker completes the sweep — including the requeued run.
	done := make(chan error, 1)
	go func() { done <- dispatch.Work(addr, dispatch.WorkerOptions{Parallel: 2, DialTimeout: 5 * time.Second}) }()
	final, err := cl.WaitTerminal(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if werr := <-done; werr != nil {
		t.Fatalf("healthy worker: %v", werr)
	}
	if final.State != StateDone || final.RunsExecuted != final.RunsTotal {
		t.Fatalf("job settled as %+v, want done with every run executed", final)
	}
	var buf bytes.Buffer
	if n, err := cl.StreamRecords(ctx, st.ID, 0, &buf); err != nil || n != final.RunsTotal {
		t.Fatalf("stream: %d lines, %v", n, err)
	}
	if bytes.Contains(buf.Bytes(), []byte(`"error"`)) {
		t.Fatalf("worker death leaked an error record: %s", buf.Bytes())
	}
}

// takeSpecAndDie speaks just enough of the dispatch protocol to claim
// one spec and vanish: hello → welcome → spec → close.
func takeSpecAndDie(t *testing.T, addr string) int {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	writeFrame(t, conn, map[string]any{"type": "hello", "proto": 1, "primary": true})
	r := bufio.NewReader(conn)
	if m := readFrame(t, r); m["type"] != "welcome" {
		t.Fatalf("expected welcome, got %v", m)
	}
	taken := 0
	if m := readFrame(t, r); m["type"] == "spec" {
		taken++
	}
	return taken
}

func writeFrame(t *testing.T, conn net.Conn, m map[string]any) {
	t.Helper()
	payload, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4+len(payload))
	binary.LittleEndian.PutUint32(buf, uint32(len(payload)))
	copy(buf[4:], payload)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
}

func readFrame(t *testing.T, r *bufio.Reader) map[string]any {
	t.Helper()
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, payload); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(payload, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSubmitRejectsBadScenarios: validation failures surface on the POST
// with a diagnostic, not on a queued job later.
func TestSubmitRejectsBadScenarios(t *testing.T) {
	_, cl := newTestService(t, Options{Workers: -1})
	ctx := testContext(t)
	for _, bad := range []string{
		`not json`,
		`{"name":"x","grids":[]}`,
		`{"name":"x","typo_field":1,"grids":[{"axes":[]}]}`,
		`{"name":"x","workload":"no-such-kernel","grids":[{}]}`,
	} {
		_, err := cl.Submit(ctx, []byte(bad))
		var ae *client.APIError
		if !errors.As(err, &ae) || ae.Status != http.StatusBadRequest {
			t.Fatalf("submit(%q) = %v, want HTTP 400", bad, err)
		}
	}
	if _, err := cl.Job(ctx, "j999"); err == nil {
		t.Fatal("status of unknown job succeeded")
	}
}

// TestDrainRejectsNewJobs: after BeginDrain the daemon flips /healthz to
// 503 and refuses submissions, while status of existing jobs stays
// served.
func TestDrainRejectsNewJobs(t *testing.T) {
	svc, cl := newTestService(t, Options{Workers: -1})
	ctx := testContext(t)
	st, err := cl.Submit(ctx, []byte(testScenarioJSON))
	if err != nil {
		t.Fatal(err)
	}
	svc.BeginDrain()
	if err := cl.Health(ctx); err == nil {
		t.Fatal("healthz still ok while draining")
	}
	_, err = cl.Submit(ctx, []byte(testScenarioJSON))
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %v, want HTTP 503", err)
	}
	if _, err := cl.Job(ctx, st.ID); err != nil {
		t.Fatalf("status while draining: %v", err)
	}
	// Close (via cleanup) cancels the worker-less job; make sure that
	// settles rather than hanging the test binary.
	svc.Close()
	if final, err := cl.Job(ctx, st.ID); err != nil || final.State != StateFailed {
		t.Fatalf("drained job settled as %+v, %v", final, err)
	}
}

// TestMethodNotAllowed: the method-qualified route table turns wrong
// methods into 405s, not 404s.
func TestMethodNotAllowed(t *testing.T) {
	svc, _ := newTestService(t, Options{Workers: -1})
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/jobs", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/jobs = %d, want 405", rec.Code)
	}
}
