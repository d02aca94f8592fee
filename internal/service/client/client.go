// Package client is the thin Go client of graphited's v1 API (see
// docs/API.md). It is deliberately dumb about records: StreamRecords
// copies the daemon's JSONL lines through verbatim, never decoding and
// re-encoding them, because byte-identity with graphite-sweep output is
// the service's contract and a round trip through json.Unmarshal would
// destroy it. graphite-sweep -submit is its only in-repo consumer, and
// doubles as its usage example.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"repro/internal/backoff"
)

// Client talks to one graphited daemon. The zero value is not usable;
// call New.
type Client struct {
	base string
	http *http.Client
}

// New builds a client for the daemon at baseURL (e.g.
// "http://127.0.0.1:9640"). The underlying http.Client has no overall
// timeout — record streams are open-ended — so bound calls with their
// contexts.
func New(baseURL string) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("client: base url %q: %w", baseURL, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return nil, fmt.Errorf("client: base url %q: want http:// or https://", baseURL)
	}
	return &Client{base: strings.TrimRight(u.String(), "/"), http: &http.Client{}}, nil
}

// JobStatus mirrors the daemon's job status document (docs/API.md).
//
//graphite:wire
type JobStatus struct {
	ID               string `json:"id"`
	State            string `json:"state"`
	Scenario         string `json:"scenario"`
	RunsTotal        int    `json:"runs_total"`
	RunsDone         int    `json:"runs_done"`
	RunsExecuted     int    `json:"runs_executed"`
	RunsCached       int    `json:"runs_cached"`
	RecordsAvailable int    `json:"records_available"`
	DispatchAddr     string `json:"dispatch_addr,omitempty"`
	Error            string `json:"error,omitempty"`
	CreatedAt        string `json:"created_at"`
	StartedAt        string `json:"started_at,omitempty"`
	FinishedAt       string `json:"finished_at,omitempty"`
}

// Terminal reports whether the job has settled (done or failed).
func (s *JobStatus) Terminal() bool { return s.State == "done" || s.State == "failed" }

// APIError is a non-2xx response, carrying the daemon's diagnostic.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("graphited: %s (HTTP %d)", e.Message, e.Status)
}

// Submit posts a scenario document (raw JSON, the graphite-sweep
// -scenario file format) and returns the created job's status.
func (c *Client) Submit(ctx context.Context, scenarioJSON []byte) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodPost, "/v1/jobs", scenarioJSON, &st)
	return st, err
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Jobs lists every job the daemon knows, in submission order.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &list)
	return list.Jobs, err
}

// Cancel cancels a job. The returned status is the snapshot at cancel
// time; a running job settles to failed asynchronously.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &st)
	return st, err
}

// Health checks /healthz; nil means the daemon answered 200.
func (c *Client) Health(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}

// streamRetries bounds StreamRecords' transparent reconnects: after
// this many consecutive connection attempts that deliver zero new
// records, the last transport error surfaces to the caller. Any
// received record resets the budget — a daemon that keeps making
// progress is retried indefinitely.
const streamRetries = 5

// errSink marks a failure of the caller's writer, as opposed to the
// daemon connection. Reconnecting cannot help — the same writer would
// fail again — so StreamRecords surfaces these immediately.
var errSink = errors.New("record sink write failed")

// StreamRecords copies the job's JSONL records from index from onward
// into w, line-verbatim, blocking until the daemon ends the stream (the
// job settled and every line was delivered). Dropped connections are
// retried transparently with capped exponential backoff, resuming at
// ?from=<lines already written> — the service's in-order flush makes
// the line index a stable cursor, so each record is written exactly
// once. Only transport faults are retried: API errors (the job does
// not exist, the daemon rejected the request) and failures of w
// surface immediately, as does ctx cancellation. It returns the number
// of complete lines written; partial lines are never written.
func (c *Client) StreamRecords(ctx context.Context, id string, from int, w io.Writer) (n int, err error) {
	retry := backoff.Backoff{Base: 100 * time.Millisecond, Cap: 5 * time.Second}
	for dry := 0; ; {
		m, err := c.streamOnce(ctx, id, from+n, w)
		n += m
		if err == nil {
			return n, nil
		}
		var apiErr *APIError
		if errors.As(err, &apiErr) || errors.Is(err, errSink) || ctx.Err() != nil {
			return n, err
		}
		if m > 0 {
			dry = 0
			retry.Reset()
		} else if dry++; dry >= streamRetries {
			return n, err
		}
		select {
		case <-ctx.Done():
			return n, fmt.Errorf("client: record stream: %w", ctx.Err())
		case <-time.After(retry.Next()):
		}
	}
}

// streamOnce is one connection's worth of StreamRecords: it opens the
// record stream at index from and copies lines into w until the daemon
// ends the stream or the connection drops.
func (c *Client) streamOnce(ctx context.Context, id string, from int, w io.Writer) (n int, err error) {
	path := "/v1/jobs/" + url.PathEscape(id) + "/records"
	if from > 0 {
		path += "?from=" + strconv.Itoa(from)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, fmt.Errorf("client: %w", err)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, decodeError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 64<<20) // records can embed per-tile stats
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		if _, err := w.Write(line); err != nil {
			return n, fmt.Errorf("client: %w: %v", errSink, err)
		}
		if _, err := w.Write([]byte("\n")); err != nil {
			return n, fmt.Errorf("client: %w: %v", errSink, err)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("client: record stream: %w", err)
	}
	return n, nil
}

// WaitTerminal polls the job until it settles (or ctx ends), returning
// the terminal status.
func (c *Client) WaitTerminal(ctx context.Context, id string) (JobStatus, error) {
	for {
		st, err := c.Job(ctx, id)
		if err != nil {
			return st, err
		}
		if st.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// do issues one JSON request/response exchange.
func (c *Client) do(ctx context.Context, method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// decodeError turns a non-2xx response into an *APIError, preserving the
// daemon's {"error": ...} diagnostic when present.
func decodeError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 64<<10))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return &APIError{Status: resp.StatusCode, Message: e.Error}
	}
	return &APIError{Status: resp.StatusCode, Message: strings.TrimSpace(string(body))}
}
