package service

import (
	"bytes"
	"context"
	"sync"
)

// recordLog accumulates one job's JSONL output and hands complete lines
// to any number of concurrent streamers. The job's sweep is its only
// writer: SweepOptions.Out receives record i exactly when records 0..i
// are all complete (the sweep's flush discipline, DESIGN.md §10), so
// the log's line order IS run-index order and a streamer that has read i
// lines resumes losslessly from line i — that single property is what
// makes GET /v1/jobs/{id}/records?from= sound without any bookkeeping
// beyond a line count.
//
// Writes are buffered until a newline completes a record: the JSON
// encoder's write granularity is not part of its contract, and a torn
// line must never reach a client.
type recordLog struct {
	mu      sync.Mutex
	cond    *sync.Cond
	lines   [][]byte // complete JSONL lines, trailing newline included
	partial []byte
	closed  bool
	// onLine, when non-nil, is called (without the lock) once per
	// completed line — the runs-completed metrics hook.
	onLine func()
}

func newRecordLog(onLine func()) *recordLog {
	l := &recordLog{onLine: onLine}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// Write implements io.Writer for the sweep's SweepOptions.Out.
func (l *recordLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	completed := 0
	l.partial = append(l.partial, p...)
	for {
		i := bytes.IndexByte(l.partial, '\n')
		if i < 0 {
			break
		}
		line := make([]byte, i+1)
		copy(line, l.partial[:i+1])
		l.lines = append(l.lines, line)
		l.partial = l.partial[i+1:]
		completed++
	}
	if completed > 0 {
		l.cond.Broadcast()
	}
	l.mu.Unlock()
	if l.onLine != nil {
		for ; completed > 0; completed-- {
			l.onLine()
		}
	}
	return len(p), nil
}

// close marks the log complete: waiters past the last line get EOF
// instead of blocking. Idempotent.
func (l *recordLog) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// len reports how many complete lines the log holds.
func (l *recordLog) len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.lines)
}

// wait blocks until line i exists (returning it), the log closes with
// fewer lines (ok false: end of stream), or ctx is done (ok false).
// Returned lines are never mutated after publication, so callers may
// write them out without copying.
func (l *recordLog) wait(ctx context.Context, i int) (line []byte, ok bool) {
	// A context cancellation must wake the cond waiter; Broadcast without
	// holding the lock is explicitly allowed.
	stop := context.AfterFunc(ctx, l.cond.Broadcast)
	defer stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for i >= len(l.lines) && !l.closed && ctx.Err() == nil {
		l.cond.Wait()
	}
	if i < len(l.lines) && ctx.Err() == nil {
		return l.lines[i], true
	}
	return nil, false
}
