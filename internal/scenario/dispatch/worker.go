package dispatch

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/scenario"
)

// WorkerOptions configures Work.
type WorkerOptions struct {
	// Parallel is how many specs this worker executes concurrently (it
	// opens one coordinator connection per slot); 0 means one per host
	// CPU. Serial sweeps clamp it to 1 — the coordinator says so in its
	// welcome, exactly like Sweep.Work runs a serial sweep on one slot.
	Parallel int
	// Progress, when non-nil, receives one line per executed run.
	Progress io.Writer
	// DialTimeout bounds connection establishment (default 30s). Dialing
	// retries until the deadline so workers may start before the
	// coordinator.
	DialTimeout time.Duration
}

// Work attaches to the coordinator at addr and executes specs until the
// coordinator says done. It returns nil on a clean sweep completion.
func Work(addr string, opt WorkerOptions) error {
	timeout := opt.DialTimeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	// The first connection decides the slot count: the welcome message
	// carries the sweep's serial constraint. It is also the process's
	// primary connection — the one the coordinator's WorkersExpected
	// gate counts.
	conn, r, welcome, err := attach(addr, timeout, true)
	if err != nil {
		return err
	}
	slots := opt.Parallel
	if slots <= 0 {
		slots = runtime.NumCPU()
	}
	if welcome.Serial {
		slots = 1
	}

	var natives scenario.NativeMemo
	var mu sync.Mutex
	var errs []error
	gotDone := false
	var wg sync.WaitGroup
	run := func(conn net.Conn, r *bufio.Reader) {
		defer wg.Done()
		defer conn.Close()
		err := workLoop(conn, r, &natives, opt.Progress)
		mu.Lock()
		if err != nil {
			errs = append(errs, err)
		} else {
			gotDone = true
		}
		mu.Unlock()
	}
	wg.Add(1)
	go run(conn, r)
	for s := 1; s < slots; s++ {
		conn, r, _, err := attach(addr, timeout, false)
		if err != nil {
			mu.Lock()
			errs = append(errs, err)
			mu.Unlock()
			break
		}
		wg.Add(1)
		go run(conn, r)
	}
	wg.Wait()
	// A clean done on any slot means the sweep completed; errors on the
	// other slots (a secondary attach racing the coordinator's shutdown,
	// a connection torn down after the last record) change nothing about
	// the outcome and must not fail the worker process.
	if gotDone {
		return nil
	}
	return errors.Join(errs...)
}

// attach dials the coordinator and completes the hello/welcome exchange.
// Only the primary connection retries the dial (workers may start before
// the coordinator); a secondary dial happens while a primary connection
// is already up, so a refusal means the coordinator finished or died and
// redialing it for the full timeout would only delay the worker's exit.
//
//graphite:wallclock dial retry loop: host-fleet startup timing (workers may start before the coordinator); no simulated state exists yet
func attach(addr string, timeout time.Duration, primary bool) (net.Conn, *bufio.Reader, *message, error) {
	deadline := time.Now().Add(timeout)
	var conn net.Conn
	var err error
	for {
		conn, err = net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			break
		}
		if !primary || time.Now().After(deadline) {
			return nil, nil, nil, fmt.Errorf("dispatch: dial coordinator %s: %w", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
	if err := writeMsg(conn, &message{Type: msgHello, Proto: protoVersion, Primary: primary}); err != nil {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("dispatch: hello: %w", err)
	}
	r := bufio.NewReaderSize(conn, 64<<10)
	m, err := readMsg(r)
	if err != nil {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("dispatch: welcome: %w", err)
	}
	if m.Type != msgWelcome || m.Proto != protoVersion {
		conn.Close()
		return nil, nil, nil, fmt.Errorf("dispatch: coordinator speaks %s/proto %d, want %s/proto %d", m.Type, m.Proto, msgWelcome, protoVersion)
	}
	return conn, r, m, nil
}

// workLoop serves one connection: execute every spec the coordinator
// sends, reply with the record, stop at done.
func workLoop(conn net.Conn, r *bufio.Reader, natives *scenario.NativeMemo, progress io.Writer) error {
	for {
		m, err := readMsg(r)
		if err != nil {
			return fmt.Errorf("dispatch: coordinator connection lost: %w", err)
		}
		switch m.Type {
		case msgSpec:
			if m.Spec == nil {
				return fmt.Errorf("dispatch: spec message without a spec")
			}
			rec := scenario.Execute(m.Spec)
			if m.Verify {
				natives.Fill(&rec)
			}
			if progress != nil {
				status := fmt.Sprintf("%d cycles", rec.SimCycles)
				if rec.Error != "" {
					status = "ERROR: " + rec.Error
				}
				fmt.Fprintf(progress, "run %d %s (%.3fs, %s)\n", rec.Run, rec.Workload, rec.WallSec, status)
			}
			if err := writeMsg(conn, &message{Type: msgRecord, Record: &rec}); err != nil {
				return fmt.Errorf("dispatch: send record: %w", err)
			}
		case msgDone:
			return nil
		default:
			return fmt.Errorf("dispatch: unexpected %q message", m.Type)
		}
	}
}
