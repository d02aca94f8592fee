package dispatch

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/scenario"
)

// Options configures a Coordinator.
type Options struct {
	// Addr is the listen address ("" means "127.0.0.1:0").
	Addr string
	// WorkersExpected gates dispatch: no spec is handed out until this
	// many worker processes have completed the hello exchange (each
	// process's first connection is marked primary; extra -parallel
	// connections don't count), so a sweep's work spreads across the
	// fleet instead of racing onto whichever worker connects first.
	// 0 dispatches immediately.
	WorkersExpected int
	// SweepOptions configure the sweep being served. Serial is forwarded
	// to workers in the welcome, Verify with every spec.
	scenario.SweepOptions
}

// Coordinator serves one sweep to remote workers: it owns the listener
// and the worker connections, and drives the embedded Sweep with what
// they deliver — Next feeds a connection, a record frame is a Complete, a
// dead connection is a Fail. Everything else about the sweep (adoption,
// verification, caching, ordering, output) is the Sweep's.
type Coordinator struct {
	*scenario.Sweep
	opt Options
	ln  net.Listener

	mu     sync.Mutex
	conns  map[net.Conn]struct{} // live worker connections (for Cancel)
	hellos int
	gate   chan struct{} // closed once WorkersExpected workers said hello

	handlers sync.WaitGroup
	accept   sync.WaitGroup
}

// NewCoordinator takes the specs of an already-expanded scenario (so the
// caller can log the expansion), builds their Sweep, starts listening,
// and begins serving. Call Wait to block until every record is in.
func NewCoordinator(specs []scenario.RunSpec, opt Options) (*Coordinator, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("dispatch: no runs to serve")
	}
	addr := opt.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dispatch: listen %s: %w", addr, err)
	}
	c := &Coordinator{
		Sweep: scenario.NewSweep(specs, opt.SweepOptions),
		opt:   opt,
		ln:    ln,
		conns: make(map[net.Conn]struct{}),
		gate:  make(chan struct{}),
	}
	if opt.WorkersExpected <= 0 {
		close(c.gate)
	}
	c.accept.Add(1)
	go c.acceptLoop()
	return c, nil
}

// Addr returns the coordinator's listen address (with the resolved port).
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Cancel cancels the sweep (Sweep.Cancel) and closes every live worker
// connection. Closing the connections bounds cancellation — a handler
// blocked on a slow or silent worker errors out immediately and its Fail
// finds the run already done — at the cost of discarding in-flight
// results. Wait still returns the full record set, with the canceled
// runs' errors joined into its error.
func (c *Coordinator) Cancel(reason string) {
	c.Sweep.Cancel(reason)
	c.mu.Lock()
	conns := make([]net.Conn, 0, len(c.conns))
	//graphite:maporder teardown close of a connection set; close order among dead-anyway peers is immaterial
	for conn := range c.conns {
		conns = append(conns, conn)
	}
	c.mu.Unlock()
	for _, conn := range conns {
		conn.Close()
	}
}

// Wait blocks until every run has a record (Sweep.Wait), then shuts the
// listener down and releases the workers.
func (c *Coordinator) Wait() ([]scenario.Record, error) {
	records, err := c.Sweep.Wait()
	// Stop accepting, then let every handler observe completion and send
	// its done message. Handlers never block indefinitely here: the hello
	// exchange runs under a deadline, and the gate and Next both open
	// when the sweep is done.
	c.ln.Close()
	c.accept.Wait()
	c.handlers.Wait()
	return records, err
}

func (c *Coordinator) acceptLoop() {
	defer c.accept.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return // listener closed by Wait
		}
		c.handlers.Add(1)
		go c.handle(conn)
	}
}

// handle owns one worker connection: hello/welcome, then a dispatch loop
// with exactly one spec in flight. Any error requeues the in-flight spec
// and abandons the connection; the sweep completes on the survivors.
func (c *Coordinator) handle(conn net.Conn) {
	defer c.handlers.Done()
	defer conn.Close()
	c.mu.Lock()
	c.conns[conn] = struct{}{}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.conns, conn)
		c.mu.Unlock()
	}()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		// Keepalive makes the requeue contract hold under silent
		// partition too: a blocking record read on a worker whose host
		// vanished without an RST must eventually error, or the
		// in-flight spec would never return to the queue.
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
	r := bufio.NewReaderSize(conn, 64<<10)

	// The handshake must not be able to wedge shutdown: a connection that
	// never says hello is dropped after the deadline.
	conn.SetReadDeadline(time.Now().Add(30 * time.Second)) //graphite:wallclock handshake I/O deadline; host-fleet liveness, invisible to simulation results
	m, err := readMsg(r)
	if err != nil || m.Type != msgHello || m.Proto != protoVersion {
		return
	}
	conn.SetReadDeadline(time.Time{})
	if err := writeMsg(conn, &message{Type: msgWelcome, Proto: protoVersion, Serial: c.opt.Serial}); err != nil {
		return
	}

	// Count the worker and hold dispatch until the expected fleet is up.
	// The gate is a start condition only: a counted worker that later
	// dies doesn't re-arm it — its in-flight spec requeues and survivors
	// (or late joiners) finish the sweep.
	if m.Primary {
		c.mu.Lock()
		c.hellos++
		if c.hellos == c.opt.WorkersExpected {
			close(c.gate)
		}
		// The serial clamp is per worker process; exclusivity across
		// processes is the operator's to provide (one worker per host),
		// so a serial sweep with several workers deserves a note.
		if c.opt.Serial && c.hellos == 2 && c.opt.Progress != nil {
			fmt.Fprintln(c.opt.Progress, "serial scenario with multiple workers: wall-clock honesty requires each worker to run on its own host")
		}
		c.mu.Unlock()
	}
	select {
	case <-c.gate:
	case <-c.Done():
	}

	for {
		i, spec, ok := c.Next()
		if !ok {
			// Sweep complete: release the worker cleanly.
			writeMsg(conn, &message{Type: msgDone})
			return
		}
		if err := writeMsg(conn, &message{Type: msgSpec, Verify: c.opt.Verify, Spec: spec}); err != nil {
			c.Fail(i)
			return
		}
		m, err := readMsg(r)
		if err != nil || m.Type != msgRecord || m.Record == nil || m.Record.Run != spec.Run {
			c.Fail(i)
			return
		}
		c.Complete(i, *m.Record)
	}
}
