package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/arch"
)

// maxFrame bounds a single transport message (dst header + payload). The
// largest simulator messages are cache lines plus protocol headers and
// syscall buffers; 16 MiB is far above anything legitimate and protects
// against corrupt frames.
const maxFrame = 16 << 20

// helloMagic opens every fabric connection ("GMP\x01" little-endian). A
// peer that does not present it is not a Graphite transport at all —
// someone dialed the wrong port — and is rejected before any frame is
// interpreted.
const helloMagic = 0x01504D47

// tcpProto is the fabric wire-format version. It is pinned in the
// connection handshake: processes of one simulation may run on different
// machines from different builds, and a version skew must fail the dial
// loudly instead of mis-framing traffic. Bump on any change to the frame
// or handshake layout. Proto 4 has one frame format and both ends send
// the same hello; proto 5 ends every connection with closeHeader.
const tcpProto = 5

// closeHeader is the frame header a writer sends last, when its transport
// closes, unless its fabric failed. Its length is above maxFrame, so no
// data frame has it. A reader that sees it ends quietly; a connection
// that ends without it lost its peer, and fails the fabric.
var closeHeader = [8]byte{0xff, 0xff, 0xff, 0xff}

// encodeHello returns the 32-byte header each end of a fresh connection
// sends: magic, proto, total process count, the sender's ProcID, the
// fabric ID of the run, and the run generation.
func encodeHello(procs int, proc arch.ProcID, fabric, generation uint64) []byte {
	b := make([]byte, 32)
	binary.LittleEndian.PutUint32(b[0:4], helloMagic)
	binary.LittleEndian.PutUint32(b[4:8], tcpProto)
	binary.LittleEndian.PutUint32(b[8:12], uint32(procs))
	binary.LittleEndian.PutUint32(b[12:16], uint32(proc))
	binary.LittleEndian.PutUint64(b[16:24], fabric)
	binary.LittleEndian.PutUint64(b[24:32], generation)
	return b
}

// checkHello validates the hello of the other end of a connection and
// returns its ProcID. The process count and fabric ID catch two
// simulations misconfigured onto each other (auto-allocated localhost
// ports can be recycled between concurrent runs); the generation catches
// a zombie worker from a pre-recovery attempt dialing into the re-forked
// fabric. A zero fabric ID or generation means "unchecked" (manually
// launched multi-host runs share no generated ID); each is enforced only
// when both sides carry one.
func checkHello(b []byte, cfg *TCPConfig) (arch.ProcID, error) {
	if len(b) != 32 {
		return 0, fmt.Errorf("sent a %d-byte hello", len(b))
	}
	if m := binary.LittleEndian.Uint32(b[0:4]); m != helloMagic {
		return 0, fmt.Errorf("is not a graphite transport peer (magic %#x)", m)
	}
	if v := binary.LittleEndian.Uint32(b[4:8]); v != tcpProto {
		return 0, fmt.Errorf("speaks transport proto %d, this build speaks %d", v, tcpProto)
	}
	if n := binary.LittleEndian.Uint32(b[8:12]); n != uint32(cfg.Procs) {
		return 0, fmt.Errorf("belongs to a %d-process fabric, this one has %d", n, cfg.Procs)
	}
	if f := binary.LittleEndian.Uint64(b[16:24]); f != 0 && cfg.FabricID != 0 && f != cfg.FabricID {
		return 0, fmt.Errorf("belongs to a different run (fabric %#x, this one is %#x)", f, cfg.FabricID)
	}
	if g := binary.LittleEndian.Uint64(b[24:32]); g != 0 && cfg.Generation != 0 && g != cfg.Generation {
		return 0, fmt.Errorf("belongs to run generation %d, this fabric is generation %d", g, cfg.Generation)
	}
	from := binary.LittleEndian.Uint32(b[12:16])
	if from >= uint32(cfg.Procs) || arch.ProcID(from) == cfg.Proc {
		return 0, fmt.Errorf("claims invalid process ID %d", from)
	}
	return arch.ProcID(from), nil
}

// TCPConfig configures one process's attachment to a TCP fabric.
type TCPConfig struct {
	// Proc is this process's ID.
	Proc arch.ProcID
	// Procs is the total process count.
	Procs int
	// Addrs lists the listen address of every process, indexed by ProcID.
	Addrs []string
	// Route maps endpoints to owning processes.
	Route RouteFunc
	// DialTimeout bounds how long to wait for peers to come up.
	DialTimeout time.Duration
	// FabricID identifies this run; the handshake rejects peers carrying
	// a different non-zero ID, so two simulations racing over recycled
	// localhost ports cannot cross-connect. Zero disables the check.
	FabricID uint64
	// Generation is the recovery attempt number of this run (0 or 1 for
	// a first launch, incremented on each re-fork after a worker loss).
	// The handshake rejects peers carrying a different non-zero
	// generation, so a zombie worker from a dead attempt cannot join the
	// replacement fabric. Zero disables the check.
	Generation uint64
}

// tcpTransport implements Transport as a ChannelFabric of this process's
// endpoints plus a full mesh of TCP connections. The connection dialed
// from p to q carries only p→q traffic; each process accepts Procs-1
// inbound connections and delivers their frames into its fabric.
type tcpTransport struct {
	cfg      TCPConfig
	local    *ChannelFabric
	listener net.Listener
	peers    []*tcpPeer // indexed by ProcID; nil for self

	// readers counts the running read loops, and faults the faults fail
	// reported, so tests can tell an orderly teardown from a lost peer.
	// failed is set by fail before it closes the transport: a failed
	// fabric's connections end without closeHeader, so its peers fail too
	// instead of taking its end for a teardown.
	readers sync.WaitGroup
	faults  atomic.Int32
	failed  atomic.Bool
}

// tcpPeer is the sending half of the connection to one other process.
// Senders append framed bytes to pending and return; one writer goroutine
// (writeLoop) writes everything appended since its last write with one
// conn.Write. So remote sends never block on the socket or on another
// sender's syscall, and a burst of sends from many goroutines costs one
// syscall, not one each.
//
// Invariants:
//   - Bytes reach the socket in append order: only the writer writes, and
//     it takes pending whole. Per-sender FIFO follows, and so does the
//     rule that a memory server's batched sends precede those of the core
//     it then wakes (DESIGN.md §7): both are appended, in that order.
//   - pending and the writer's buffer never share a backing array. Senders
//     append only to pending, the writer writes only its own buffer, and
//     the two are exchanged whole, under mu, and only when pending holds
//     bytes.
//   - Once closed is set nothing is appended, so the writer's last swap,
//     which sees closed, takes every frame a sender was told was sent.
type tcpPeer struct {
	conn net.Conn
	kick chan struct{} // 1-slot: pending went non-empty, or the peer closed
	done chan struct{} // closed when the writer has exited

	mu      sync.Mutex
	pending []byte // frames (8-byte header, payload) not yet swapped out
	closed  bool

	writes atomic.Int64 // conn.Write calls, for tests and benchmarks
}

// closeFlushTimeout bounds how long Close spends writing what senders
// appended before it: ample for a teardown ack to a live peer, and a peer
// that has stopped reading cannot hold Close longer.
const closeFlushTimeout = time.Second

// maxIdleBuf caps the capacity the writer keeps for reuse, so one
// outsized burst does not pin its buffer for the rest of the run.
const maxIdleBuf = 1 << 20

// readSlab is the size of the slabs inbound payloads are carved from;
// payloads above a quarter slab get their own allocation.
const readSlab = 16 << 10

// newTCPPeer wraps an established outbound connection. Its writer is
// started separately (go t.writeLoop), and Close stops it.
func newTCPPeer(conn net.Conn) *tcpPeer {
	return &tcpPeer{conn: conn, kick: make(chan struct{}, 1), done: make(chan struct{})}
}

// DialTCP attaches process cfg.Proc to the fabric: it listens on its own
// address, dials every other process (retrying until DialTimeout), and
// starts reader goroutines for inbound connections. All processes must
// call DialTCP concurrently.
func DialTCP(cfg TCPConfig) (Transport, error) {
	if cfg.Procs <= 0 || int(cfg.Proc) >= cfg.Procs {
		return nil, fmt.Errorf("transport: bad proc %d of %d", cfg.Proc, cfg.Procs)
	}
	if len(cfg.Addrs) != cfg.Procs {
		return nil, fmt.Errorf("transport: %d addrs for %d procs", len(cfg.Addrs), cfg.Procs)
	}
	if cfg.Route == nil {
		cfg.Route = StripedRoute(cfg.Procs)
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = 30 * time.Second
	}
	ln, err := net.Listen("tcp", cfg.Addrs[cfg.Proc])
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addrs[cfg.Proc], err)
	}
	t := &tcpTransport{
		cfg:      cfg,
		local:    NewChannelFabric(cfg.Route),
		listener: ln,
		peers:    make([]*tcpPeer, cfg.Procs),
	}

	// Accept inbound connections from the other Procs-1 processes. Each
	// must present a valid hello before its frames are trusted. Their
	// read loops start once the dial loop below has built the peer table:
	// a reader that finds its peer gone fails the fabric, and that closes
	// every peer in the table.
	dialed := make(chan struct{})
	accepted := make(chan error, 1)
	go func() {
		var err error
		var conns []net.Conn
		seen := make(map[arch.ProcID]bool)
		for i := 0; i < cfg.Procs-1; i++ {
			conn, aerr := ln.Accept()
			if aerr != nil {
				err = aerr
				break
			}
			from, herr := handshake(conn, &t.cfg)
			if herr == nil && seen[from] {
				herr = fmt.Errorf("process %d connected twice", from)
			}
			if herr != nil {
				err = herr
				conn.Close()
				break
			}
			seen[from] = true
			conns = append(conns, conn)
		}
		<-dialed
		for _, conn := range conns {
			t.readers.Add(1)
			go func() {
				defer t.readers.Done()
				t.readLoop(conn)
			}()
		}
		accepted <- err
	}()

	// Dial outbound connections.
	var dialErr error
	for p := 0; p < cfg.Procs; p++ {
		if arch.ProcID(p) == cfg.Proc {
			continue
		}
		conn, err := dialPeer(&t.cfg, p)
		if err != nil {
			dialErr = err
			break
		}
		if tc, ok := conn.(*net.TCPConn); ok {
			tc.SetNoDelay(true)
		}
		t.peers[p] = newTCPPeer(conn)
		go t.writeLoop(t.peers[p])
	}
	close(dialed)
	if dialErr != nil {
		t.Close()
		return nil, dialErr
	}
	if err := <-accepted; err != nil {
		t.Close()
		return nil, fmt.Errorf("transport: accept: %w", err)
	}
	return t, nil
}

// handshake sends this process's hello on a fresh connection, reads the
// other end's, and returns its ProcID. Dialer and acceptor run the same
// exchange; each sends first, so a rejected peer still learns why.
func handshake(conn net.Conn, cfg *TCPConfig) (arch.ProcID, error) {
	conn.SetDeadline(time.Now().Add(cfg.DialTimeout))
	defer conn.SetDeadline(time.Time{})
	if _, err := conn.Write(encodeHello(cfg.Procs, cfg.Proc, cfg.FabricID, cfg.Generation)); err != nil {
		return 0, fmt.Errorf("writing hello to %s: %w", conn.RemoteAddr(), err)
	}
	var hello [32]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		return 0, fmt.Errorf("reading hello from %s: %w", conn.RemoteAddr(), err)
	}
	from, err := checkHello(hello[:], cfg)
	if err != nil {
		return 0, fmt.Errorf("peer %s %w", conn.RemoteAddr(), err)
	}
	return from, nil
}

// dialPeer connects to process p (retrying until the config deadline —
// peers of a multi-host launch come up in any order) and completes the
// handshake.
func dialPeer(cfg *TCPConfig, p int) (net.Conn, error) {
	conn, err := DialRetry(cfg.Addrs[p], cfg.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial proc %d (%s): %w", p, cfg.Addrs[p], err)
	}
	from, err := handshake(conn, cfg)
	if err == nil && int(from) != p {
		err = fmt.Errorf("answered as process %d", from)
	}
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: handshake with proc %d (%s): %w", p, cfg.Addrs[p], err)
	}
	return conn, nil
}

// DialRetry dials addr over TCP every 10 ms until it connects or timeout
// has passed; a zero timeout makes one attempt. Processes of a
// distributed run, and sweep workers and their coordinator, come up in
// any order. The error gives the attempt count.
//
//graphite:wallclock dial retry loop: host startup timing (peers come up in any order); no simulated state exists yet
func DialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	for attempt := 1; ; attempt++ {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		if !time.Now().Before(deadline) {
			return nil, fmt.Errorf("%w (gave up after %d attempts over %v)", err, attempt, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readLoop delivers one inbound connection's frames, each an 8-byte
// header (payload length, destination) and the payload. A run of
// consecutive frames for one destination reaches its mailbox as one batch
// (one lock, one readiness callback), and the run is delivered before the
// loop may block on the socket, so no frame waits on bytes that have not
// arrived. Payloads are carved from a per-connection slab, as
// network.FrameArena carves outbound frames. The stream ends with
// closeHeader. A stream that ends without it means the peer process is
// gone, and a frame longer than maxFrame means the stream is corrupt:
// either fails the fabric, since the receivers would otherwise wait
// forever for frames that will not come.
func (t *tcpTransport) readLoop(conn net.Conn) {
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 64<<10)
	var (
		hdr  [8]byte
		run  [][]byte // frames for dst not yet delivered
		dst  EndpointID
		slab []byte
	)
	deliver := func() {
		if len(run) > 0 {
			t.local.hold(dst, run)
			clear(run)
			run = run[:0]
		}
	}
	for {
		if r.Buffered() < len(hdr) {
			deliver()
		}
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			t.fail(fmt.Errorf("connection from %s lost: %w", conn.RemoteAddr(), err))
			return
		}
		if hdr == closeHeader {
			deliver()
			return
		}
		n := int(binary.LittleEndian.Uint32(hdr[0:4]))
		if n > maxFrame {
			t.fail(fmt.Errorf("frame of %d bytes from %s exceeds the %d-byte limit", n, conn.RemoteAddr(), maxFrame))
			return
		}
		if to := EndpointID(int32(binary.LittleEndian.Uint32(hdr[4:8]))); to != dst || r.Buffered() < n {
			deliver()
			dst = to
		}
		var data []byte
		if n > readSlab/4 {
			data = make([]byte, n)
		} else {
			if n > len(slab) {
				slab = make([]byte, readSlab)
			}
			data, slab = slab[:n:n], slab[n:]
		}
		if _, err := io.ReadFull(r, data); err != nil {
			t.fail(fmt.Errorf("connection from %s lost mid-frame: %w", conn.RemoteAddr(), err))
			return
		}
		run = append(run, data)
	}
}

// Register implements Transport.
func (t *tcpTransport) Register(id EndpointID) (*Endpoint, error) {
	return t.local.register(t.cfg.Proc, id)
}

// Send implements Transport: a batch of one.
func (t *tcpTransport) Send(dst EndpointID, data []byte) error {
	one := [1][]byte{data}
	return t.SendBatch(dst, one[:])
}

// SendBatch implements Transport. A remote batch is its frames appended
// to the peer's pending bytes under the peer lock; the peer's writer puts
// them on the wire. It never waits for the socket.
//
//graphite:hotpath
func (t *tcpTransport) SendBatch(dst EndpointID, frames [][]byte) error {
	owner := t.cfg.Route(dst)
	if owner == t.cfg.Proc {
		return t.local.sendBatch(dst, frames)
	}
	if int(owner) >= len(t.peers) || t.peers[owner] == nil {
		return fmt.Errorf("transport: no connection to process %d", owner) //graphite:alloc error path; a missing peer aborts the run
	}
	for _, f := range frames {
		if len(f) > maxFrame {
			return fmt.Errorf("transport: frame of %d bytes exceeds limit", len(f)) //graphite:alloc error path; no simulator message comes near the limit
		}
	}
	p := t.peers[owner]
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	idle := len(p.pending) == 0
	for _, f := range frames {
		p.pending = binary.LittleEndian.AppendUint32(p.pending, uint32(len(f)))
		p.pending = binary.LittleEndian.AppendUint32(p.pending, uint32(int32(dst)))
		p.pending = append(p.pending, f...) //graphite:alloc grows only until the two buffers the writer alternates fit a burst
	}
	kick := idle && len(p.pending) > 0
	p.mu.Unlock()
	if kick {
		p.wake()
	}
	return nil
}

// wake makes sure the writer runs again; a kick already queued will do.
func (p *tcpPeer) wake() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// writeLoop is p's writer. Each wake-up takes everything appended since
// the last one and writes it with one conn.Write, until Close has been
// seen and drained, with closeHeader after it, or a write fails.
func (t *tcpTransport) writeLoop(p *tcpPeer) {
	var out []byte // the writer's buffer; empty between writes
	var err error
	for last := false; !last && err == nil; {
		<-p.kick
		p.mu.Lock()
		last = p.closed
		if len(p.pending) > 0 {
			out, p.pending = p.pending, out
		}
		p.mu.Unlock()
		if last && !t.failed.Load() {
			out = append(out, closeHeader[:]...)
		}
		if len(out) == 0 {
			continue
		}
		_, err = p.conn.Write(out)
		p.writes.Add(1)
		if cap(out) > maxIdleBuf {
			out = nil
		} else {
			out = out[:0]
		}
	}
	close(p.done)
	if err != nil {
		t.fail(fmt.Errorf("fabric write failed (peer process lost?): %w", err))
	}
}

// fail handles a fault on a fabric that is not closing: a write error or
// a connection that ends without closeHeader means a peer process is gone
// (killed, crashed, machine lost), and a corrupt inbound frame means its
// stream cannot be trusted. Either way the
// simulation cannot make progress, and every path in the simulator treats
// ErrClosed — and only ErrClosed — as orderly teardown. So fail logs the
// fault and closes the transport (idempotent, wakes every local
// receiver), turning an unrecoverable distributed fault into the same
// local unwind a deliberate teardown takes. The supervisor (launch.Run,
// or graphited) decides whether to re-fork and replay. A fault on a
// fabric already closing is the teardown itself and is not logged.
func (t *tcpTransport) fail(err error) {
	if t.local.closed() {
		return
	}
	t.faults.Add(1)
	fmt.Fprintf(os.Stderr, "transport: %v\n", err)
	t.failed.Store(true)
	t.Close()
}

// Close implements Transport. Local receivers are woken first; then each
// writer writes what senders appended before Close, under a deadline of
// closeFlushTimeout (a worker's teardown ack and the coordinator's
// shutdown announcement are such frames), and only then are the
// connections closed. Sends after Close return ErrClosed.
func (t *tcpTransport) Close() error {
	if !t.local.close() {
		return nil
	}
	if t.listener != nil {
		t.listener.Close()
	}
	deadline := time.Now().Add(closeFlushTimeout)
	for _, p := range t.peers {
		if p != nil {
			p.conn.SetWriteDeadline(deadline)
			p.mu.Lock()
			p.closed = true
			p.mu.Unlock()
			p.wake()
		}
	}
	for _, p := range t.peers {
		if p != nil {
			<-p.done
			p.conn.Close()
		}
	}
	return nil
}
