package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
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
// the same hello.
const tcpProto = 4

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

	wg sync.WaitGroup
}

type tcpPeer struct {
	mu   sync.Mutex
	conn net.Conn
	w    *bufio.Writer
	hdr  [8]byte // frame header scratch, guarded by mu
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
	// must present a valid hello before its frames are trusted.
	accepted := make(chan error, 1)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		var err error
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
			t.wg.Add(1)
			go t.readLoop(conn)
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
		t.peers[p] = &tcpPeer{conn: conn, w: bufio.NewWriterSize(conn, 64<<10)}
	}
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
	conn, err := dialRetry(cfg.Addrs[p], cfg.DialTimeout)
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

func dialRetry(addr string, timeout time.Duration) (net.Conn, error) {
	deadline := time.Now().Add(timeout)
	var lastErr error
	for attempt := 0; ; attempt++ {
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("%w (gave up after %d attempts over %v)", lastErr, attempt+1, timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// readLoop delivers one inbound connection's frames, each an 8-byte
// header (payload length, destination) and the payload.
func (t *tcpTransport) readLoop(conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 64<<10)
	var hdr [8]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		if n > maxFrame {
			return
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return
		}
		t.local.hold(EndpointID(int32(binary.LittleEndian.Uint32(hdr[4:8]))), data)
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

// SendBatch implements Transport. A remote batch is its frames written
// back to back under the peer lock, with one flush.
//
//graphite:hotpath
func (t *tcpTransport) SendBatch(dst EndpointID, frames [][]byte) error {
	owner := t.cfg.Route(dst)
	if owner == t.cfg.Proc {
		return t.local.sendBatch(dst, frames)
	}
	// The remote path must observe Close just like the local path does:
	// after Close the peer connections are being torn down, and letting a
	// send race them surfaces as a raw bufio/conn write error instead of
	// the documented ErrClosed.
	if t.local.closed() {
		return ErrClosed
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
	defer p.mu.Unlock()
	binary.LittleEndian.PutUint32(p.hdr[4:8], uint32(int32(dst)))
	for _, f := range frames {
		binary.LittleEndian.PutUint32(p.hdr[0:4], uint32(len(f)))
		if _, err := p.w.Write(p.hdr[:]); err != nil {
			return t.closedOr(err)
		}
		if _, err := p.w.Write(f); err != nil {
			return t.closedOr(err)
		}
	}
	return t.closedOr(p.w.Flush())
}

// closedOr maps a peer write error to ErrClosed when Close raced the
// write: the pre-write closed check is check-then-act, so a Close landing
// between it and the conn write still surfaces here, and callers are
// promised ErrClosed — not a raw "use of closed network connection" —
// once Close has begun.
//
// A write error on a fabric that is NOT closing means a peer process is
// gone (killed, crashed, machine lost): the simulation cannot make
// progress without it, and every send path in the simulator treats
// ErrClosed — and only ErrClosed — as orderly teardown. So the first such
// error fails the whole fabric: Close the transport (idempotent, wakes
// every local receiver) and report ErrClosed, turning an unrecoverable
// distributed fault into the same local unwind a deliberate teardown
// takes. The supervisor (launch.Run, or graphited) decides whether to
// re-fork and replay.
func (t *tcpTransport) closedOr(err error) error {
	if err == nil {
		return nil
	}
	if t.local.closed() {
		return ErrClosed
	}
	fmt.Fprintf(os.Stderr, "transport: fabric write failed (peer process lost?): %v\n", err)
	t.Close()
	return ErrClosed
}

// Close implements Transport.
func (t *tcpTransport) Close() error {
	if !t.local.close() {
		return nil
	}
	if t.listener != nil {
		t.listener.Close()
	}
	for _, p := range t.peers {
		if p != nil {
			p.conn.Close()
		}
	}
	return nil
}
