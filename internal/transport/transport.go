// Package transport implements Graphite's physical transport layer
// (paper §3.3.1): generic point-to-point byte delivery between simulation
// endpoints, abstracting whether two endpoints live in the same host
// process or on different ones.
//
// Endpoints are identified by integer IDs: target tiles use their tile
// number (0..Tiles-1), and simulator control threads use negative IDs (the
// MCP and one LCP per process). The network layer (internal/network) is
// built on top of this package; nothing above the network layer sends raw
// transport messages.
//
// Two implementations are provided, mirroring the paper's design where the
// TCP/IP backend is swappable:
//
//   - ChannelFabric: in-memory mailboxes, for single-OS-process
//     simulations and tests.
//   - TCP: real sockets with length-prefixed framing, for genuinely
//     distributed simulations (graphite -fork, or -proc N -hosts …; see
//     internal/core/launch).
//
// Delivery is reliable and per-sender FIFO. Mailboxes are unbounded:
// transport-level sends never block, which is what makes the higher-level
// memory protocol deadlock-free (a tile can always answer an invalidation
// even while its own core blocks on a miss).
package transport

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/arch"
)

// EndpointID addresses one logical receiver on the fabric.
type EndpointID int32

// MCP is the endpoint of the Master Control Program (one per simulation,
// hosted by process 0).
const MCP EndpointID = -1

// LCP returns the endpoint of the Local Control Program of process p.
func LCP(p arch.ProcID) EndpointID { return EndpointID(-2 - int32(p)) }

// LCPProc inverts LCP: it returns the process whose Local Control
// Program owns endpoint id, and whether id is an LCP endpoint at all.
// It is the single other site that knows the LCP encoding.
func LCPProc(id EndpointID) (arch.ProcID, bool) {
	if id >= -1 { // tiles and the MCP
		return 0, false
	}
	return arch.ProcID(-2 - int32(id)), true
}

// TileEndpoint returns the endpoint of a target tile.
func TileEndpoint(t arch.TileID) EndpointID { return EndpointID(t) }

// ErrClosed is returned by operations on a closed endpoint or transport.
var ErrClosed = errors.New("transport: closed")

// Transport is one process's handle on the fabric.
type Transport interface {
	// Register claims ownership of endpoint id in this process and
	// returns its receive handle. Each endpoint may be registered once,
	// and only by the process that owns it according to the routing map.
	Register(id EndpointID) (Endpoint, error)
	// Send delivers data to dst, which may live in any process.
	// The data slice is owned by the transport after the call.
	Send(dst EndpointID, data []byte) error
	// SendBatch delivers frames to dst in order, as one fabric operation.
	// It is semantically identical to calling Send once per frame but lets
	// backends amortize locking, wire framing, and receiver wakeups across
	// the whole batch. Like Send it never blocks on the receiver. Each
	// frame's byte slice is owned by the transport after the call, but the
	// containing frames slice reverts to the caller when SendBatch
	// returns — implementations must copy the frame references out before
	// returning (senders recycle the container across batches).
	SendBatch(dst EndpointID, frames [][]byte) error
	// Close shuts down the transport; pending Recv calls return ErrClosed.
	Close() error
}

// Endpoint is the receive side of one endpoint ID.
type Endpoint interface {
	// ID returns the endpoint's address.
	ID() EndpointID
	// Recv blocks until a message arrives and returns it. It returns
	// ErrClosed after Close.
	Recv() ([]byte, error)
	// TryRecv returns the next message without blocking; ok reports
	// whether one was available.
	TryRecv() (data []byte, ok bool, err error)
	// Close closes only this endpoint.
	Close() error
}

// RouteFunc maps an endpoint to the process that owns it.
type RouteFunc func(EndpointID) arch.ProcID

// StripedRoute returns the standard Graphite routing: tile t is owned by
// process t mod procs, LCP(p) by process p, and the MCP by process 0.
func StripedRoute(procs int) RouteFunc {
	return func(id EndpointID) arch.ProcID {
		switch {
		case id == MCP:
			return 0
		case id < 0: // LCP(p) == -2-p
			return arch.ProcID(-2 - int32(id))
		default:
			return arch.ProcID(int(id) % procs)
		}
	}
}

// mailbox is an unbounded FIFO of messages, stored in a ring buffer so
// steady-state traffic recycles one allocation instead of regrowing an
// append-and-reslice queue (the head capacity of a sliced queue is
// unrecoverable, so it reallocates continuously under load).
type mailbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    [][]byte // ring of count frames starting at head
	head   int
	count  int
	closed bool
	id     EndpointID
}

func newMailbox(id EndpointID) *mailbox {
	// The ring starts at its steady-state minimum so the first messages of
	// a simulation don't each pay a growth step; construction of all
	// mailboxes is one allocation sweep instead of load-triggered regrowth.
	m := &mailbox{id: id, buf: make([][]byte, 16)}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// grow ensures room for n more frames. Called with mu held.
func (m *mailbox) grow(n int) {
	if m.count+n <= len(m.buf) {
		return
	}
	newCap := len(m.buf) * 2
	if newCap < 16 {
		newCap = 16
	}
	for newCap < m.count+n {
		newCap *= 2
	}
	nb := make([][]byte, newCap)
	for i := 0; i < m.count; i++ {
		nb[i] = m.buf[(m.head+i)%len(m.buf)]
	}
	m.buf, m.head = nb, 0
}

func (m *mailbox) push(data []byte) {
	m.grow(1)
	m.buf[(m.head+m.count)%len(m.buf)] = data
	m.count++
}

func (m *mailbox) pop() []byte {
	data := m.buf[m.head]
	m.buf[m.head] = nil
	m.head = (m.head + 1) % len(m.buf)
	m.count--
	return data
}

func (m *mailbox) put(data []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.push(data)
	m.cond.Signal()
	return nil
}

// putBatch appends a whole batch under one lock acquisition and wakes the
// receiver once, preserving the order of frames.
func (m *mailbox) putBatch(frames [][]byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	m.grow(len(frames))
	for _, f := range frames {
		m.buf[(m.head+m.count)%len(m.buf)] = f
		m.count++
	}
	// Broadcast, not Signal: with more than one message queued, several
	// concurrent Recv callers can all make progress.
	if len(frames) > 1 {
		m.cond.Broadcast()
	} else {
		m.cond.Signal()
	}
	return nil
}

// ID implements Endpoint.
func (m *mailbox) ID() EndpointID { return m.id }

// Recv implements Endpoint.
func (m *mailbox) Recv() ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.count == 0 && !m.closed {
		m.cond.Wait()
	}
	if m.count == 0 {
		return nil, ErrClosed
	}
	return m.pop(), nil
}

// TryRecv implements Endpoint.
func (m *mailbox) TryRecv() ([]byte, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.count == 0 {
		if m.closed {
			return nil, false, ErrClosed
		}
		return nil, false, nil
	}
	return m.pop(), true, nil
}

// Close implements Endpoint.
func (m *mailbox) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
	return nil
}

// ChannelFabric is an in-memory fabric shared by every simulated process
// of one simulation. Create it once, then hand each process its Transport
// via Process.
//
// Tile mailboxes (non-negative endpoint IDs) live in a dense array, sized
// up front when the tile count is known (NewChannelFabricSized): every
// send then resolves its destination with an array index instead of a
// hash lookup, and constructing a thousand-tile simulation performs one
// slice allocation rather than growing a map through its rehash
// schedule. The handful of control endpoints (MCP, LCPs — negative IDs)
// stay in a small map off the hot path.
type ChannelFabric struct {
	mu    sync.RWMutex
	tiles []*mailbox              // dense, indexed by tile endpoint ID
	ctrl  map[EndpointID]*mailbox // MCP and LCPs (negative IDs)
	route RouteFunc
	done  bool
}

// NewChannelFabric creates a fabric using the given routing map. The map
// is consulted only to enforce registration ownership; in-memory delivery
// itself needs no routing. The tile array grows on demand; callers that
// know the tile count should use NewChannelFabricSized.
func NewChannelFabric(route RouteFunc) *ChannelFabric {
	return NewChannelFabricSized(route, 0)
}

// NewChannelFabricSized creates a fabric with the dense tile-mailbox
// array allocated up front for the given tile count.
func NewChannelFabricSized(route RouteFunc, tiles int) *ChannelFabric {
	return &ChannelFabric{
		tiles: make([]*mailbox, tiles),
		ctrl:  make(map[EndpointID]*mailbox),
		route: route,
	}
}

// Process returns the transport handle of process p.
func (f *ChannelFabric) Process(p arch.ProcID) Transport {
	return &channelTransport{fabric: f, proc: p}
}

// Close closes every mailbox on the fabric.
func (f *ChannelFabric) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return nil
	}
	f.done = true
	for _, b := range f.tiles {
		if b != nil {
			b.Close()
		}
	}
	for _, b := range f.ctrl {
		b.Close()
	}
	return nil
}

func (f *ChannelFabric) register(p arch.ProcID, id EndpointID) (Endpoint, error) {
	if owner := f.route(id); owner != p {
		return nil, fmt.Errorf("transport: endpoint %d owned by process %d, registered from %d", id, owner, p)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return nil, ErrClosed
	}
	if id < 0 {
		if _, dup := f.ctrl[id]; dup {
			return nil, fmt.Errorf("transport: endpoint %d registered twice", id)
		}
		b := newMailbox(id)
		f.ctrl[id] = b
		return b, nil
	}
	for int(id) >= len(f.tiles) { // unsized fabric: amortized growth
		f.tiles = append(f.tiles, nil)
	}
	if f.tiles[id] != nil {
		return nil, fmt.Errorf("transport: endpoint %d registered twice", id)
	}
	b := newMailbox(id)
	f.tiles[id] = b
	return b, nil
}

func (f *ChannelFabric) box(dst EndpointID) (*mailbox, error) {
	f.mu.RLock()
	var b *mailbox
	if dst >= 0 {
		if int(dst) < len(f.tiles) {
			b = f.tiles[dst]
		}
	} else {
		b = f.ctrl[dst]
	}
	done := f.done
	f.mu.RUnlock()
	if done {
		return nil, ErrClosed
	}
	if b == nil {
		return nil, fmt.Errorf("transport: send to unregistered endpoint %d", dst)
	}
	return b, nil
}

func (f *ChannelFabric) send(dst EndpointID, data []byte) error {
	b, err := f.box(dst)
	if err != nil {
		return err
	}
	return b.put(data)
}

func (f *ChannelFabric) sendBatch(dst EndpointID, frames [][]byte) error {
	if len(frames) == 0 {
		return nil
	}
	b, err := f.box(dst)
	if err != nil {
		return err
	}
	return b.putBatch(frames)
}

type channelTransport struct {
	fabric *ChannelFabric
	proc   arch.ProcID
}

// Register implements Transport.
func (t *channelTransport) Register(id EndpointID) (Endpoint, error) {
	return t.fabric.register(t.proc, id)
}

// Send implements Transport.
func (t *channelTransport) Send(dst EndpointID, data []byte) error {
	return t.fabric.send(dst, data)
}

// SendBatch implements Transport.
//
//graphite:hotpath
func (t *channelTransport) SendBatch(dst EndpointID, frames [][]byte) error {
	return t.fabric.sendBatch(dst, frames)
}

// Close implements Transport. Closing any process handle closes the whole
// fabric; simulations tear down all processes together.
func (t *channelTransport) Close() error { return t.fabric.Close() }
