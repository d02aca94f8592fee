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
//   - TCP: a ChannelFabric holding this process's endpoints, plus sockets
//     with length-prefixed framing to the other processes, for genuinely
//     distributed simulations (graphite -fork, or -proc N -hosts …; see
//     internal/core/launch).
//
// Both hand out the same Endpoint. Delivery is reliable and per-sender
// FIFO. Mailboxes are unbounded: transport-level sends never block, which
// is what makes the higher-level memory protocol deadlock-free (a tile can
// always answer an invalidation even while its own core blocks on a miss).
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
	Register(id EndpointID) (*Endpoint, error)
	// Send delivers data to dst, which may live in any process.
	// The data slice is owned by the transport after the call.
	Send(dst EndpointID, data []byte) error
	// SendBatch delivers frames to dst in order, as one fabric operation.
	// It is semantically identical to calling Send once per frame but lets
	// backends amortize locking, socket flushes, and receiver wakeups across
	// the whole batch. Like Send it never blocks on the receiver. Each
	// frame's byte slice is owned by the transport after the call, but the
	// containing frames slice reverts to the caller when SendBatch
	// returns — implementations must copy the frame references out before
	// returning (senders recycle the container across batches).
	SendBatch(dst EndpointID, frames [][]byte) error
	// Close shuts down the transport; blocked Recv calls return ErrClosed.
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

// Endpoint is the receive side of one endpoint ID: an unbounded FIFO of
// messages, stored in a ring buffer so steady-state traffic recycles one
// allocation instead of regrowing an append-and-reslice queue (the head
// capacity of a sliced queue is unrecoverable, so it reallocates
// continuously under load).
type Endpoint struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    [][]byte // ring of count frames starting at head
	head   int
	count  int
	closed bool
	// claimed is set by Register. An unclaimed endpoint holds frames that
	// another process sent before the local Register; it is guarded by the
	// owning fabric's mu, not by the endpoint's.
	claimed bool
}

func newEndpoint() *Endpoint {
	// The ring starts at its steady-state minimum so the first messages of
	// a simulation don't each pay a growth step; construction of all
	// mailboxes is one allocation sweep instead of load-triggered regrowth.
	e := &Endpoint{buf: make([][]byte, 16)}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// grow ensures room for n more frames. Called with mu held.
func (e *Endpoint) grow(n int) {
	if e.count+n <= len(e.buf) {
		return
	}
	newCap := len(e.buf) * 2
	if newCap < 16 {
		newCap = 16
	}
	for newCap < e.count+n {
		newCap *= 2
	}
	nb := make([][]byte, newCap)
	for i := 0; i < e.count; i++ {
		nb[i] = e.buf[(e.head+i)%len(e.buf)]
	}
	e.buf, e.head = nb, 0
}

func (e *Endpoint) push(data []byte) {
	e.grow(1)
	e.buf[(e.head+e.count)%len(e.buf)] = data
	e.count++
}

func (e *Endpoint) pop() []byte {
	data := e.buf[e.head]
	e.buf[e.head] = nil
	e.head = (e.head + 1) % len(e.buf)
	e.count--
	return data
}

func (e *Endpoint) put(data []byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.push(data)
	e.cond.Signal()
	return nil
}

// putBatch appends a whole batch under one lock acquisition and wakes the
// receiver once, preserving the order of frames.
func (e *Endpoint) putBatch(frames [][]byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.grow(len(frames))
	for _, f := range frames {
		e.buf[(e.head+e.count)%len(e.buf)] = f
		e.count++
	}
	// Broadcast, not Signal: with more than one message queued, several
	// concurrent Recv callers can all make progress.
	if len(frames) > 1 {
		e.cond.Broadcast()
	} else {
		e.cond.Signal()
	}
	return nil
}

// Recv blocks until a message arrives and returns it. It returns
// ErrClosed after Close.
func (e *Endpoint) Recv() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.count == 0 && !e.closed {
		e.cond.Wait()
	}
	if e.count == 0 {
		return nil, ErrClosed
	}
	return e.pop(), nil
}

// TryRecv returns the next message without blocking; ok reports whether
// one was available.
func (e *Endpoint) TryRecv() (data []byte, ok bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.count == 0 {
		if e.closed {
			return nil, false, ErrClosed
		}
		return nil, false, nil
	}
	return e.pop(), true, nil
}

// Close closes only this endpoint.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	e.cond.Broadcast()
	return nil
}

// ChannelFabric is an in-memory fabric shared by every simulated process
// of one simulation. Create it once, then hand each process its Transport
// via Process. A TCP transport keeps its own process's endpoints in one.
//
// Tile endpoints (non-negative IDs) live in a dense array, sized up front
// when the tile count is known (NewChannelFabricSized): every send then
// resolves its destination with an array index instead of a hash lookup,
// and constructing a thousand-tile simulation performs one slice
// allocation rather than growing a map through its rehash schedule. The
// handful of control endpoints (MCP, LCPs — negative IDs) stay in a small
// map off the hot path, and so does every endpoint that holds early frames
// and is not registered yet.
type ChannelFabric struct {
	mu    sync.RWMutex
	tiles []*Endpoint              // dense, indexed by tile endpoint ID
	ctrl  map[EndpointID]*Endpoint // MCP, LCPs, and unclaimed endpoints
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

// NewChannelFabricSized creates a fabric with the dense tile-endpoint
// array allocated up front for the given tile count.
func NewChannelFabricSized(route RouteFunc, tiles int) *ChannelFabric {
	return &ChannelFabric{
		tiles: make([]*Endpoint, tiles),
		ctrl:  make(map[EndpointID]*Endpoint),
		route: route,
	}
}

// Process returns the transport handle of process p.
func (f *ChannelFabric) Process(p arch.ProcID) Transport {
	return &channelTransport{fabric: f, proc: p}
}

// Close closes every endpoint on the fabric.
func (f *ChannelFabric) Close() error {
	f.close()
	return nil
}

// close closes every endpoint and reports whether this call did it.
func (f *ChannelFabric) close() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return false
	}
	f.done = true
	for _, e := range f.tiles {
		if e != nil {
			e.Close()
		}
	}
	for _, e := range f.ctrl {
		e.Close()
	}
	return true
}

func (f *ChannelFabric) closed() bool {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.done
}

// lookup returns dst's endpoint, claimed or not, or nil. Called with mu
// held.
func (f *ChannelFabric) lookup(dst EndpointID) *Endpoint {
	if dst >= 0 && int(dst) < len(f.tiles) && f.tiles[dst] != nil {
		return f.tiles[dst]
	}
	return f.ctrl[dst]
}

// register claims endpoint id for process p. An unclaimed endpoint that
// already holds early frames is claimed as it is, so those frames stay
// ahead of everything that arrives later.
func (f *ChannelFabric) register(p arch.ProcID, id EndpointID) (*Endpoint, error) {
	if owner := f.route(id); owner != p {
		return nil, fmt.Errorf("transport: endpoint %d owned by process %d, registered from %d", id, owner, p)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.done {
		return nil, ErrClosed
	}
	e := f.lookup(id)
	if e == nil {
		e = newEndpoint()
	} else if e.claimed {
		return nil, fmt.Errorf("transport: endpoint %d registered twice", id)
	}
	e.claimed = true
	if id < 0 {
		f.ctrl[id] = e
		return e, nil
	}
	delete(f.ctrl, id)
	for int(id) >= len(f.tiles) { // unsized fabric: amortized growth
		f.tiles = append(f.tiles, nil)
	}
	f.tiles[id] = e
	return e, nil
}

// hold delivers a frame that arrived from another process. A destination
// not registered yet gets an unclaimed endpoint in the control map that
// holds its frames until Register: processes finish DialTCP together but
// register endpoints at their own pace, so a fast peer's first frames can
// beat the local Register, and dropping them would lose protocol messages
// and hang the simulation. Frames arriving after Close are dropped — that
// is the shutdown race, and it is harmless because simulations quiesce
// before teardown.
func (f *ChannelFabric) hold(dst EndpointID, data []byte) {
	f.mu.RLock()
	e := f.lookup(dst)
	f.mu.RUnlock()
	if e == nil {
		f.mu.Lock()
		if e = f.lookup(dst); e == nil && !f.done {
			e = newEndpoint()
			f.ctrl[dst] = e
		}
		f.mu.Unlock()
		if e == nil {
			return
		}
	}
	e.put(data)
}

// box returns dst's endpoint for a send from this process, which may
// reach only a registered endpoint.
func (f *ChannelFabric) box(dst EndpointID) (*Endpoint, error) {
	f.mu.RLock()
	e := f.lookup(dst)
	claimed := e != nil && e.claimed
	done := f.done
	f.mu.RUnlock()
	if done {
		return nil, ErrClosed
	}
	if !claimed {
		return nil, fmt.Errorf("transport: send to unregistered endpoint %d", dst)
	}
	return e, nil
}

func (f *ChannelFabric) send(dst EndpointID, data []byte) error {
	e, err := f.box(dst)
	if err != nil {
		return err
	}
	return e.put(data)
}

func (f *ChannelFabric) sendBatch(dst EndpointID, frames [][]byte) error {
	if len(frames) == 0 {
		return nil
	}
	e, err := f.box(dst)
	if err != nil {
		return err
	}
	return e.putBatch(frames)
}

type channelTransport struct {
	fabric *ChannelFabric
	proc   arch.ProcID
}

// Register implements Transport.
func (t *channelTransport) Register(id EndpointID) (*Endpoint, error) {
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
