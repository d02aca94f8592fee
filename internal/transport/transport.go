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
	"sync/atomic"

	"repro/internal/arch"
	"repro/internal/ring"
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
// messages.
type Endpoint struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames ring.Ring[[]byte]
	closed bool
	// notify is the readiness callback installed by SetNotify, or nil.
	notify func()
	// claimed is set by Register. An unclaimed endpoint holds frames that
	// another process sent before the local Register; it is guarded by the
	// owning fabric's mu, not by the endpoint's.
	claimed bool
}

func newEndpoint() *Endpoint {
	// The mailbox starts at the ring's steady-state minimum so the first
	// messages of a simulation don't each pay a growth step; construction
	// of all mailboxes is one allocation sweep instead of load-triggered
	// regrowth.
	e := &Endpoint{frames: ring.New[[]byte]()}
	e.cond = sync.NewCond(&e.mu)
	return e
}

func (e *Endpoint) put(data []byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	fire := e.readyFn()
	e.frames.Push(data)
	e.cond.Signal()
	e.mu.Unlock()
	if fire != nil {
		fire()
	}
	return nil
}

// putBatch appends a whole batch under one lock acquisition and wakes the
// receiver once, preserving the order of frames.
func (e *Endpoint) putBatch(frames [][]byte) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	fire := e.readyFn()
	e.frames.Grow(len(frames))
	for _, f := range frames {
		e.frames.Push(f)
	}
	// Broadcast, not Signal: with more than one message queued, several
	// concurrent Recv callers can all make progress.
	if len(frames) > 1 {
		e.cond.Broadcast()
	} else {
		e.cond.Signal()
	}
	e.mu.Unlock()
	if fire != nil {
		fire()
	}
	return nil
}

// readyFn returns the readiness callback a push about to land must fire:
// the installed one if the endpoint is empty, else nil. Called with mu
// held, before the push.
func (e *Endpoint) readyFn() func() {
	if e.frames.Len() == 0 {
		return e.notify
	}
	return nil
}

// SetNotify installs fn as the endpoint's readiness callback, for a
// consumer that drains with TryRecv instead of blocking in Recv. fn runs
// outside the endpoint lock and must not block. It fires when the
// endpoint goes from empty to non-empty, when it closes, and at install
// if frames are already held or the endpoint is already closed. A push to
// a non-empty endpoint fires nothing, so the consumer must drain until
// TryRecv finds the endpoint empty, or come back on its own.
func (e *Endpoint) SetNotify(fn func()) {
	e.mu.Lock()
	e.notify = fn
	ready := e.frames.Len() > 0 || e.closed
	e.mu.Unlock()
	if ready {
		fn()
	}
}

// Recv blocks until a message arrives and returns it. It returns
// ErrClosed after Close.
func (e *Endpoint) Recv() ([]byte, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for e.frames.Len() == 0 && !e.closed {
		e.cond.Wait()
	}
	if e.frames.Len() == 0 {
		return nil, ErrClosed
	}
	return e.frames.Pop(), nil
}

// TryRecv returns the next message without blocking; ok reports whether
// one was available.
func (e *Endpoint) TryRecv() (data []byte, ok bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.frames.Len() == 0 {
		if e.closed {
			return nil, false, ErrClosed
		}
		return nil, false, nil
	}
	return e.frames.Pop(), true, nil
}

// Close closes only this endpoint. The first Close fires the readiness
// callback.
func (e *Endpoint) Close() error {
	e.mu.Lock()
	var fire func()
	if !e.closed {
		fire = e.notify
	}
	e.closed = true
	e.cond.Broadcast()
	e.mu.Unlock()
	if fire != nil {
		fire()
	}
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
//
// A send reads the tile array without the fabric lock: the shards of
// every process send to tile endpoints all the time, and a read lock's
// shared counter would bounce between their CPUs on every frame. So the
// array holds atomic pointers, each set once by Register, and an unsized
// fabric grows it by publishing a copy; done is atomic for the same
// reason. A send that loads done before Close sets it may still reach an
// endpoint Close has not closed yet, as it could when it took the lock
// first; one that starts after fails with ErrClosed.
type ChannelFabric struct {
	mu    sync.RWMutex
	tiles atomic.Pointer[[]atomic.Pointer[Endpoint]] // registered tile endpoints by ID; grown under mu
	ctrl  map[EndpointID]*Endpoint                   // MCP, LCPs, and unclaimed endpoints
	route RouteFunc
	done  atomic.Bool // set under mu
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
	f := &ChannelFabric{ctrl: make(map[EndpointID]*Endpoint), route: route}
	ts := make([]atomic.Pointer[Endpoint], tiles)
	f.tiles.Store(&ts)
	return f
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
	if f.done.Load() {
		return false
	}
	f.done.Store(true)
	ts := *f.tiles.Load()
	for i := range ts {
		if e := ts[i].Load(); e != nil {
			e.Close()
		}
	}
	for _, e := range f.ctrl {
		e.Close()
	}
	return true
}

func (f *ChannelFabric) closed() bool { return f.done.Load() }

// tile returns registered tile endpoint dst, or nil. It takes no lock.
func (f *ChannelFabric) tile(dst EndpointID) *Endpoint {
	if ts := *f.tiles.Load(); dst >= 0 && int(dst) < len(ts) {
		return ts[dst].Load()
	}
	return nil
}

// lookup returns dst's endpoint, claimed or not, or nil. Called with mu
// held.
func (f *ChannelFabric) lookup(dst EndpointID) *Endpoint {
	if e := f.tile(dst); e != nil {
		return e
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
	if f.done.Load() {
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
	ts := *f.tiles.Load()
	if int(id) >= len(ts) { // unsized fabric: amortized growth
		grown := make([]atomic.Pointer[Endpoint], max(int(id)+1, 2*len(ts)))
		for i := range ts {
			grown[i].Store(ts[i].Load())
		}
		f.tiles.Store(&grown)
		ts = grown
	}
	ts[id].Store(e)
	return e, nil
}

// hold delivers frames for one destination that arrived from another
// process, in order and as one batch. A destination not registered yet
// gets an unclaimed endpoint in the control map that holds its frames
// until Register: processes finish DialTCP together but register
// endpoints at their own pace, so a fast peer's first frames can beat the
// local Register, and dropping them would lose protocol messages and hang
// the simulation. Frames arriving after Close are dropped — that
// is the shutdown race, and it is harmless because simulations quiesce
// before teardown.
func (f *ChannelFabric) hold(dst EndpointID, frames [][]byte) {
	f.mu.RLock()
	e := f.lookup(dst)
	f.mu.RUnlock()
	if e == nil {
		f.mu.Lock()
		if e = f.lookup(dst); e == nil && !f.done.Load() {
			e = newEndpoint()
			f.ctrl[dst] = e
		}
		f.mu.Unlock()
		if e == nil {
			return
		}
	}
	e.putBatch(frames)
}

// box returns dst's endpoint for a send from this process, which may
// reach only a registered endpoint. A tile endpoint is found without the
// fabric lock.
func (f *ChannelFabric) box(dst EndpointID) (*Endpoint, error) {
	e := f.tile(dst)
	if e == nil {
		f.mu.RLock()
		if e = f.ctrl[dst]; e != nil && !e.claimed {
			e = nil
		}
		f.mu.RUnlock()
	}
	if f.done.Load() {
		return nil, ErrClosed
	}
	if e == nil {
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
