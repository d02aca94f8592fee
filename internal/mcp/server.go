package mcp

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/synchro"
	"repro/internal/transport"
	"repro/internal/wire"
)

// replyTo addresses a blocked requester.
type replyTo struct {
	src arch.TileID
	seq uint64
}

// threadRec tracks one application thread (thread ID == tile ID).
type threadRec struct {
	exited   bool
	exitTime arch.Cycles
	joiners  []replyTo
}

type lockWaiter struct {
	to        replyTo
	t         arch.Cycles
	replyType uint8 // MsgMutexLockRep or MsgCondRep
}

type mutexRec struct {
	locked   bool
	lastFree arch.Cycles
	queue    []lockWaiter
}

type barrierWaiter struct {
	to replyTo
	t  arch.Cycles
}

type barrierRec struct {
	waiters []barrierWaiter
}

type condWaiter struct {
	to    replyTo
	t     arch.Cycles
	mutex arch.Addr
}

type condRec struct {
	waiters []condWaiter
}

// Server is the Master Control Program. Exactly one exists per simulation,
// on host process 0. Run Serve in its own goroutine; it exits when the
// network closes.
type Server struct {
	cfg   *config.Config
	net   *network.Net
	alloc *Allocator

	threads     map[arch.ThreadID]*threadRec
	everStarted bool

	mutexes  map[arch.Addr]*mutexRec
	barriers map[arch.Addr]*barrierRec
	conds    map[arch.Addr]*condRec

	// round is every tile's LaxBarrier state; a tile is busy while it has
	// a thread. simBatch is decode scratch, reused across quanta.
	// releaseTo marks the processes the epoch being released wakes, and
	// holds a checkpoint's stashed release until the save completes.
	round     *synchro.Round
	simBatch  []SimWait
	releaseTo []bool

	// Checkpoint state machine (see checkpoint.go). All fields are
	// serve-goroutine-private except ckpt (set before Serve runs) and
	// ckptFailed (read by launchers).
	ckpt         *CheckpointPolicy
	ckptLast     int64
	ckptEpoch    int64
	ckptMCP      *checkpoint.MCPState
	ckptAcks     int
	ckptSent     uint64
	ckptRecv     uint64
	ckptQuiesced bool
	ckptPrevSent uint64
	ckptPrevRecv uint64
	ckptRounds   int
	ckptStart    time.Time // first probe of the checkpoint in progress
	ckptSaves    []CkptSaveResult
	ckptFailed   chan error

	statsCh chan []stats.Tile
	flushCh chan struct{}
	shutCh  chan shutdownAck
	doneCh  chan struct{}
	stopped chan struct{}

	// mu is held while the serve loop handles a message, so Report can
	// read the loop's state from another goroutine.
	mu sync.Mutex
}

// shutdownAck is one LCP's acknowledgement of teardown.
type shutdownAck struct {
	proc arch.ProcID
	wall time.Duration
}

// NewServer builds the MCP. net must be registered on the MCP endpoint.
func NewServer(cfg *config.Config, net *network.Net) *Server {
	return &Server{
		cfg:        cfg,
		net:        net,
		alloc:      NewAllocator(cfg.AS.HeapBase, cfg.AS.HeapSize),
		threads:    make(map[arch.ThreadID]*threadRec),
		round:      synchro.NewRound(cfg.Tiles),
		mutexes:    make(map[arch.Addr]*mutexRec),
		barriers:   make(map[arch.Addr]*barrierRec),
		conds:      make(map[arch.Addr]*condRec),
		releaseTo:  make([]bool, cfg.Processes),
		ckptFailed: make(chan error, 1),
		statsCh:    make(chan []stats.Tile, cfg.Processes),
		flushCh:    make(chan struct{}, cfg.Processes),
		shutCh:     make(chan shutdownAck, cfg.Processes),
		doneCh:     make(chan struct{}),
		stopped:    make(chan struct{}),
	}
}

// Done is closed when every application thread has exited.
func (s *Server) Done() <-chan struct{} { return s.doneCh }

// Stopped is closed when the serve loop exits.
func (s *Server) Stopped() <-chan struct{} { return s.stopped }

// StartMain launches the application's main thread (function 0, argument
// arg) on the lowest-numbered tile at simulated time 0. It must be called
// once, after Serve is running.
func (s *Server) StartMain(arg uint64) error {
	tile := s.pickTile()
	if tile == arch.InvalidTile {
		return fmt.Errorf("mcp: no tile available for main")
	}
	s.threads[arch.ThreadID(tile)] = &threadRec{}
	s.everStarted = true
	s.sendToLCP(tile, StartThread{Tile: tile, Func: 0, Arg: arg}, 0)
	return nil
}

// pickTile claims a tile for a new thread: the lowest tile that has never
// run one, or, once every tile has, the lowest free tile. Thread IDs are
// tile IDs and workloads address their neighbours by worker index
// (matmul's ring), so a program that spawns its workers in a row must find
// worker i on tile i whatever the order in which early finishers exit: a
// later spawn on a finished worker's tile would give two ring positions one
// ID, and their neighbours would wait forever. It also keeps an exited
// thread's record joinable until tiles run out.
func (s *Server) pickTile() arch.TileID {
	reuse := arch.InvalidTile
	for i := range s.cfg.Tiles {
		tile := arch.TileID(i)
		if s.round.State(tile) != synchro.Idle {
			continue
		}
		if s.threads[arch.ThreadID(i)] == nil {
			reuse = tile
			break
		}
		if reuse == arch.InvalidTile {
			reuse = tile
		}
	}
	if reuse != arch.InvalidTile {
		s.round.Step(reuse, synchro.Started, 0)
	}
	return reuse
}

func (s *Server) sendToLCP(tile arch.TileID, st StartThread, when arch.Cycles) {
	send(s.net, MsgStartThread, lcpTile(s.cfg.ProcOf(tile)), 0, EncodeStartThread(st), when)
}

func (s *Server) reply(typ uint8, to replyTo, payload []byte, when arch.Cycles) {
	send(s.net, typ, to.src, to.seq, payload, when)
}

// send sends a control message. One that races teardown (transport
// closed) is dropped: its receiver is torn down with the fabric.
func send(n *network.Net, typ uint8, dst arch.TileID, seq uint64, payload []byte, when arch.Cycles) {
	if _, err := n.Send(network.ClassSystem, typ, dst, seq, payload, when); err != nil && !errors.Is(err, transport.ErrClosed) {
		panic(fmt.Sprintf("mcp: send %s: %v", msgName(typ), err))
	}
}

func lcpTile(p arch.ProcID) arch.TileID { return arch.TileID(transport.LCP(p)) }

// Serve is the MCP message loop.
func (s *Server) Serve() {
	defer close(s.stopped)
	for {
		pkt, ok := s.net.Recv(network.ClassSystem)
		if !ok {
			return
		}
		s.mu.Lock()
		s.handle(pkt)
		s.mu.Unlock()
	}
}

// Report writes the LaxBarrier service's view of the threads for a
// wedged-run dump (park.Report): the live threads, then the round.
func (s *Server) Report(w io.Writer) {
	if !s.mu.TryLock() {
		fmt.Fprintln(w, "  mcp: busy handling a message")
		return
	}
	defer s.mu.Unlock()
	fmt.Fprintf(w, "  mcp: running %d, %v\n", s.round.Live(), s.round)
}

func (s *Server) handle(pkt network.Packet) {
	if pkt.Src >= 0 {
		s.round.Step(pkt.Src, synchro.Resume, 0) // a tile that speaks to the MCP is not blocked receiving
	}
	to := replyTo{src: pkt.Src, seq: pkt.Seq}
	switch pkt.Type {
	case MsgSpawn:
		s.handleSpawn(pkt, to)
	case MsgThreadExit:
		s.handleThreadExit(pkt)
	case MsgJoin:
		s.handleJoin(pkt, to)
	case MsgMutexLock:
		s.handleMutexLock(pkt, to)
	case MsgMutexUnlock:
		s.handleMutexUnlock(pkt)
	case MsgBarrierWait:
		s.handleBarrierWait(pkt, to)
	case MsgCondWait:
		s.handleCondWait(pkt, to)
	case MsgCondSignal:
		s.handleCondSignal(pkt, false)
	case MsgCondBroadcast:
		s.handleCondSignal(pkt, true)
	case MsgMalloc:
		s.handleMalloc(pkt, to)
	case MsgFree:
		s.handleFree(pkt)
	case MsgSimBarrierBatch:
		s.handleSimBarrierBatch(pkt)
	case MsgCkptProbeRep:
		s.handleCkptProbeRep(pkt)
	case MsgCkptSaveRep:
		s.handleCkptSaveRep(pkt)
	case MsgStatsRep:
		var rep statsRep
		if err := wire.Decode(pkt.Payload, rep.Walk); err != nil {
			panic("mcp: bad stats payload: " + err.Error())
		}
		s.statsCh <- rep
	case MsgFlushRep:
		s.flushCh <- struct{}{}
	case MsgShutdownRep:
		ns, err := DecodeU64(pkt.Payload)
		if err != nil {
			panic("mcp: bad shutdown ack: " + err.Error())
		}
		// The sender is an LCP; its endpoint encodes the process ID.
		proc, ok := transport.LCPProc(transport.EndpointID(pkt.Src))
		if !ok {
			panic(fmt.Sprintf("mcp: shutdown ack from non-LCP endpoint %d", pkt.Src))
		}
		s.shutCh <- shutdownAck{proc: proc, wall: time.Duration(ns)}
	}
}

func (s *Server) handleSpawn(pkt network.Packet, to replyTo) {
	req, err := DecodeSpawnReq(pkt.Payload)
	if err != nil {
		panic("mcp: " + err.Error())
	}
	tile := s.pickTile()
	if tile == arch.InvalidTile {
		// The paper's limit: live threads may not exceed tiles.
		s.reply(MsgSpawnRep, to, EncodeU64Pair(^uint64(0), 0), pkt.Time)
		return
	}
	s.threads[arch.ThreadID(tile)] = &threadRec{}
	s.everStarted = true
	start := pkt.Time + s.cfg.Costs.Spawn
	s.sendToLCP(tile, StartThread{Tile: tile, Func: req.Func, Arg: req.Arg}, start)
	s.reply(MsgSpawnRep, to, EncodeU64Pair(uint64(tile), uint64(start)), start)
}

func (s *Server) handleThreadExit(pkt network.Packet) {
	tid := arch.ThreadID(pkt.Src)
	rec := s.threads[tid]
	if rec == nil || rec.exited {
		return
	}
	rec.exited = true
	rec.exitTime = pkt.Time
	for _, j := range rec.joiners {
		s.reply(MsgJoinRep, j, EncodeU64(uint64(rec.exitTime)), rec.exitTime)
		s.unblock(j.src)
	}
	rec.joiners = nil
	s.round.Step(pkt.Src, synchro.Exited, 0)
	s.recheckSimBarrier()
	if s.round.Live() == 0 && s.everStarted {
		select {
		case <-s.doneCh:
		default:
			close(s.doneCh)
		}
	}
}

func (s *Server) handleJoin(pkt network.Packet, to replyTo) {
	tid64, err := DecodeU64(pkt.Payload)
	if err != nil {
		panic("mcp: " + err.Error())
	}
	rec := s.threads[arch.ThreadID(tid64)]
	if rec == nil {
		s.reply(MsgJoinRep, to, EncodeU64(0), pkt.Time)
		return
	}
	if rec.exited {
		t := rec.exitTime
		if pkt.Time > t {
			t = pkt.Time
		}
		s.reply(MsgJoinRep, to, EncodeU64(uint64(rec.exitTime)), t)
		return
	}
	rec.joiners = append(rec.joiners, to)
	s.block(pkt.Src)
}

func (s *Server) mutex(addr arch.Addr) *mutexRec {
	m := s.mutexes[addr]
	if m == nil {
		m = &mutexRec{}
		s.mutexes[addr] = m
	}
	return m
}

func (s *Server) handleMutexLock(pkt network.Packet, to replyTo) {
	addr64, err := DecodeU64(pkt.Payload)
	if err != nil {
		panic("mcp: " + err.Error())
	}
	m := s.mutex(arch.Addr(addr64))
	if !m.locked {
		m.locked = true
		grant := pkt.Time
		if m.lastFree > grant {
			grant = m.lastFree
		}
		grant += s.cfg.Costs.Mutex
		s.reply(MsgMutexLockRep, to, nil, grant)
		return
	}
	m.queue = append(m.queue, lockWaiter{to: to, t: pkt.Time, replyType: MsgMutexLockRep})
	s.block(pkt.Src)
}

func (s *Server) handleMutexUnlock(pkt network.Packet) {
	addr64, err := DecodeU64(pkt.Payload)
	if err != nil {
		panic("mcp: " + err.Error())
	}
	m := s.mutex(arch.Addr(addr64))
	s.releaseMutex(m, pkt.Time)
}

// releaseMutex hands the mutex to the next waiter or marks it free.
func (s *Server) releaseMutex(m *mutexRec, t arch.Cycles) {
	if len(m.queue) == 0 {
		m.locked = false
		if t > m.lastFree {
			m.lastFree = t
		}
		return
	}
	w := m.queue[0]
	m.queue = m.queue[1:]
	grant := w.t
	if t > grant {
		grant = t
	}
	grant += s.cfg.Costs.Mutex
	s.reply(w.replyType, w.to, nil, grant)
	s.unblock(w.to.src)
}

func (s *Server) handleBarrierWait(pkt network.Packet, to replyTo) {
	addr64, n64, err := DecodeU64Pair(pkt.Payload)
	if err != nil {
		panic("mcp: " + err.Error())
	}
	b := s.barriers[arch.Addr(addr64)]
	if b == nil {
		b = &barrierRec{}
		s.barriers[arch.Addr(addr64)] = b
	}
	b.waiters = append(b.waiters, barrierWaiter{to: to, t: pkt.Time})
	if uint64(len(b.waiters)) < n64 {
		s.block(pkt.Src)
		return
	}
	// Last arrival releases everyone at max(arrival times) + cost.
	release := arch.Cycles(0)
	for _, w := range b.waiters {
		if w.t > release {
			release = w.t
		}
	}
	release += s.cfg.Costs.Barrier
	for _, w := range b.waiters {
		s.reply(MsgBarrierRep, w.to, nil, release)
		if w.to.src != pkt.Src {
			s.unblock(w.to.src)
		}
	}
	delete(s.barriers, arch.Addr(addr64))
}

func (s *Server) handleCondWait(pkt network.Packet, to replyTo) {
	cond64, mutex64, err := DecodeU64Pair(pkt.Payload)
	if err != nil {
		panic("mcp: " + err.Error())
	}
	// Atomically release the mutex and sleep.
	s.releaseMutex(s.mutex(arch.Addr(mutex64)), pkt.Time)
	c := s.conds[arch.Addr(cond64)]
	if c == nil {
		c = &condRec{}
		s.conds[arch.Addr(cond64)] = c
	}
	c.waiters = append(c.waiters, condWaiter{to: to, t: pkt.Time, mutex: arch.Addr(mutex64)})
	s.block(pkt.Src)
}

func (s *Server) handleCondSignal(pkt network.Packet, broadcast bool) {
	cond64, err := DecodeU64(pkt.Payload)
	if err != nil {
		panic("mcp: " + err.Error())
	}
	c := s.conds[arch.Addr(cond64)]
	if c == nil || len(c.waiters) == 0 {
		return
	}
	n := 1
	if broadcast {
		n = len(c.waiters)
	}
	for i := 0; i < n; i++ {
		w := c.waiters[0]
		c.waiters = c.waiters[1:]
		t := w.t
		if pkt.Time > t {
			t = pkt.Time
		}
		t += s.cfg.Costs.Cond
		// The woken thread re-acquires its mutex before returning.
		m := s.mutex(w.mutex)
		if !m.locked {
			m.locked = true
			grant := t
			if m.lastFree > grant {
				grant = m.lastFree
			}
			grant += s.cfg.Costs.Mutex
			s.reply(MsgCondRep, w.to, nil, grant)
			s.unblock(w.to.src)
		} else {
			m.queue = append(m.queue, lockWaiter{to: w.to, t: t, replyType: MsgCondRep})
			// Still blocked: now on the mutex queue.
		}
	}
}

func (s *Server) handleMalloc(pkt network.Packet, to replyTo) {
	size64, err := DecodeU64(pkt.Payload)
	if err != nil {
		panic("mcp: " + err.Error())
	}
	addr, aerr := s.alloc.Alloc(arch.Addr(size64))
	if aerr != nil {
		s.reply(MsgMallocRep, to, EncodeU64(0), pkt.Time+s.cfg.Costs.Malloc)
		return
	}
	s.reply(MsgMallocRep, to, EncodeU64(uint64(addr)), pkt.Time+s.cfg.Costs.Malloc)
}

func (s *Server) handleFree(pkt network.Packet) {
	addr64, err := DecodeU64(pkt.Payload)
	if err != nil {
		panic("mcp: " + err.Error())
	}
	// Double frees indicate an application bug; surface loudly.
	if ferr := s.alloc.Free(arch.Addr(addr64)); ferr != nil {
		panic(ferr)
	}
}

// handleSimBarrierBatch steps the round with one ledger's batch of waits
// and receive reports (epoch -1); the round's rows drop a report that
// trails its tile's own later messages.
func (s *Server) handleSimBarrierBatch(pkt network.Packet) {
	waits, err := AppendSimBatch(s.simBatch[:0], pkt.Payload, s.cfg.Tiles)
	if err != nil {
		panic("mcp: " + err.Error())
	}
	s.simBatch = waits[:0]
	for _, w := range waits {
		if w.Epoch >= 0 {
			s.round.Step(w.Tile, synchro.Waited, w.Epoch)
		} else {
			s.round.Step(w.Tile, synchro.Recv, 0)
		}
	}
	s.recheckSimBarrier()
}

// recheckSimBarrier releases the lowest pending LaxBarrier epoch once no
// thread runs: each waits on the barrier, is blocked in an MCP service or
// an application receive (its clock is not advancing), or is gone. One
// notification goes to each host process, in process order. The released
// tiles run again, so one release completes the check.
func (s *Server) recheckSimBarrier() {
	epoch, ok := s.round.Next()
	if s.ckptMCP != nil || !ok {
		return
	}
	s.round.Release(epoch, func(t arch.TileID) { s.releaseTo[s.cfg.ProcOf(t)] = true })
	// A checkpoint-eligible epoch intercepts the release: the targets stay
	// stashed in releaseTo until the save completes, and releaseEpoch
	// runs from the checkpoint machine.
	if !s.maybeCheckpoint(epoch) {
		s.releaseEpoch(epoch)
	}
}

// releaseEpoch performs a collected epoch release: one notification per
// process with released waiters.
func (s *Server) releaseEpoch(epoch int64) {
	for proc, ok := range s.releaseTo {
		if ok {
			send(s.net, MsgSimBarrierRelease, lcpTile(arch.ProcID(proc)), 0, EncodeU64(uint64(epoch)), 0)
		}
	}
	clear(s.releaseTo)
}

func (s *Server) block(tile arch.TileID) {
	s.round.Step(tile, synchro.Block, 0)
	s.recheckSimBarrier()
}

func (s *Server) unblock(tile arch.TileID) {
	s.round.Step(tile, synchro.Resume, 0)
}

// GatherStats asks every LCP for its tiles' records and returns them all,
// ordered by tile ID. Call only after the application has finished. It
// fails if a request cannot be sent or the serve loop ends first.
func (s *Server) GatherStats() ([]stats.Tile, error) {
	if err := s.askAll(MsgStatsGather); err != nil {
		return nil, err
	}
	var all []stats.Tile
	for p := 0; p < s.cfg.Processes; p++ {
		select {
		case rep := <-s.statsCh:
			all = append(all, rep...)
		case <-s.stopped:
			return nil, errServeEnded
		}
	}
	byTile := make([]stats.Tile, s.cfg.Tiles)
	for _, t := range all {
		if int(t.TileID) < len(byTile) {
			byTile[t.TileID] = t
		}
	}
	return byTile, nil
}

// errServeEnded is what a wait for every process's reply returns when the
// serve loop ends before the replies are in.
var errServeEnded = errors.New("mcp: serve loop ended before every process replied")

// askAll sends typ, with no payload, to every process's LCP.
func (s *Server) askAll(typ uint8) error {
	for p := 0; p < s.cfg.Processes; p++ {
		if _, err := s.net.Send(network.ClassSystem, typ, lcpTile(arch.ProcID(p)), 0, nil, 0); err != nil {
			return fmt.Errorf("mcp: send to process %d: %w", p, err)
		}
	}
	return nil
}

// ProcShutdown reports one host process's teardown acknowledgement.
type ProcShutdown struct {
	Proc arch.ProcID
	// Wall is the process's wall-clock serving time (LCP construction to
	// shutdown ack), valid when Acked.
	Wall time.Duration
	// Acked reports whether the process acknowledged teardown before the
	// deadline. An unacked worker may still be running.
	Acked bool
}

// shutdownAckTimeout bounds how long ShutdownWorkers waits for teardown
// acknowledgements. Acks arrive in milliseconds on a healthy fabric; a
// worker that stays silent this long has crashed or hung, and the
// coordinator must report that rather than block forever.
const shutdownAckTimeout = 15 * time.Second

// ShutdownWorkers announces teardown to every LCP and waits for each to
// acknowledge (acknowledge-then-close: workers send the ack before their
// Shutdown callback exits the process, so a full set of acks means every
// worker saw the teardown and is past its last fabric send). The returned
// slice, indexed by process, carries per-process wall times. In-process
// simulations with no Shutdown callbacks still ack; callers that don't
// care may ignore the result.
func (s *Server) ShutdownWorkers() []ProcShutdown {
	out := make([]ProcShutdown, s.cfg.Processes)
	announced := 0
	for p := range out {
		out[p].Proc = arch.ProcID(p)
	}
	for p := 0; p < s.cfg.Processes; p++ {
		// A failed send (dead peer connection, closed transport) must not
		// stop the announcement: the REMAINING workers still need their
		// teardown, or they block forever. The failed process simply
		// yields no ack.
		if _, err := s.net.Send(network.ClassSystem, MsgShutdown, lcpTile(arch.ProcID(p)), 0, nil, 0); err == nil {
			announced++
		}
	}
	//graphite:wallclock bounded teardown-ack wait: a dead worker must not hang shutdown; the timeout only abandons acks, simulation results are already final
	deadline := time.NewTimer(shutdownAckTimeout)
	defer deadline.Stop()
	for n := 0; n < announced; n++ {
		select {
		case ack := <-s.shutCh:
			if int(ack.proc) < len(out) {
				out[ack.proc].Wall = ack.wall
				out[ack.proc].Acked = true
			}
		case <-s.stopped:
			return out // serve loop gone (transport closed): no more acks
		case <-deadline.C:
			return out
		}
	}
	return out
}

// FlushCaches asks every LCP to flush its tiles' caches and waits for
// completion. Call only after the application has finished. It fails as
// GatherStats does.
func (s *Server) FlushCaches() error {
	if err := s.askAll(MsgFlush); err != nil {
		return err
	}
	for p := 0; p < s.cfg.Processes; p++ {
		select {
		case <-s.flushCh:
		case <-s.stopped:
			return errServeEnded
		}
	}
	return nil
}
