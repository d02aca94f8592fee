package mcp

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/checkpoint"
	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/stats"
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
	fs    *FS

	threads     map[arch.ThreadID]*threadRec
	tileBusy    []bool
	running     int
	everStarted bool
	blocked     map[arch.TileID]bool

	mutexes  map[arch.Addr]*mutexRec
	barriers map[arch.Addr]*barrierRec
	conds    map[arch.Addr]*condRec

	// simWaits holds the LaxBarrier epoch each parked tile waits on, as
	// forwarded by its process's ledger (MsgSimBarrierBatch). recvBlocked
	// holds the tiles a ledger reported blocked in an application receive
	// (epoch -1); like blocked, they are left out of the release rule. A
	// tile leaves it at its next wait, its next packet to the MCP, or its
	// exit (which is such a packet).
	simWaits    map[arch.TileID]int64
	recvBlocked map[arch.TileID]bool
	// simBatch and releaseProcs are serve-loop scratch (one goroutine):
	// reused across quanta so the steady-state barrier service does not
	// allocate per round. When a checkpoint intercepts a release,
	// releaseProcs holds the stashed release until the save completes; no
	// recheck can run in between (every unblocked thread is parked on
	// that very release), so it stays intact.
	simBatch     []SimWait
	releaseProcs map[arch.ProcID]bool

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
	ckptSaves    []CkptSaveResult
	ckptFailed   chan error

	statsCh chan []stats.Tile
	flushCh chan struct{}
	shutCh  chan shutdownAck
	doneCh  chan struct{}
	stopped chan struct{}
}

// shutdownAck is one LCP's acknowledgement of teardown.
type shutdownAck struct {
	proc arch.ProcID
	wall time.Duration
}

// NewServer builds the MCP. net must be registered on the MCP endpoint.
func NewServer(cfg *config.Config, net *network.Net) *Server {
	return &Server{
		cfg:          cfg,
		net:          net,
		alloc:        NewAllocator(cfg.AS.HeapBase, cfg.AS.HeapSize),
		fs:           NewFS(),
		threads:      make(map[arch.ThreadID]*threadRec),
		tileBusy:     make([]bool, cfg.Tiles),
		blocked:      make(map[arch.TileID]bool),
		mutexes:      make(map[arch.Addr]*mutexRec),
		barriers:     make(map[arch.Addr]*barrierRec),
		conds:        make(map[arch.Addr]*condRec),
		simWaits:     make(map[arch.TileID]int64),
		recvBlocked:  make(map[arch.TileID]bool),
		releaseProcs: make(map[arch.ProcID]bool),
		ckptFailed:   make(chan error, 1),
		statsCh:      make(chan []stats.Tile, cfg.Processes),
		flushCh:      make(chan struct{}, cfg.Processes),
		shutCh:       make(chan shutdownAck, cfg.Processes),
		doneCh:       make(chan struct{}),
		stopped:      make(chan struct{}),
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
	s.running++
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
	for i, busy := range s.tileBusy {
		if busy {
			continue
		}
		if s.threads[arch.ThreadID(i)] == nil {
			s.tileBusy[i] = true
			return arch.TileID(i)
		}
		if reuse == arch.InvalidTile {
			reuse = arch.TileID(i)
		}
	}
	if reuse != arch.InvalidTile {
		s.tileBusy[reuse] = true
	}
	return reuse
}

func (s *Server) sendToLCP(tile arch.TileID, st StartThread, when arch.Cycles) {
	proc := s.cfg.ProcOf(tile)
	dst := arch.TileID(transport.LCP(proc))
	if _, err := s.net.Send(network.ClassSystem, MsgStartThread, dst, 0, EncodeStartThread(st), when); err != nil && !errors.Is(err, transport.ErrClosed) {
		panic("mcp: send to LCP failed: " + err.Error())
	}
}

func (s *Server) reply(typ uint8, to replyTo, payload []byte, when arch.Cycles) {
	// Replies racing teardown (transport closed) are dropped; the waiting
	// thread is being torn down with the fabric.
	if _, err := s.net.Send(network.ClassSystem, typ, to.src, to.seq, payload, when); err != nil && !errors.Is(err, transport.ErrClosed) {
		panic("mcp: reply failed: " + err.Error())
	}
}

// Serve is the MCP message loop.
func (s *Server) Serve() {
	defer close(s.stopped)
	for {
		pkt, ok := s.net.Recv(network.ClassSystem)
		if !ok {
			return
		}
		s.handle(pkt)
	}
}

func (s *Server) handle(pkt network.Packet) {
	delete(s.recvBlocked, pkt.Src) // a tile that speaks to the MCP is not blocked receiving
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
	case MsgFileOp:
		s.handleFileOp(pkt, to)
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
	s.running++
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
	s.tileBusy[pkt.Src] = false
	s.running--
	delete(s.simWaits, pkt.Src)
	s.recheckSimBarrier()
	if s.running == 0 && s.everStarted {
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

// handleSimBarrierBatch merges one process ledger's batch of waits into
// the wait table. Entries are independent — a tile cannot have two waits
// in flight (it stays parked until released) — so merge order across
// batches is irrelevant. A receive report (epoch -1) counts only for a
// tile that is running and neither waiting nor MCP-blocked: the batch
// rides the process's control endpoint, so it can trail the tile's own
// later messages, and a stale report must not count the tile twice.
func (s *Server) handleSimBarrierBatch(pkt network.Packet) {
	waits, err := AppendSimBatch(s.simBatch[:0], pkt.Payload)
	if err != nil {
		panic("mcp: " + err.Error())
	}
	s.simBatch = waits[:0]
	for _, w := range waits {
		if w.Epoch >= 0 {
			s.simWaits[w.Tile] = w.Epoch
			delete(s.recvBlocked, w.Tile)
			continue
		}
		_, waiting := s.simWaits[w.Tile]
		if rec := s.threads[arch.ThreadID(w.Tile)]; rec != nil && !rec.exited && !waiting && !s.blocked[w.Tile] {
			s.recvBlocked[w.Tile] = true
		}
	}
	s.recheckSimBarrier()
}

// recheckSimBarrier releases the lowest pending LaxBarrier epoch once
// every running, unblocked thread is waiting on the barrier. Threads
// blocked in MCP services (mutex queues, joins, condition waits) or in an
// application receive are not advancing their clocks and are excluded,
// which keeps the quanta barrier deadlock-free. Waiters are released with
// one notification per host process.
func (s *Server) recheckSimBarrier() {
	if len(s.simWaits) == 0 {
		return
	}
	active := s.running - len(s.blocked) - len(s.recvBlocked)
	if len(s.simWaits) < active {
		return
	}
	min := int64(1<<62 - 1)
	//graphite:maporder commutative minimum over pending epochs
	for _, epoch := range s.simWaits {
		if epoch < min {
			min = epoch
		}
	}
	clear(s.releaseProcs)
	//graphite:maporder releases go to disjoint tiles/processes; the fabric orders only per-pair FIFO, so wake order was never defined, and released threads re-synchronize at the next quantum regardless
	for tile, epoch := range s.simWaits {
		if epoch != min {
			continue
		}
		s.releaseProcs[s.cfg.ProcOf(tile)] = true
		delete(s.simWaits, tile)
	}
	// A checkpoint-eligible epoch intercepts the release: the collected
	// targets stay stashed in releaseProcs until the save completes, and
	// releaseEpoch runs from the checkpoint machine.
	if s.maybeCheckpoint(min) {
		return
	}
	s.releaseEpoch(min)
}

// releaseEpoch performs a collected epoch release: one notification per
// process with released waiters.
func (s *Server) releaseEpoch(min int64) {
	//graphite:maporder one release notification per distinct process; delivery order across processes is unordered by the fabric anyway
	for proc := range s.releaseProcs {
		dst := arch.TileID(transport.LCP(proc))
		if _, err := s.net.Send(network.ClassSystem, MsgSimBarrierRelease, dst, 0, EncodeU64(uint64(min)), 0); err != nil && !errors.Is(err, transport.ErrClosed) {
			panic("mcp: barrier release failed: " + err.Error())
		}
	}
	clear(s.releaseProcs)
}

func (s *Server) handleFileOp(pkt network.Packet, to replyTo) {
	var req FileReq
	if err := wire.Decode(pkt.Payload, req.Walk); err != nil {
		panic("mcp: bad file payload: " + err.Error())
	}
	rep := s.fs.Handle(req)
	s.reply(MsgFileRep, to, wire.Encode(rep.Walk), pkt.Time+s.cfg.Costs.File)
}

func (s *Server) block(tile arch.TileID) {
	s.blocked[tile] = true
	s.recheckSimBarrier()
}

func (s *Server) unblock(tile arch.TileID) {
	delete(s.blocked, tile)
}

// GatherStats asks every LCP for its tiles' records and returns them all,
// ordered by tile ID. Call only after the application has finished.
func (s *Server) GatherStats() []stats.Tile {
	for p := 0; p < s.cfg.Processes; p++ {
		dst := arch.TileID(transport.LCP(arch.ProcID(p)))
		if _, err := s.net.Send(network.ClassSystem, MsgStatsGather, dst, 0, nil, 0); err != nil {
			panic("mcp: stats gather send: " + err.Error())
		}
	}
	var all []stats.Tile
	for p := 0; p < s.cfg.Processes; p++ {
		all = append(all, <-s.statsCh...)
	}
	byTile := make([]stats.Tile, s.cfg.Tiles)
	for _, t := range all {
		if int(t.TileID) < len(byTile) {
			byTile[t.TileID] = t
		}
	}
	return byTile
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
		dst := arch.TileID(transport.LCP(arch.ProcID(p)))
		// A failed send (dead peer connection, closed transport) must not
		// stop the announcement: the REMAINING workers still need their
		// teardown, or they block forever. The failed process simply
		// yields no ack.
		if _, err := s.net.Send(network.ClassSystem, MsgShutdown, dst, 0, nil, 0); err == nil {
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
// completion. Call only after the application has finished.
func (s *Server) FlushCaches() {
	for p := 0; p < s.cfg.Processes; p++ {
		dst := arch.TileID(transport.LCP(arch.ProcID(p)))
		if _, err := s.net.Send(network.ClassSystem, MsgFlush, dst, 0, nil, 0); err != nil {
			panic("mcp: flush send: " + err.Error())
		}
	}
	for p := 0; p < s.cfg.Processes; p++ {
		<-s.flushCh
	}
}
