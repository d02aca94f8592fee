package mcp

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/checkpoint"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/network"
	"repro/internal/simtest"
	"repro/internal/transport"
	"repro/internal/wire"
)

// mcpHarness drives a real MCP server with crafted packets from fake
// tiles, exposing the raw request/reply exchange the integration tests
// can't observe.
type mcpHarness struct {
	srv   *Server
	tiles []*network.Net // fake tile endpoints, read replies directly
	lcp   *network.Net   // fake LCP endpoint, captures StartThread
	seq   uint64
}

func newHarness(t *testing.T, tiles int) *mcpHarness {
	t.Helper()
	cfg := config.Default()
	cfg.Tiles = tiles
	fab := transport.NewChannelFabric(transport.StripedRoute(1))
	tr := fab.Process(0)
	prog := clock.NewProgressWindow(tiles)
	models := network.NewModels(&cfg, prog)

	h := &mcpHarness{}
	for i := 0; i < tiles; i++ {
		ep, err := tr.Register(transport.TileEndpoint(arch.TileID(i)))
		if err != nil {
			t.Fatal(err)
		}
		h.tiles = append(h.tiles, network.New(arch.TileID(i), tr, ep, models, prog))
	}
	lcpEP, err := tr.Register(transport.LCP(0))
	if err != nil {
		t.Fatal(err)
	}
	h.lcp = network.New(arch.TileID(transport.LCP(0)), tr, lcpEP, models, nil)

	mcpEP, err := tr.Register(transport.MCP)
	if err != nil {
		t.Fatal(err)
	}
	mcpNet := network.New(arch.TileID(transport.MCP), tr, mcpEP, models, nil)
	h.srv = NewServer(&cfg, mcpNet)
	go h.srv.Serve()

	t.Cleanup(func() {
		for _, n := range h.tiles {
			n.Close()
		}
		h.lcp.Close()
		mcpNet.Close()
		fab.Close()
		<-h.srv.Stopped()
	})
	return h
}

// send fires a request from a tile and returns its sequence number.
func (h *mcpHarness) send(tile int, typ uint8, payload []byte, at arch.Cycles) uint64 {
	h.seq++
	if _, err := h.tiles[tile].Send(network.ClassSystem, typ, arch.TileID(transport.MCP), h.seq, payload, at); err != nil {
		panic(err)
	}
	return h.seq
}

// recv awaits the next system-class reply at a tile.
func (h *mcpHarness) recv(t *testing.T, tile int) network.Packet {
	t.Helper()
	return recvOn(t, h.tiles[tile])
}

// simWait forwards LaxBarrier waits to the MCP the way a process ledger
// does: one batch from the LCP endpoint.
func (h *mcpHarness) simWait(t *testing.T, waits ...SimWait) {
	t.Helper()
	if _, err := h.lcp.Send(network.ClassSystem, MsgSimBarrierBatch, arch.TileID(transport.MCP), 0, EncodeSimBatch(waits), 0); err != nil {
		t.Fatal(err)
	}
}

// simRelease awaits the MCP's next epoch release at the LCP and returns
// the released epoch.
func (h *mcpHarness) simRelease(t *testing.T) uint64 {
	t.Helper()
	rel := recvOn(t, h.lcp)
	if rel.Type != MsgSimBarrierRelease {
		t.Fatalf("LCP got %s, want SimBarrierRelease", msgName(rel.Type))
	}
	epoch, err := DecodeU64(rel.Payload)
	if err != nil {
		t.Fatal(err)
	}
	return epoch
}

// recvOn awaits the next system-class packet at an endpoint.
func recvOn(t *testing.T, n *network.Net) network.Packet {
	t.Helper()
	type res struct {
		pkt network.Packet
		ok  bool
	}
	ch := make(chan res, 1)
	go func() {
		pkt, ok := n.Recv(network.ClassSystem)
		ch <- res{pkt, ok}
	}()
	select {
	case r := <-ch:
		if !r.ok {
			t.Fatal("net closed while awaiting reply")
		}
		return r.pkt
	case <-time.After(5 * time.Second):
		t.Fatal("timed out awaiting MCP reply")
		return network.Packet{}
	}
}

// noReply polls briefly to assert no NEW reply arrives at a tile.
func (h *mcpHarness) noReply(t *testing.T, tile int, within time.Duration) {
	t.Helper()
	base := h.tiles[tile].Stats().PacketsRecv[network.ClassSystem].Load()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if h.tiles[tile].Stats().PacketsRecv[network.ClassSystem].Load() > base {
			t.Fatal("unexpected reply")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMutexGrantAndQueueFIFO(t *testing.T) {
	h := newHarness(t, 4)
	// Tile 1 locks free mutex at t=100: grant at 100 + MutexCost.
	h.send(1, MsgMutexLock, EncodeU64(0x1000), 100)
	rep := h.recv(t, 1)
	if rep.Type != MsgMutexLockRep {
		t.Fatalf("reply type %d", rep.Type)
	}
	if rep.Time != 100+h.srv.cfg.Costs.Mutex {
		t.Fatalf("grant time %d", rep.Time)
	}
	// Tiles 2 and 3 queue up in order.
	h.send(2, MsgMutexLock, EncodeU64(0x1000), 150)
	h.send(3, MsgMutexLock, EncodeU64(0x1000), 160)
	h.noReply(t, 2, 20*time.Millisecond)
	// Unlock at t=500 grants tile 2 at max(150,500)+cost.
	h.send(1, MsgMutexUnlock, EncodeU64(0x1000), 500)
	rep2 := h.recv(t, 2)
	if rep2.Time != 500+h.srv.cfg.Costs.Mutex {
		t.Fatalf("queued grant time %d", rep2.Time)
	}
	// Tile 3 still waits until tile 2 unlocks.
	h.send(2, MsgMutexUnlock, EncodeU64(0x1000), 700)
	rep3 := h.recv(t, 3)
	if rep3.Time != 700+h.srv.cfg.Costs.Mutex {
		t.Fatalf("second queued grant %d", rep3.Time)
	}
}

func TestMutexIndependentAddresses(t *testing.T) {
	h := newHarness(t, 2)
	h.send(0, MsgMutexLock, EncodeU64(0xA), 10)
	h.recv(t, 0)
	// A different mutex is free despite 0xA being held.
	h.send(1, MsgMutexLock, EncodeU64(0xB), 20)
	if rep := h.recv(t, 1); rep.Type != MsgMutexLockRep {
		t.Fatal("independent mutex blocked")
	}
}

func TestBarrierReleaseAtMaxArrival(t *testing.T) {
	h := newHarness(t, 3)
	h.send(0, MsgBarrierWait, EncodeU64Pair(0x2000, 3), 100)
	h.send(1, MsgBarrierWait, EncodeU64Pair(0x2000, 3), 900)
	h.noReply(t, 0, 20*time.Millisecond)
	h.send(2, MsgBarrierWait, EncodeU64Pair(0x2000, 3), 400)
	want := arch.Cycles(900) + h.srv.cfg.Costs.Barrier
	for tile := 0; tile < 3; tile++ {
		rep := h.recv(t, tile)
		if rep.Type != MsgBarrierRep || rep.Time != want {
			t.Fatalf("tile %d: type=%d time=%d want %d", tile, rep.Type, rep.Time, want)
		}
	}
	// The barrier is reusable for a second round.
	h.send(0, MsgBarrierWait, EncodeU64Pair(0x2000, 2), 1000)
	h.send(1, MsgBarrierWait, EncodeU64Pair(0x2000, 2), 1100)
	if rep := h.recv(t, 0); rep.Time != 1100+h.srv.cfg.Costs.Barrier {
		t.Fatalf("second round release %d", rep.Time)
	}
	h.recv(t, 1)
}

func TestCondSignalNoWaitersIsNoop(t *testing.T) {
	h := newHarness(t, 2)
	h.send(0, MsgCondSignal, EncodeU64(0x3000), 50)
	// Then a normal mutex op must still work (server not wedged).
	h.send(1, MsgMutexLock, EncodeU64(0x1), 60)
	h.recv(t, 1)
}

func TestCondWaitSignalHandsMutexBack(t *testing.T) {
	h := newHarness(t, 3)
	const mtx, cv = 0x10, 0x20
	// Tile 1 holds the mutex and waits on the condition (releasing it).
	h.send(1, MsgMutexLock, EncodeU64(mtx), 100)
	h.recv(t, 1)
	h.send(1, MsgCondWait, EncodeU64Pair(cv, mtx), 200)
	// Tile 2 can now take the mutex (it was released by the wait).
	h.send(2, MsgMutexLock, EncodeU64(mtx), 300)
	h.recv(t, 2)
	// Signal while tile 2 holds the mutex: tile 1 wakes only after it is
	// re-granted the mutex, i.e. after tile 2 unlocks.
	h.send(0, MsgCondSignal, EncodeU64(cv), 400)
	h.noReply(t, 1, 20*time.Millisecond)
	h.send(2, MsgMutexUnlock, EncodeU64(mtx), 1000)
	rep := h.recv(t, 1)
	if rep.Type != MsgCondRep {
		t.Fatalf("reply type %d", rep.Type)
	}
	if rep.Time < 1000 {
		t.Fatalf("woke at %d before mutex was free", rep.Time)
	}
}

func TestJoinUnknownThreadRepliesImmediately(t *testing.T) {
	h := newHarness(t, 2)
	h.send(0, MsgJoin, EncodeU64(99), 10)
	if rep := h.recv(t, 0); rep.Type != MsgJoinRep {
		t.Fatalf("reply %d", rep.Type)
	}
}

func TestSpawnRoutesToLCPAndOverflows(t *testing.T) {
	h := newHarness(t, 2)
	if err := h.srv.StartMain(0); err != nil {
		t.Fatal(err)
	}
	// StartMain sends a StartThread for tile 0 to the LCP.
	pkt, ok := h.lcp.Recv(network.ClassSystem)
	if !ok || pkt.Type != MsgStartThread {
		t.Fatalf("LCP got %d", pkt.Type)
	}
	st, err := DecodeStartThread(pkt.Payload)
	if err != nil || st.Tile != 0 {
		t.Fatalf("start thread %+v %v", st, err)
	}
	// Tile 0 spawns one more: tile 1 is granted.
	h.send(0, MsgSpawn, EncodeSpawnReq(SpawnReq{Func: 1, Arg: 7}), 500)
	rep := h.recv(t, 0)
	tid, start, err := DecodeU64Pair(rep.Payload)
	if err != nil || tid != 1 {
		t.Fatalf("spawn rep %d %v", tid, err)
	}
	if arch.Cycles(start) != 500+h.srv.cfg.Costs.Spawn {
		t.Fatalf("child start %d", start)
	}
	pkt, _ = h.lcp.Recv(network.ClassSystem)
	st, _ = DecodeStartThread(pkt.Payload)
	if st.Tile != 1 || st.Func != 1 || st.Arg != 7 {
		t.Fatalf("forwarded %+v", st)
	}
	// A third spawn overflows.
	h.send(0, MsgSpawn, EncodeSpawnReq(SpawnReq{Func: 1}), 600)
	rep = h.recv(t, 0)
	tid, _, _ = DecodeU64Pair(rep.Payload)
	if tid != ^uint64(0) {
		t.Fatalf("overflow spawn returned tile %d", tid)
	}
}

func TestJoinThenExitReleasesJoiner(t *testing.T) {
	h := newHarness(t, 2)
	h.srv.StartMain(0)
	h.lcp.Recv(network.ClassSystem)
	h.send(0, MsgSpawn, EncodeSpawnReq(SpawnReq{Func: 1}), 100)
	h.recv(t, 0)
	h.lcp.Recv(network.ClassSystem)
	// Tile 0 joins tile 1 before it exits.
	h.send(0, MsgJoin, EncodeU64(1), 200)
	h.noReply(t, 0, 0) // consumed replies above; just proceed
	// Tile 1 exits at 5000: the joiner gets the exit time.
	h.send(1, MsgThreadExit, nil, 5000)
	rep := h.recv(t, 0)
	v, err := DecodeU64(rep.Payload)
	if err != nil || arch.Cycles(v) != 5000 {
		t.Fatalf("join exit time %d %v", v, err)
	}
	// Joining the already-exited thread replies immediately, forwarding
	// to max(own time, exit time).
	h.send(0, MsgJoin, EncodeU64(1), 9000)
	rep = h.recv(t, 0)
	if rep.Time != 9000 {
		t.Fatalf("late join reply time %d", rep.Time)
	}
}

func TestSimBarrierReleasesMinEpochOnly(t *testing.T) {
	h := newHarness(t, 2)
	h.srv.StartMain(0)
	h.lcp.Recv(network.ClassSystem)
	h.send(0, MsgSpawn, EncodeSpawnReq(SpawnReq{Func: 1}), 0)
	h.recv(t, 0)
	h.lcp.Recv(network.ClassSystem)
	// Tile 0 waits at epoch 5, tile 1 at epoch 3, in separate batches:
	// only epoch 3 releases.
	h.simWait(t, SimWait{Tile: 0, Epoch: 5})
	h.simWait(t, SimWait{Tile: 1, Epoch: 3})
	if e := h.simRelease(t); e != 3 {
		t.Fatalf("released epoch %d, want 3", e)
	}
	// Tile 1 advances to epoch 4 and waits again; now min=4 releases it.
	h.simWait(t, SimWait{Tile: 1, Epoch: 4})
	if e := h.simRelease(t); e != 4 {
		t.Fatalf("released epoch %d, want 4", e)
	}
	// Finally both at 5: one release covers both tiles.
	h.simWait(t, SimWait{Tile: 1, Epoch: 5})
	if e := h.simRelease(t); e != 5 {
		t.Fatalf("released epoch %d, want 5", e)
	}
}

func TestSimBarrierExcludesBlockedThreads(t *testing.T) {
	h := newHarness(t, 2)
	h.srv.StartMain(0)
	h.lcp.Recv(network.ClassSystem)
	h.send(0, MsgSpawn, EncodeSpawnReq(SpawnReq{Func: 1}), 0)
	h.recv(t, 0)
	h.lcp.Recv(network.ClassSystem)
	// Tile 1 blocks on a mutex held by tile 0.
	h.send(0, MsgMutexLock, EncodeU64(0x9), 10)
	h.recv(t, 0)
	h.send(1, MsgMutexLock, EncodeU64(0x9), 20)
	h.noReply(t, 1, 20*time.Millisecond)
	// Tile 0 hits the sim barrier: tile 1 is blocked, so the barrier must
	// release tile 0 rather than deadlock.
	h.simWait(t, SimWait{Tile: 0, Epoch: 1})
	if e := h.simRelease(t); e != 1 {
		t.Fatalf("released epoch %d, want 1", e)
	}
}

func TestSimBarrierBatchReleasesViaLCP(t *testing.T) {
	h := newHarness(t, 2)
	h.srv.StartMain(0)
	h.lcp.Recv(network.ClassSystem)
	h.send(0, MsgSpawn, EncodeSpawnReq(SpawnReq{Func: 1}), 0)
	h.recv(t, 0)
	h.lcp.Recv(network.ClassSystem)
	// The process ledger forwards both tiles' waits in one batch; the MCP
	// answers the whole process with a single release of the min epoch.
	h.simWait(t, SimWait{Tile: 0, Epoch: 5}, SimWait{Tile: 1, Epoch: 3})
	if e := h.simRelease(t); e != 3 {
		t.Fatalf("released epoch %d, want 3", e)
	}
	// Tile 1 (released) advances and waits again at 5: now both pending
	// waits share the min epoch and one release covers them.
	h.simWait(t, SimWait{Tile: 1, Epoch: 5})
	if e := h.simRelease(t); e != 5 {
		t.Fatalf("second release: epoch %d, want 5", e)
	}
}

// TestSimBarrierReleasesPastReceiveBlocked: a tile its ledger reports
// blocked in an application receive (epoch -1) is left out of the
// release rule, so the epoch its sender waits at releases; and no
// checkpoint is cut while it is so blocked, because an application message
// in flight could wake it during the cut. Its next MCP request counts it
// again: the epoch then waits for it, and the checkpoint is cut.
func TestSimBarrierReleasesPastReceiveBlocked(t *testing.T) {
	h := newHarness(t, 2)
	h.srv.StartMain(0)
	h.lcp.Recv(network.ClassSystem)
	h.send(0, MsgSpawn, EncodeSpawnReq(SpawnReq{Func: 1}), 0)
	h.recv(t, 0)
	h.lcp.Recv(network.ClassSystem)
	h.srv.SetCheckpoint(&CheckpointPolicy{Dir: t.TempDir(), Every: 1})

	var first, early, second network.Packet
	simtest.Deadline(t, time.Minute, func() {
		next := make(chan network.Packet, 1)
		recvLCP := func() {
			pkt, _ := h.lcp.Recv(network.ClassSystem)
			next <- pkt
		}
		h.simWait(t, SimWait{Tile: 1, Epoch: -1})
		h.simWait(t, SimWait{Tile: 0, Epoch: 1})
		go recvLCP()
		first = <-next

		// Tile 1 woke and asks the MCP for memory: it counts again.
		h.send(1, MsgMalloc, EncodeU64(64), 100)
		h.tiles[1].Recv(network.ClassSystem)
		h.simWait(t, SimWait{Tile: 0, Epoch: 2})
		go recvLCP()
		select {
		case early = <-next:
			return
		case <-time.After(50 * time.Millisecond):
		}
		h.simWait(t, SimWait{Tile: 1, Epoch: 2})
		second = <-next
	})
	if epoch, err := DecodeU64(first.Payload); first.Type != MsgSimBarrierRelease || err != nil || epoch != 1 {
		t.Fatalf("with tile 1 receiving, the LCP got %s %v, want the release of epoch 1", msgName(first.Type), first.Payload)
	}
	if early.Type != 0 {
		t.Fatalf("epoch 2 moved (%s) before tile 1, running again, waited", msgName(early.Type))
	}
	if second.Type != MsgCkptProbe {
		t.Fatalf("with every thread waiting, the LCP got %s, want the checkpoint's drain probe", msgName(second.Type))
	}
}

// TestCheckpointDrainOutlastsManyRounds: a process that answers the
// drain probe "not quiesced" for more than a thousand rounds — a shard
// descheduled for a few milliseconds outlasts that many in-process
// rounds — and then drains gets its checkpoint saved, not abandoned. The
// drain is bounded by host time, not by a round count.
func TestCheckpointDrainOutlastsManyRounds(t *testing.T) {
	const busyRounds = 1500
	h := newHarness(t, 1)
	h.srv.StartMain(0)
	h.lcp.Recv(network.ClassSystem)
	var saved, failed []string
	h.srv.SetCheckpoint(&CheckpointPolicy{
		Dir:     t.TempDir(),
		Every:   1,
		OnSaved: func(epoch int64, _ *checkpoint.Manifest) { saved = append(saved, fmt.Sprint(epoch)) },
		OnError: func(err error) { failed = append(failed, err.Error()) },
	})
	reply := func(typ uint8, seq uint64, payload []byte) {
		if _, err := h.lcp.Send(network.ClassSystem, typ, arch.TileID(transport.MCP), seq, payload, 0); err != nil {
			t.Error(err)
		}
	}
	var release network.Packet
	simtest.Deadline(t, time.Minute, func() {
		h.simWait(t, SimWait{Tile: 0, Epoch: 1})
		for round := 0; round <= busyRounds; round++ {
			probe, _ := h.lcp.Recv(network.ClassSystem)
			if probe.Type != MsgCkptProbe {
				t.Errorf("probe round %d: the LCP got %s, want CkptProbe", round, msgName(probe.Type))
				return
			}
			rep := CkptProbeRep{Quiesced: round == busyRounds}
			reply(MsgCkptProbeRep, probe.Seq, wire.Encode(rep.Walk))
		}
		save, _ := h.lcp.Recv(network.ClassSystem)
		if save.Type != MsgCkptSave {
			t.Errorf("after the drain, the LCP got %s, want CkptSave", msgName(save.Type))
			return
		}
		res := CkptSaveResult{Proc: 0, File: "p0.state", FileSum: "sum", StateDigest: "sum"}
		reply(MsgCkptSaveRep, save.Seq, wire.Encode(res.Walk))
		release, _ = h.lcp.Recv(network.ClassSystem)
	})
	if t.Failed() {
		return
	}
	if epoch, err := DecodeU64(release.Payload); release.Type != MsgSimBarrierRelease || err != nil || epoch != 1 {
		t.Fatalf("after the save, the LCP got %s %v, want the release of epoch 1", msgName(release.Type), release.Payload)
	}
	if len(failed) != 0 || len(saved) != 1 {
		t.Fatalf("checkpoint saved at epochs %v with errors %v, want saved at 1 without errors", saved, failed)
	}
}

func TestSimBatchCodecRoundTrip(t *testing.T) {
	in := []SimWait{{Tile: 0, Epoch: 1}, {Tile: 1023, Epoch: 1 << 40}, {Tile: 7, Epoch: 0}}
	out, err := DecodeSimBatch(EncodeSimBatch(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, out[i], in[i])
		}
	}
	if _, err := DecodeSimBatch([]byte{1, 2, 3}); err == nil {
		t.Fatal("short payload accepted")
	}
	if _, err := DecodeSimBatch(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// TestSimBatchRejectsOutOfRange: a batch entry for a tile outside the
// simulation, or with an epoch below -1, is refused with an error that
// names the entry, and the MCP panics on it like on any bad payload
// instead of counting it as a wait.
func TestSimBatchRejectsOutOfRange(t *testing.T) {
	for _, w := range []SimWait{{Tile: 2, Epoch: 1}, {Tile: -1, Epoch: 1}, {Tile: 1, Epoch: -2}} {
		batch := EncodeSimBatch([]SimWait{{Tile: 0, Epoch: 1}, w})
		want := fmt.Sprintf("mcp: sim batch entry 1 (tile %d, epoch %d) out of range for 2 tiles", w.Tile, w.Epoch)
		if _, err := AppendSimBatch(nil, batch, 2); err == nil || err.Error() != want {
			t.Errorf("entry %+v: error %v, want %q", w, err, want)
		}
		cfg := config.Default()
		cfg.Tiles = 2
		srv := NewServer(&cfg, nil)
		func() {
			defer func() {
				if r := recover(); r != "mcp: "+want {
					t.Errorf("entry %+v: the MCP panicked with %v, want %q", w, r, want)
				}
			}()
			srv.handle(network.Packet{Class: network.ClassSystem, Type: MsgSimBarrierBatch, Src: arch.TileID(transport.LCP(0)), Payload: batch})
		}()
	}
	if _, err := AppendSimBatch(nil, EncodeSimBatch([]SimWait{{Tile: 1, Epoch: -1}}), 2); err != nil {
		t.Errorf("a receive report for tile 1 of 2 refused: %v", err)
	}
}

func TestMallocExhaustionRepliesZero(t *testing.T) {
	h := newHarness(t, 2)
	h.send(0, MsgMalloc, EncodeU64(1<<62), 10)
	rep := h.recv(t, 0)
	v, err := DecodeU64(rep.Payload)
	if err != nil || v != 0 {
		t.Fatalf("oversized malloc returned %#x", v)
	}
	// Normal allocation still works afterwards.
	h.send(0, MsgMalloc, EncodeU64(64), 20)
	rep = h.recv(t, 0)
	v, _ = DecodeU64(rep.Payload)
	if v == 0 {
		t.Fatal("allocation failed after exhaustion probe")
	}
}

// TestSpawnPrefersNeverUsedTiles: a program spawning its workers in a row
// must find worker i on tile i even when an earlier worker has already
// exited (matmul's workers address ring neighbours by index, and thread
// IDs are tile IDs). A freed tile is reused only once no fresh one is left.
func TestSpawnPrefersNeverUsedTiles(t *testing.T) {
	h := newHarness(t, 4)
	if err := h.srv.StartMain(0); err != nil {
		t.Fatal(err)
	}
	h.lcp.Recv(network.ClassSystem)
	spawn := func(at arch.Cycles) uint64 {
		t.Helper()
		h.send(0, MsgSpawn, EncodeSpawnReq(SpawnReq{Func: 1}), at)
		tid, _, err := DecodeU64Pair(h.recv(t, 0).Payload)
		if err != nil {
			t.Fatal(err)
		}
		if tid != ^uint64(0) {
			h.lcp.Recv(network.ClassSystem)
		}
		return tid
	}
	for want := uint64(1); want <= 2; want++ {
		if tid := spawn(100); tid != want {
			t.Fatalf("spawn %d landed on tile %d", want, tid)
		}
	}
	// Worker 1 exits before the third spawn: that spawn still gets tile 3.
	h.send(1, MsgThreadExit, nil, 200)
	h.send(0, MsgJoin, EncodeU64(1), 300) // orders the exit before the spawn
	h.recv(t, 0)
	if tid := spawn(400); tid != 3 {
		t.Fatalf("third spawn landed on tile %d, want the never-used tile 3", tid)
	}
	// With every tile used, the freed one is handed out again.
	if tid := spawn(500); tid != 1 {
		t.Fatalf("fourth spawn landed on tile %d, want the freed tile 1", tid)
	}
	if tid := spawn(600); tid != ^uint64(0) {
		t.Fatalf("fifth spawn got tile %d with no tile free", tid)
	}
}

// TestSimBarrierReleasesPastStaleWait: a receive-blocked tile is out of
// the release rule, so the epoch it was about to wait at can release
// while its wait for that epoch still rides its ledger's batch. The wait
// then arrives for an epoch already gone, and the tile — woken by its
// ledger's release — goes on into an MCP service, which replaces the
// stale wait. The waits of the other tiles, complete behind it, must
// release, with no further event to trigger it (the 2-process LaxBarrier
// matmul park).
func TestSimBarrierReleasesPastStaleWait(t *testing.T) {
	h := newHarness(t, 3)
	h.srv.StartMain(0)
	h.lcp.Recv(network.ClassSystem)
	for i := 0; i < 2; i++ {
		h.send(0, MsgSpawn, EncodeSpawnReq(SpawnReq{Func: 1}), 0)
		h.recv(t, 0)
		h.lcp.Recv(network.ClassSystem)
	}
	simtest.Deadline(t, time.Minute, func() {
		h.simWait(t, SimWait{Tile: 0, Epoch: -1})
		h.simWait(t, SimWait{Tile: 1, Epoch: 5}, SimWait{Tile: 2, Epoch: 5})
		if e := h.simRelease(t); e != 5 {
			t.Errorf("released epoch %d, want 5", e)
		}
		h.simWait(t, SimWait{Tile: 0, Epoch: 5}) // stale
		h.send(0, MsgJoin, EncodeU64(1), 0)
		h.noReply(t, 0, 20*time.Millisecond) // tile 0 is MCP-blocked now
		h.simWait(t, SimWait{Tile: 1, Epoch: 6}, SimWait{Tile: 2, Epoch: 6})
		if e := h.simRelease(t); e != 6 {
			t.Errorf("released epoch %d, want 6", e)
		}
	})
}
