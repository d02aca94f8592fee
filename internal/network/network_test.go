package network

import (
	"bytes"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/simtest"
	"repro/internal/transport"
)

func TestPacketRoundtrip(t *testing.T) {
	in := Packet{
		Class:   ClassMemory,
		Type:    7,
		Src:     3,
		Dst:     12,
		Time:    123456789,
		Seq:     42,
		Payload: []byte("line data"),
	}
	out, err := Decode(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Class != in.Class || out.Type != in.Type || out.Src != in.Src ||
		out.Dst != in.Dst || out.Time != in.Time || out.Seq != in.Seq ||
		!bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("roundtrip mismatch: %+v != %+v", out, in)
	}
}

func TestPacketRoundtripControlEndpoints(t *testing.T) {
	in := Packet{Class: ClassSystem, Src: arch.TileID(transport.MCP), Dst: arch.TileID(transport.LCP(2))}
	out, err := Decode(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Src != -1 || out.Dst != -4 {
		t.Fatalf("negative IDs mangled: src=%d dst=%d", out.Src, out.Dst)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("decoded nil frame")
	}
	if _, err := Decode(make([]byte, headerLen-1)); err == nil {
		t.Fatal("decoded short frame")
	}
	p := Packet{Class: ClassApp, Payload: []byte("xyz")}
	enc := p.Encode()
	enc[0] = 200 // bogus class
	if _, err := Decode(enc); err == nil {
		t.Fatal("decoded bogus class")
	}
	enc2 := p.Encode()
	enc2 = enc2[:len(enc2)-1] // truncated payload
	if _, err := Decode(enc2); err == nil {
		t.Fatal("decoded truncated payload")
	}
}

func TestPacketEncodeQuick(t *testing.T) {
	f := func(typ uint8, src, dst int16, tm uint32, seq uint64, payload []byte) bool {
		in := Packet{Class: ClassApp, Type: typ, Src: arch.TileID(src), Dst: arch.TileID(dst),
			Time: arch.Cycles(tm), Seq: seq, Payload: payload}
		out, err := Decode(in.Encode())
		if err != nil {
			return false
		}
		return out.Type == in.Type && out.Src == in.Src && out.Dst == in.Dst &&
			out.Time == in.Time && out.Seq == in.Seq && bytes.Equal(out.Payload, in.Payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMagicModelZeroDelay(t *testing.T) {
	m := Magic{}
	if d := m.Delay(0, 31, 4096, 1000); d != 0 {
		t.Fatalf("magic delay = %d", d)
	}
}

func meshCfg(kind config.NetworkModelKind) config.NetworkConfig {
	return config.NetworkConfig{Kind: kind, HopLatency: 2, LinkBandwidth: 32}
}

func TestMeshGeometry(t *testing.T) {
	m := newMesh(meshCfg(config.NetMeshHop), 16, nil)
	if w, h := m.geometry(); w != 4 || h != 4 {
		t.Fatalf("16 tiles -> %dx%d, want 4x4", w, h)
	}
	m = newMesh(meshCfg(config.NetMeshHop), 17, nil)
	if w, h := m.geometry(); w != 5 || h != 4 {
		t.Fatalf("17 tiles -> %dx%d, want 5x4", w, h)
	}
	m = newMesh(meshCfg(config.NetMeshHop), 1, nil)
	if w, h := m.geometry(); w != 1 || h != 1 {
		t.Fatalf("1 tile -> %dx%d", w, h)
	}
}

func TestMeshHopCount(t *testing.T) {
	m := newMesh(meshCfg(config.NetMeshHop), 16, nil) // 4x4
	cases := []struct {
		src, dst arch.TileID
		hops     int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 3, 3},
		{0, 4, 1},  // one row down
		{0, 15, 6}, // 3 east + 3 south
		{5, 10, 2},
		{15, 0, 6},
	}
	for _, c := range cases {
		if got := m.HopCount(c.src, c.dst); got != c.hops {
			t.Errorf("hops(%v,%v) = %d, want %d", c.src, c.dst, got, c.hops)
		}
	}
}

func TestMeshHopDelayFormula(t *testing.T) {
	m := newMesh(meshCfg(config.NetMeshHop), 16, nil)
	// 0 -> 15: 6 hops * 2 cycles + ceil(64/32)=2 serialization = 14.
	if d := m.Delay(0, 15, 64, 0); d != 14 {
		t.Fatalf("delay = %d, want 14", d)
	}
	// Loopback: serialization only.
	if d := m.Delay(7, 7, 64, 0); d != 2 {
		t.Fatalf("loopback delay = %d, want 2", d)
	}
	// Delay must not depend on departure time without contention.
	if m.Delay(0, 15, 64, 0) != m.Delay(0, 15, 64, 1_000_000) {
		t.Fatal("hop model depends on time")
	}
}

func TestMeshDelaySymmetricAndMonotonicInDistance(t *testing.T) {
	m := newMesh(meshCfg(config.NetMeshHop), 64, nil)
	f := func(a, b uint8) bool {
		src := arch.TileID(a % 64)
		dst := arch.TileID(b % 64)
		return m.Delay(src, dst, 32, 0) == m.Delay(dst, src, 32, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if m.Delay(0, 1, 32, 0) >= m.Delay(0, 63, 32, 0) {
		t.Fatal("longer route not slower")
	}
}

func TestMeshContentionAddsQueueing(t *testing.T) {
	prog := clock.NewProgressWindow(8)
	m := newMesh(meshCfg(config.NetMeshContention), 16, prog)
	base := m.Delay(0, 3, 64, 1000)
	// Hammer the same route at the same timestamp: later packets must
	// queue behind earlier ones on the shared links.
	var last arch.Cycles
	for i := 0; i < 50; i++ {
		last = m.Delay(0, 3, 64, 1000)
	}
	if last <= base {
		t.Fatalf("contention did not grow: first %d, after load %d", base, last)
	}
	pkts, delay := m.contentionStats()
	if pkts == 0 || delay == 0 {
		t.Fatalf("contention stats empty: %d pkts %d delay", pkts, delay)
	}
}

func TestMeshContentionIndependentLinks(t *testing.T) {
	prog := clock.NewProgressWindow(8)
	m := newMesh(meshCfg(config.NetMeshContention), 16, prog)
	for i := 0; i < 50; i++ {
		m.Delay(0, 3, 64, 1000) // load the top row eastward
	}
	// A disjoint route (12 -> 15 along the bottom row) sees no contention
	// from the top-row load beyond global progress effects.
	d := m.Delay(12, 15, 64, 1000)
	hop := m.Delay(12, 15, 64, 1_000_000_000) // long after queues drain
	if d > hop+arch.Cycles(10) {
		t.Fatalf("disjoint route contended: %d vs base %d", d, hop)
	}
}

func TestRingHopCount(t *testing.T) {
	r := &Ring{cfg: meshCfg(config.NetRing), tiles: 8}
	cases := []struct {
		src, dst arch.TileID
		hops     int
	}{
		{0, 0, 0},
		{0, 1, 1},
		{0, 4, 4}, // antipodal
		{0, 5, 3}, // shorter the other way
		{0, 7, 1},
		{7, 0, 1},
		{2, 6, 4},
	}
	for _, c := range cases {
		if got := r.HopCount(c.src, c.dst); got != c.hops {
			t.Errorf("ring hops(%v,%v) = %d, want %d", c.src, c.dst, got, c.hops)
		}
	}
}

func TestRingDelaySymmetric(t *testing.T) {
	r := &Ring{cfg: meshCfg(config.NetRing), tiles: 16}
	f := func(a, b uint8) bool {
		src := arch.TileID(a % 16)
		dst := arch.TileID(b % 16)
		return r.Delay(src, dst, 64, 0) == r.Delay(dst, src, 64, 0)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Ring distance never exceeds tiles/2.
	for src := arch.TileID(0); src < 16; src++ {
		for dst := arch.TileID(0); dst < 16; dst++ {
			if h := r.HopCount(src, dst); h > 8 {
				t.Fatalf("ring hops(%v,%v) = %d > 8", src, dst, h)
			}
		}
	}
}

func TestRingSingleTile(t *testing.T) {
	r := &Ring{cfg: meshCfg(config.NetRing), tiles: 1}
	if d := r.Delay(0, 0, 64, 0); d != 2 { // serialization only
		t.Fatalf("single-tile ring delay %d", d)
	}
}

func TestNewModelSelectsKinds(t *testing.T) {
	prog := clock.NewProgressWindow(4)
	for kind, name := range map[config.NetworkModelKind]string{
		config.NetMagic:          "magic",
		config.NetMeshHop:        "mesh_hop",
		config.NetMeshContention: "mesh_contention",
		config.NetRing:           "ring",
	} {
		m := NewModel(config.NetworkConfig{Kind: kind, HopLatency: 1, LinkBandwidth: 8}, 16, prog)
		if m.Name() != name {
			t.Errorf("kind %v built model %q", kind, m.Name())
		}
	}
}

// netDeadline bounds every test that blocks on a receive.
const netDeadline = 30 * time.Second

// pair is two tile nets on one channel fabric, each with the consumer a
// tile gives it: ClassMemory is the pump, received by a server goroutine
// (here one that forwards each memory packet to mem[i]).
type pair struct {
	n0, n1 *Net
	mem    [2]chan Packet // closed when that net's pump consumer stops
	prog   *clock.ProgressWindow
	fab    *transport.ChannelFabric
}

// newPair builds a pair whose progress window has the given size. setup,
// if non-nil, runs on n1 before its pump consumer starts.
func newPair(t *testing.T, window int, setup func(n1 *Net)) *pair {
	t.Helper()
	cfg := config.Default()
	cfg.Tiles = 4
	p := &pair{prog: clock.NewProgressWindow(window)}
	models := NewModels(&cfg, p.prog)
	p.fab = transport.NewChannelFabric(transport.StripedRoute(1))
	tr := p.fab.Process(0)
	var nets [2]*Net
	for i := range nets {
		ep, err := tr.Register(transport.TileEndpoint(arch.TileID(i)))
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = New(arch.TileID(i), tr, ep, models, p.prog)
		nets[i].SetPrimary(ClassMemory)
	}
	p.n0, p.n1 = nets[0], nets[1]
	if setup != nil {
		setup(p.n1)
	}
	for i, n := range nets {
		// Room for every memory packet a test sends: the pump consumer
		// never waits on the test.
		mem := make(chan Packet, 64)
		p.mem[i] = mem
		go func() {
			defer close(mem)
			for {
				pkt, ok := n.Recv(ClassMemory)
				if !ok {
					return
				}
				mem <- pkt
			}
		}()
	}
	t.Cleanup(p.close)
	return p
}

// close shuts both nets and the fabric and waits for the pump consumers.
func (p *pair) close() {
	p.n0.Close()
	p.n1.Close()
	p.fab.Close()
	for _, mem := range p.mem {
		for range mem {
		}
	}
}

func TestNetSendRecv(t *testing.T) {
	p := newPair(t, 4, nil)
	simtest.Deadline(t, netDeadline, func() {
		arrival, err := p.n0.Send(ClassApp, 9, 1, 77, []byte("ping"), 500)
		if err != nil {
			t.Error(err)
			return
		}
		if arrival <= 500 {
			t.Errorf("arrival %d not after send time", arrival)
		}
		pkt, ok := p.n1.Recv(ClassApp)
		if !ok {
			t.Error("recv failed")
			return
		}
		if pkt.Src != 0 || pkt.Dst != 1 || pkt.Type != 9 || pkt.Seq != 77 ||
			string(pkt.Payload) != "ping" || pkt.Time != arrival {
			t.Errorf("bad packet: %+v (want arrival %d)", pkt, arrival)
		}
	})
}

// TestNetClassIsolation: the pump consumer gets only its own class, and
// the app packet that arrived behind a memory packet waits in its queue.
func TestNetClassIsolation(t *testing.T) {
	p := newPair(t, 4, nil)
	simtest.Deadline(t, netDeadline, func() {
		p.n0.Send(ClassMemory, 1, 1, 0, []byte("mem"), 0)
		p.n0.Send(ClassApp, 2, 1, 0, []byte("app"), 0)
		pkt, ok := p.n1.Recv(ClassApp)
		if !ok || string(pkt.Payload) != "app" {
			t.Errorf("app queue returned %q", pkt.Payload)
		}
		pkt = <-p.mem[1]
		if string(pkt.Payload) != "mem" {
			t.Errorf("memory pump returned %q", pkt.Payload)
		}
	})
}

func TestNetRecvMatchBuffersOthers(t *testing.T) {
	p := newPair(t, 4, nil)
	simtest.Deadline(t, netDeadline, func() {
		p.n0.Send(ClassApp, 0, 1, 1, []byte("a"), 0)
		p.n0.Send(ClassApp, 0, 1, 2, []byte("b"), 0)
		p.n0.Send(ClassApp, 0, 1, 3, []byte("c"), 0)
		pkt, ok := p.n1.RecvMatch(ClassApp, func(p *Packet) bool { return p.Seq == 2 })
		if !ok || string(pkt.Payload) != "b" {
			t.Errorf("RecvMatch returned %q", pkt.Payload)
		}
		// The skipped packets are still there, in order.
		for _, want := range []string{"a", "c"} {
			if pkt, _ = p.n1.Recv(ClassApp); string(pkt.Payload) != want {
				t.Errorf("buffered packet lost: got %q, want %q", pkt.Payload, want)
			}
		}
	})
}

func TestNetSystemTrafficHasZeroDelay(t *testing.T) {
	p := newPair(t, 4, nil)
	simtest.Deadline(t, netDeadline, func() {
		arrival, err := p.n0.Send(ClassSystem, 0, 1, 0, nil, 12345)
		if err != nil {
			t.Error(err)
			return
		}
		if arrival != 12345 {
			t.Errorf("system packet delayed: arrival %d", arrival)
		}
		if _, ok := p.n1.Recv(ClassSystem); !ok {
			t.Error("system packet lost")
		}
	})
}

func TestNetFeedsProgressWindow(t *testing.T) {
	p := newPair(t, 1, nil)
	simtest.Deadline(t, netDeadline, func() {
		p.n0.Send(ClassApp, 0, 1, 0, nil, 10_000)
		if _, ok := p.n1.Recv(ClassApp); !ok {
			t.Error("recv failed")
			return
		}
		if got := p.prog.Now(); got < 10_000 {
			t.Errorf("progress window not fed by delivery: %d", got)
		}
	})
}

func TestNetConcurrentSenders(t *testing.T) {
	p := newPair(t, 4, nil)
	const senders, per = 4, 200
	simtest.Deadline(t, netDeadline, func() {
		var wg sync.WaitGroup
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					if _, err := p.n0.Send(ClassApp, 0, 1, 0, []byte{1}, arch.Cycles(i)); err != nil {
						t.Errorf("send: %v", err)
						return
					}
				}
			}()
		}
		for i := 0; i < senders*per; i++ {
			if _, ok := p.n1.Recv(ClassApp); !ok {
				t.Error("premature close")
				return
			}
		}
		wg.Wait()
	})
	if got := p.n0.Stats().PacketsSent[ClassApp].Load(); got != senders*per {
		t.Fatalf("sent counter = %d", got)
	}
	if got := p.n1.Stats().PacketsRecv[ClassApp].Load(); got != senders*per {
		t.Fatalf("recv counter = %d", got)
	}
}

func TestNetCloseUnblocksRecv(t *testing.T) {
	p := newPair(t, 4, nil)
	unblocked := make(chan bool, 1)
	go func() {
		_, ok := p.n0.Recv(ClassApp)
		unblocked <- ok
	}()
	simtest.Deadline(t, netDeadline, func() {
		p.close()
		if ok := <-unblocked; ok {
			t.Error("Recv returned ok after close")
		}
	})
}

// TestNetSinkSeesArrivalOrderAndCloseOnce: a sink installed on a non-pump
// class runs inside the pump consumer's receives, sees that class's
// packets in arrival order whatever else is interleaved, and hears of the
// endpoint's close exactly once even when the pump is received again.
func TestNetSinkSeesArrivalOrderAndCloseOnce(t *testing.T) {
	var (
		mu     sync.Mutex
		got    []uint64
		closes int
	)
	p := newPair(t, 4, func(n1 *Net) {
		n1.SetSink(ClassSystem, func(pkt Packet, ok bool) {
			mu.Lock()
			defer mu.Unlock()
			if !ok {
				closes++
				return
			}
			got = append(got, pkt.Seq)
		})
	})
	const n = 50
	simtest.Deadline(t, netDeadline, func() {
		for i := uint64(1); i <= n; i++ {
			p.n0.Send(ClassSystem, 0, 1, i, nil, 0)
			if i%10 == 0 {
				p.n0.Send(ClassMemory, 0, 1, i, nil, 0)
			}
		}
		// The last memory packet trails every system packet, so once the
		// pump consumer has it the sink has seen them all.
		for pkt := range p.mem[1] {
			if pkt.Seq == n {
				break
			}
		}
		p.close()
		if _, ok := p.n1.Recv(ClassMemory); ok {
			t.Error("pump returned a packet after close")
		}
	})
	mu.Lock()
	defer mu.Unlock()
	if len(got) != n {
		t.Fatalf("sink saw %d packets, want %d", len(got), n)
	}
	for i, seq := range got {
		if seq != uint64(i+1) {
			t.Fatalf("sink saw seq %d at position %d: %v", seq, i, got)
		}
	}
	if closes != 1 {
		t.Fatalf("sink told of close %d times, want 1", closes)
	}
}

// TestNetTryRecvBurstReportsCloseOnce: a pump consumer that never blocks
// (a memory-server shard) drains what a closed endpoint still holds
// before TryRecvBurst reports the close, sees other classes go to their
// sinks on the way, and the sinks hear of the close once however often
// the consumer asks again.
func TestNetTryRecvBurstReportsCloseOnce(t *testing.T) {
	cfg := config.Default()
	cfg.Tiles = 2
	fab := transport.NewChannelFabric(transport.StripedRoute(1))
	defer fab.Close()
	tr := fab.Process(0)
	models := NewModels(&cfg, nil)
	var nets [2]*Net
	for i := range nets {
		ep, err := tr.Register(transport.TileEndpoint(arch.TileID(i)))
		if err != nil {
			t.Fatal(err)
		}
		nets[i] = New(arch.TileID(i), tr, ep, models, nil)
		nets[i].SetPrimary(ClassMemory)
	}
	var sys, closes int
	nets[1].SetSink(ClassSystem, func(_ Packet, ok bool) {
		if ok {
			sys++
		} else {
			closes++
		}
	})
	for i := uint64(1); i <= 3; i++ {
		nets[0].Send(ClassMemory, 0, 1, i, nil, 0)
		nets[0].Send(ClassSystem, 0, 1, i, nil, 0)
	}
	nets[1].Close()
	var out [2]Packet
	for _, want := range []struct {
		seqs []uint64
		open bool
	}{{[]uint64{1, 2}, true}, {[]uint64{3}, false}, {nil, false}} {
		k, open := nets[1].TryRecvBurst(out[:])
		if k != len(want.seqs) || open != want.open {
			t.Fatalf("TryRecvBurst = %d packets, open %v; want %d, open %v", k, open, len(want.seqs), want.open)
		}
		for i, seq := range want.seqs {
			if out[i].Seq != seq {
				t.Fatalf("packet %d has seq %d, want %d", i, out[i].Seq, seq)
			}
		}
	}
	if sys != 3 || closes != 1 {
		t.Fatalf("system sink saw %d packets and %d closes, want 3 and 1", sys, closes)
	}
}

// TestBurstRunsSendingSink: a sink runs inside the pump consumer's
// TryRecvBurst, and one that sends — a LaxP2P clock probe's reply does —
// models its packet on the contended mesh there, taking the progress
// window's lock for its route while the burst goes on.
func TestBurstRunsSendingSink(t *testing.T) {
	cfg := config.Default()
	cfg.Tiles = 16
	cfg.MemNet.Kind = config.NetMeshContention
	prog := clock.NewProgressWindow(16)
	models := NewModels(&cfg, prog)
	fab := transport.NewChannelFabric(transport.StripedRoute(1))
	defer fab.Close()
	tr := fab.Process(0)
	net := func(tile arch.TileID) *Net {
		ep, err := tr.Register(transport.TileEndpoint(tile))
		if err != nil {
			t.Fatal(err)
		}
		n := New(tile, tr, ep, models, prog)
		n.SetPrimary(ClassMemory)
		return n
	}
	src, dst := net(0), net(15)
	replied := 0
	dst.SetSink(ClassSystem, func(p Packet, ok bool) {
		if ok {
			dst.Send(ClassMemory, 0, 0, p.Seq, nil, p.Time)
			replied++
		}
	})
	src.Send(ClassSystem, 0, 15, 1, nil, 10)
	src.Send(ClassMemory, 0, 15, 2, nil, 20)
	var out [4]Packet
	k, open := dst.TryRecvBurst(out[:])
	if k != 1 || !open || replied != 1 {
		t.Fatalf("TryRecvBurst = %d packets, open %v, %d sink replies; want 1, true, 1", k, open, replied)
	}
	if hops, _ := models.Model(ClassMemory).(*Mesh).contentionStats(); hops != 12 {
		t.Fatalf("the mesh admitted %d hops, want 12: the memory packet's 6 and the reply's 6", hops)
	}
}

// FuzzPacketDecode checks the frame decoder: decoding never panics, and a
// frame it accepts re-encodes to the same bytes through Packet.Encode.
// The seeds are frames the simulator sends: a coherence request, a data
// reply, an empty-payload ack and a control-endpoint message.
func FuzzPacketDecode(f *testing.F) {
	for _, p := range []Packet{
		{Class: ClassMemory, Type: 1, Src: 3, Dst: 0, Time: 1234, Seq: 7, Payload: bytes.Repeat([]byte{1}, 17)},
		{Class: ClassMemory, Type: 13, Src: 0, Dst: 3, Time: 1500, Seq: 7, Payload: bytes.Repeat([]byte{2}, 85)},
		{Class: ClassMemory, Type: 17, Src: 1, Dst: 2, Time: 99},
		{Class: ClassSystem, Type: 4, Src: -1, Dst: 5, Seq: 1 << 40, Payload: []byte("barrier")},
	} {
		f.Add(p.Encode())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := Decode(b)
		if err != nil {
			return
		}
		if out := p.Encode(); !bytes.Equal(out, b) {
			t.Fatalf("frame %x re-encodes as %x", b, out)
		}
	})
}
