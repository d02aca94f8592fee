package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
)

// dialPair attaches two processes to a loopback TCP fabric: tile 0 lives
// in process 0, tile 1 in process 1.
func dialPair(tb testing.TB) [2]Transport {
	tb.Helper()
	addrs := tcpAddrs(tb, 2)
	var trs [2]Transport
	var errs [2]error
	var wg sync.WaitGroup
	for p := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trs[p], errs[p] = DialTCP(TCPConfig{Proc: arch.ProcID(p), Procs: 2, Addrs: addrs, DialTimeout: 5 * time.Second})
		}()
	}
	wg.Wait()
	for p := range trs {
		if trs[p] != nil {
			tb.Cleanup(func() { trs[p].Close() })
		}
	}
	if errs[0] != nil || errs[1] != nil {
		tb.Fatalf("dial: %v, %v", errs[0], errs[1])
	}
	return trs
}

// pipeSender is a process-0 transport whose only peer, process 1, is
// reached over conn. Its writer is not running until the test starts it.
func pipeSender(conn net.Conn) (*tcpTransport, *tcpPeer) {
	route := StripedRoute(2)
	t := &tcpTransport{
		cfg:   TCPConfig{Proc: 0, Procs: 2, Route: route},
		local: NewChannelFabric(route),
		peers: make([]*tcpPeer, 2),
	}
	t.peers[1] = newTCPPeer(conn)
	return t, t.peers[1]
}

// pipeReceiver is process 1 reading conn into its fabric, with tile 1
// registered.
func pipeReceiver(tb testing.TB, conn net.Conn) (*tcpTransport, *Endpoint) {
	tb.Helper()
	route := StripedRoute(2)
	t := &tcpTransport{cfg: TCPConfig{Proc: 1, Procs: 2, Route: route}, local: NewChannelFabric(route)}
	ep, err := t.Register(1)
	if err != nil {
		tb.Fatal(err)
	}
	go t.readLoop(conn)
	return t, ep
}

// TestTCPWriterFIFO: eight senders in each process mix Send and SendBatch
// to the other process's tile. Every sender's frames arrive in order,
// whichever writes they shared.
func TestTCPWriterFIFO(t *testing.T) {
	const senders, perSender = 8, 2000
	trs := dialPair(t)
	var eps [2]*Endpoint
	for p := range eps {
		ep, err := trs[p].Register(EndpointID(p))
		if err != nil {
			t.Fatal(err)
		}
		eps[p] = ep
	}
	var wg sync.WaitGroup
	for p := range trs {
		for s := 0; s < senders; s++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				sendMixed(t, trs[p], EndpointID(1-p), s, perSender)
			}()
		}
	}
	// Mailboxes are unbounded, so the senders never wait for these.
	for _, ep := range eps {
		checkFIFO(t, ep, senders*perSender, senders)
	}
	wg.Wait()
}

// TestTCPWriterCoalesces: frames appended while the writer is not running
// all go out in one write once it runs.
func TestTCPWriterCoalesces(t *testing.T) {
	const frames = 100
	a, b := net.Pipe()
	defer b.Close()
	tx, p := pipeSender(a)
	for i := 0; i < frames; i++ {
		if err := tx.Send(1, frameVal(0, i)); err != nil {
			t.Fatal(err)
		}
	}
	go tx.writeLoop(p)

	r := bufio.NewReader(b)
	var hdr [8]byte
	for i := 0; i < frames; i++ {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		n, dst := binary.LittleEndian.Uint32(hdr[0:4]), int32(binary.LittleEndian.Uint32(hdr[4:8]))
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if dst != 1 || n != 8 || binary.LittleEndian.Uint32(data[4:8]) != uint32(i) {
			t.Fatalf("frame %d: %d bytes to %d, seq %d", i, n, dst, binary.LittleEndian.Uint32(data[4:8]))
		}
	}
	go io.Copy(io.Discard, r) // the orderly-close frame
	tx.Close()                // the writer has exited, and counted its writes
	// The close frame took one write of its own: Close came after the
	// frames were written.
	if w := p.writes.Load() - 1; w < 1 || w > 2 {
		t.Fatalf("%d frames took %d writes, want 1 or 2", frames, w)
	}
}

// TestTCPCloseDeliversPending: a frame sent just before Close still
// reaches the peer — Close writes what is pending before it closes the
// connection. This is how a worker's teardown ack gets out.
func TestTCPCloseDeliversPending(t *testing.T) {
	for i := 0; i < 1000; i++ {
		a, b := net.Pipe()
		tx, p := pipeSender(a)
		go tx.writeLoop(p)
		rx, ep := pipeReceiver(t, b)
		if err := tx.Send(1, frameVal(0, i)); err != nil {
			t.Fatal(err)
		}
		tx.Close()
		got, err := ep.Recv()
		if err != nil {
			t.Fatalf("rep %d: %v", i, err)
		}
		if seq := binary.LittleEndian.Uint32(got[4:8]); seq != uint32(i) {
			t.Fatalf("rep %d: got frame %d", i, seq)
		}
		rx.Close()
	}
}

// TestTCPCloseBoundedWhenPeerStalls: a peer that has stopped reading
// cannot hold Close for longer than the flush deadline.
func TestTCPCloseBoundedWhenPeerStalls(t *testing.T) {
	a, b := net.Pipe() // nobody reads b: every write blocks
	defer b.Close()
	tx, p := pipeSender(a)
	go tx.writeLoop(p)
	if err := tx.Send(1, frameVal(0, 0)); err != nil {
		t.Fatal(err)
	}
	closed := make(chan struct{})
	go func() {
		tx.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(closeFlushTimeout + 5*time.Second):
		t.Fatal("Close did not return while the peer was not reading")
	}
	if err := tx.Send(1, frameVal(0, 1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
}

// TestTCPMalformedFrameFailsFabric: a frame header announcing more than
// maxFrame bytes fails the fabric, so a receiver blocked in Recv gets
// ErrClosed instead of waiting forever.
func TestTCPMalformedFrameFailsFabric(t *testing.T) {
	addrs := freeAddrs(t, 2)
	fakePeer(t, addrs[1], encodeHello(2, 1, 0, 0)) // answers process 0's dial

	dialed := make(chan Transport, 1)
	go func() {
		tr, err := DialTCP(TCPConfig{Proc: 0, Procs: 2, Addrs: addrs, DialTimeout: 5 * time.Second})
		if err != nil {
			t.Error(err)
		}
		dialed <- tr
	}()
	conn, err := DialRetry(addrs[0], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(encodeHello(2, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	var hello [32]byte
	if _, err := io.ReadFull(conn, hello[:]); err != nil {
		t.Fatal(err)
	}
	tr := <-dialed
	if tr == nil {
		t.FailNow()
	}
	defer tr.Close()
	ep, err := tr.Register(0)
	if err != nil {
		t.Fatal(err)
	}

	var bad [8]byte
	binary.LittleEndian.PutUint32(bad[0:4], maxFrame+1)
	if _, err := conn.Write(bad[:]); err != nil {
		t.Fatal(err)
	}
	recv := make(chan error, 1)
	go func() {
		_, err := ep.Recv()
		recv <- err
	}()
	select {
	case err := <-recv:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv after a malformed frame = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a malformed frame left the receiver waiting")
	}
}

// BenchmarkTCPFanIn: eight goroutines send 94-byte frames (a typical
// coherence message) to one endpoint in another process. writes/frame is
// socket writes per frame sent; its inverse is frames per write.
func BenchmarkTCPFanIn(b *testing.B) {
	const senders, frameBytes = 8, 94
	trs := dialPair(b)
	ep, err := trs[1].Register(1)
	if err != nil {
		b.Fatal(err)
	}
	p := trs[0].(*tcpTransport).peers[1]
	received := make(chan struct{})
	go func() {
		defer close(received)
		for i := 0; i < b.N; i++ {
			if _, err := ep.Recv(); err != nil {
				return
			}
		}
	}()
	w0 := p.writes.Load()
	b.ResetTimer()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		n := b.N / senders
		if s < b.N%senders {
			n++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The TCP transport copies a remote frame before Send
			// returns, so one buffer serves every send.
			frame := make([]byte, frameBytes)
			for i := 0; i < n; i++ {
				if err := trs[0].Send(1, frame); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	<-received
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/frame")
	b.ReportMetric(float64(p.writes.Load()-w0)/float64(b.N), "writes/frame")
}
