package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/arch"
)

func newEphemeralListener() (net.Listener, error) {
	return net.Listen("tcp", "127.0.0.1:0")
}

func TestEndpointIDMapping(t *testing.T) {
	if MCP != -1 {
		t.Fatalf("MCP endpoint = %d", MCP)
	}
	if LCP(0) != -2 || LCP(3) != -5 {
		t.Fatalf("LCP mapping wrong: %d %d", LCP(0), LCP(3))
	}
	if TileEndpoint(7) != 7 {
		t.Fatalf("tile endpoint mapping wrong")
	}
}

func TestStripedRoute(t *testing.T) {
	r := StripedRoute(4)
	if r(MCP) != 0 {
		t.Fatal("MCP must live on process 0")
	}
	for p := 0; p < 4; p++ {
		if got := r(LCP(arch.ProcID(p))); got != arch.ProcID(p) {
			t.Fatalf("LCP(%d) routed to %d", p, got)
		}
	}
	for tile := 0; tile < 16; tile++ {
		if got := r(EndpointID(tile)); got != arch.ProcID(tile%4) {
			t.Fatalf("tile %d routed to %d", tile, got)
		}
	}
}

func TestChannelRoundtrip(t *testing.T) {
	f := NewChannelFabric(StripedRoute(1))
	tr := f.Process(0)
	ep0, err := tr.Register(0)
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := tr.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	got, err := ep1.Recv()
	if err != nil || string(got) != "hello" {
		t.Fatalf("Recv = %q, %v", got, err)
	}
	if err := tr.Send(0, []byte("back")); err != nil {
		t.Fatal(err)
	}
	got, err = ep0.Recv()
	if err != nil || string(got) != "back" {
		t.Fatalf("Recv = %q, %v", got, err)
	}
}

func TestChannelFIFOPerSender(t *testing.T) {
	f := NewChannelFabric(StripedRoute(1))
	tr := f.Process(0)
	ep, _ := tr.Register(0)
	const n = 1000
	for i := 0; i < n; i++ {
		if err := tr.Send(0, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		got, err := ep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if v := int(got[0]) | int(got[1])<<8; v != i {
			t.Fatalf("out of order: got %d at position %d", v, i)
		}
	}
}

func TestChannelTryRecv(t *testing.T) {
	f := NewChannelFabric(StripedRoute(1))
	tr := f.Process(0)
	ep, _ := tr.Register(0)
	if _, ok, err := ep.TryRecv(); ok || err != nil {
		t.Fatalf("TryRecv on empty = %v, %v", ok, err)
	}
	tr.Send(0, []byte("x"))
	data, ok, err := ep.TryRecv()
	if !ok || err != nil || string(data) != "x" {
		t.Fatalf("TryRecv = %q, %v, %v", data, ok, err)
	}
	ep.Close()
	if _, _, err := ep.TryRecv(); err != ErrClosed {
		t.Fatalf("TryRecv on closed = %v, want ErrClosed", err)
	}
}

func TestChannelRegistrationOwnership(t *testing.T) {
	f := NewChannelFabric(StripedRoute(2))
	p0 := f.Process(0)
	p1 := f.Process(1)
	if _, err := p0.Register(1); err == nil {
		t.Fatal("process 0 registered tile 1, which belongs to process 1")
	}
	if _, err := p1.Register(1); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.Register(1); err == nil {
		t.Fatal("duplicate registration accepted")
	}
}

func TestChannelSendToUnregistered(t *testing.T) {
	f := NewChannelFabric(StripedRoute(1))
	tr := f.Process(0)
	if err := tr.Send(5, []byte("x")); err == nil {
		t.Fatal("send to unregistered endpoint succeeded")
	}
}

func TestChannelCloseUnblocksRecv(t *testing.T) {
	f := NewChannelFabric(StripedRoute(1))
	tr := f.Process(0)
	ep, _ := tr.Register(0)
	done := make(chan error, 1)
	go func() {
		_, err := ep.Recv()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	f.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("Recv after close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on close")
	}
	if err := tr.Send(0, []byte("x")); err != ErrClosed {
		t.Fatalf("Send after close = %v, want ErrClosed", err)
	}
}

func TestChannelConcurrentSenders(t *testing.T) {
	f := NewChannelFabric(StripedRoute(1))
	tr := f.Process(0)
	ep, _ := tr.Register(0)
	const senders, per = 8, 250
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if err := tr.Send(0, []byte{byte(s)}); err != nil {
					t.Errorf("send: %v", err)
					return
				}
			}
		}(s)
	}
	counts := make([]int, senders)
	for i := 0; i < senders*per; i++ {
		data, err := ep.Recv()
		if err != nil {
			t.Fatal(err)
		}
		counts[data[0]]++
	}
	wg.Wait()
	for s, n := range counts {
		if n != per {
			t.Fatalf("sender %d delivered %d of %d", s, n, per)
		}
	}
}

func tcpAddrs(t testing.TB, n int) []string {
	t.Helper()
	// Bind ephemeral listeners to find n free ports, then release them.
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := newEphemeralListener()
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	return addrs
}

func TestTCPTwoProcesses(t *testing.T) {
	trs := dialPair(t)
	ep0, err := trs[0].Register(0) // tile 0 -> proc 0
	if err != nil {
		t.Fatal(err)
	}
	ep1, err := trs[1].Register(1) // tile 1 -> proc 1
	if err != nil {
		t.Fatal(err)
	}

	if err := trs[0].Send(1, []byte("cross")); err != nil {
		t.Fatal(err)
	}
	got, err := ep1.Recv()
	if err != nil || string(got) != "cross" {
		t.Fatalf("cross-process Recv = %q, %v", got, err)
	}
	if err := trs[1].Send(0, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	got, err = ep0.Recv()
	if err != nil || string(got) != "reply" {
		t.Fatalf("reply Recv = %q, %v", got, err)
	}
	// Local delivery on a TCP transport must not touch the network.
	if err := trs[0].Send(0, []byte("local")); err != nil {
		t.Fatal(err)
	}
	got, err = ep0.Recv()
	if err != nil || string(got) != "local" {
		t.Fatalf("local Recv = %q, %v", got, err)
	}
}

func TestTCPThreeProcessesAllPairs(t *testing.T) {
	const procs = 3
	addrs := tcpAddrs(t, procs)
	trs := make([]Transport, procs)
	var wg sync.WaitGroup
	errs := make([]error, procs)
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			trs[p], errs[p] = DialTCP(TCPConfig{Proc: arch.ProcID(p), Procs: procs, Addrs: addrs, DialTimeout: 5 * time.Second})
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", p, err)
		}
	}
	eps := make([]*Endpoint, procs)
	for p := 0; p < procs; p++ {
		ep, err := trs[p].Register(EndpointID(p)) // tile p lives on proc p when procs == tiles
		if err != nil {
			t.Fatal(err)
		}
		eps[p] = ep
		defer trs[p].Close()
	}
	defer checkQuietTeardown(t, trs)
	for src := 0; src < procs; src++ {
		for dst := 0; dst < procs; dst++ {
			if src == dst {
				continue
			}
			msg := fmt.Sprintf("%d->%d", src, dst)
			if err := trs[src].Send(EndpointID(dst), []byte(msg)); err != nil {
				t.Fatalf("send %s: %v", msg, err)
			}
			got, err := eps[dst].Recv()
			if err != nil || string(got) != msg {
				t.Fatalf("recv %s = %q, %v", msg, got, err)
			}
		}
	}
}

// checkQuietTeardown closes every transport of a fabric, in process
// order, and checks that none of them saw a fault: each connection ended
// with its orderly-close frame.
func checkQuietTeardown(t *testing.T, trs []Transport) {
	t.Helper()
	for _, tr := range trs {
		tr.Close()
	}
	for p, tr := range trs {
		tt := tr.(*tcpTransport)
		tt.readers.Wait()
		if n := tt.faults.Load(); n != 0 {
			t.Errorf("process %d reported %d faults in an orderly teardown", p, n)
		}
	}
}

// TestTCPThreeProcessTeardownQuiet: whichever process closes first, the
// others take its connections' ends as orderly.
func TestTCPThreeProcessTeardownQuiet(t *testing.T) {
	const procs = 3
	for first := range procs {
		addrs := tcpAddrs(t, procs)
		trs := make([]Transport, procs)
		var wg sync.WaitGroup
		for p := range procs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tr, err := DialTCP(TCPConfig{Proc: arch.ProcID(p), Procs: procs, Addrs: addrs, DialTimeout: 5 * time.Second})
				if err != nil {
					t.Error(err)
				}
				trs[(p+procs-first)%procs] = tr
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		checkQuietTeardown(t, trs)
	}
}

// TestTCPLostPeerFailsFabric: a connection that ends without the
// orderly-close frame, as a killed process's does, fails the fabric of
// the process reading it, which wakes its receivers with ErrClosed.
func TestTCPLostPeerFailsFabric(t *testing.T) {
	trs := dialPair(t)
	ep, err := trs[0].Register(0)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := ep.Recv()
		got <- err
	}()
	trs[1].(*tcpTransport).peers[0].conn.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Recv returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the lost connection did not fail the fabric")
	}
	if n := trs[0].(*tcpTransport).faults.Load(); n != 1 {
		t.Errorf("%d faults reported, want 1", n)
	}
}

// TestTCPFailureReachesEveryPeer: a process whose fabric fails — here
// because process 2's connection to it drops — ends its other connections
// without the orderly-close frame, so process 1, which lost nothing
// itself, fails too instead of waiting for a teardown that will not come.
func TestTCPFailureReachesEveryPeer(t *testing.T) {
	const procs = 3
	addrs := tcpAddrs(t, procs)
	trs := make([]Transport, procs)
	var wg sync.WaitGroup
	for p := range procs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr, err := DialTCP(TCPConfig{Proc: arch.ProcID(p), Procs: procs, Addrs: addrs, DialTimeout: 5 * time.Second})
			if err != nil {
				t.Error(err)
			}
			trs[p] = tr
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for _, tr := range trs {
		defer tr.Close()
	}
	ep, err := trs[1].Register(1)
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := ep.Recv()
		got <- err
	}()
	trs[2].(*tcpTransport).peers[0].conn.Close()
	select {
	case err := <-got:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("process 1's Recv returned %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("process 0's failure left process 1 serving")
	}
}

// TestTCPPeerLostWhileDialing: a peer whose inbound connection passes the
// handshake and drops while this process is still dialing it fails the
// fabric once DialTCP has built its peer table. Under -race this is the
// check that a failing reader never closes the table while the dial loop
// fills it.
func TestTCPPeerLostWhileDialing(t *testing.T) {
	addrs := freeAddrs(t, 2)
	ln, err := net.Listen("tcp", addrs[1]) // proc 1, played by the test
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	type dialed struct {
		tr  Transport
		err error
	}
	result := make(chan dialed, 1)
	go func() {
		tr, err := DialTCP(TCPConfig{Proc: 0, Procs: 2, Addrs: addrs, DialTimeout: 5 * time.Second})
		result <- dialed{tr, err}
	}()

	// Proc 1 connects to proc 0, completes the handshake and drops...
	in, err := DialRetry(addrs[0], 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var hello [32]byte
	if _, err := in.Write(encodeHello(2, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(in, hello[:]); err != nil {
		t.Fatal(err)
	}
	in.Close()
	// ...and only then answers proc 0's dial.
	out, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	if _, err := io.ReadFull(out, hello[:]); err != nil {
		t.Fatal(err)
	}
	if _, err := out.Write(encodeHello(2, 1, 0, 0)); err != nil {
		t.Fatal(err)
	}

	select {
	case r := <-result:
		if r.err != nil {
			t.Fatalf("DialTCP: %v", r.err)
		}
		tt := r.tr.(*tcpTransport)
		tt.readers.Wait()
		if n := tt.faults.Load(); n != 1 {
			t.Errorf("%d faults reported, want 1", n)
		}
		if _, err := tt.Register(0); !errors.Is(err, ErrClosed) {
			t.Errorf("Register on the failed fabric: %v, want ErrClosed", err)
		}
		tt.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("DialTCP did not return")
	}
}

func TestTCPRejectsForeignRegistration(t *testing.T) {
	trs := dialPair(t)
	if _, err := trs[0].Register(1); err == nil {
		t.Fatal("registered an endpoint owned by another process")
	}
}

func TestTCPOversizeFrameRejected(t *testing.T) {
	trs := dialPair(t)
	huge := make([]byte, maxFrame+1)
	if err := trs[0].Send(1, huge); err == nil {
		t.Fatal("oversize frame accepted")
	}
}

func TestTCPSendAfterCloseReturnsErrClosed(t *testing.T) {
	trs := dialPair(t)
	if _, err := trs[0].Register(0); err != nil {
		t.Fatal(err)
	}
	if err := trs[0].Close(); err != nil {
		t.Fatal(err)
	}
	// Local destination (tile 0) and remote destination (tile 1) must both
	// report the transport's closed state, not a raw connection error.
	if err := trs[0].Send(0, []byte("x")); err != ErrClosed {
		t.Fatalf("local Send after Close = %v, want ErrClosed", err)
	}
	if err := trs[0].Send(1, []byte("x")); err != ErrClosed {
		t.Fatalf("remote Send after Close = %v, want ErrClosed", err)
	}
	if err := trs[0].SendBatch(1, [][]byte{[]byte("a"), []byte("b")}); err != ErrClosed {
		t.Fatalf("remote SendBatch after Close = %v, want ErrClosed", err)
	}
}
