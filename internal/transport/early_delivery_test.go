package transport

import (
	"testing"
	"time"

	"repro/internal/arch"
)

// TestEarlyFramesWaitForRegister is the regression test for the
// multi-process startup race: processes finish DialTCP together but
// register endpoints at their own pace, so a fast peer's first frames
// can arrive before the local Register. They must be held and delivered
// in order once the endpoint registers — dropping them loses protocol
// messages and hangs the simulation.
func TestEarlyFramesWaitForRegister(t *testing.T) {
	addrs := freeAddrs(t, 2)
	type dialed struct {
		tr  Transport
		err error
	}
	ch := make([]chan dialed, 2)
	for p := 0; p < 2; p++ {
		ch[p] = make(chan dialed, 1)
		go func(p int) {
			tr, err := DialTCP(TCPConfig{
				Proc: arch.ProcID(p), Procs: 2, Addrs: addrs,
				DialTimeout: 10 * time.Second,
			})
			ch[p] <- dialed{tr, err}
		}(p)
	}
	d0, d1 := <-ch[0], <-ch[1]
	if d0.err != nil || d1.err != nil {
		t.Fatalf("dial: %v / %v", d0.err, d1.err)
	}
	defer d0.tr.Close()
	defer d1.tr.Close()

	// Proc 0 sends to proc 1's endpoint 1 before proc 1 registers it —
	// a mix of single and batched frames to cover both delivery paths.
	const n = 6
	if err := d0.tr.Send(1, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if err := d0.tr.SendBatch(1, [][]byte{{1}, {2}, {3}}); err != nil {
		t.Fatal(err)
	}
	if err := d0.tr.Send(1, []byte{4}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the frames land pre-Register

	ep, err := d1.tr.Register(TileEndpoint(1))
	if err != nil {
		t.Fatal(err)
	}
	// And one more after registration: must queue behind the early ones.
	if err := d0.tr.Send(1, []byte{5}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got := recvOne(t, ep)
		if len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("frame %d: got %v", i, got)
		}
	}

	// The same for a control endpoint, whose held frames wait in the
	// fabric's control map. Meanwhile a send from the owning process
	// itself is still refused: only Register makes an endpoint reachable
	// locally.
	lcp := LCP(1)
	if err := d0.tr.Send(lcp, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if err := d0.tr.SendBatch(lcp, [][]byte{{1}, {2}}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if err := d1.tr.Send(lcp, []byte{9}); err == nil {
		t.Fatal("local send to an unregistered endpoint succeeded")
	}
	ep, err = d1.tr.Register(lcp)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.tr.Send(lcp, []byte{3}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if got := recvOne(t, ep); len(got) != 1 || got[0] != byte(i) {
			t.Fatalf("control frame %d: got %v", i, got)
		}
	}
	if _, err := d1.tr.Register(lcp); err == nil {
		t.Fatal("claimed endpoint registered twice")
	}
}

func recvOne(t *testing.T, ep *Endpoint) []byte {
	t.Helper()
	type res struct {
		data []byte
		err  error
	}
	ch := make(chan res, 1)
	go func() {
		data, err := ep.Recv()
		ch <- res{data, err}
	}()
	select {
	case r := <-ch:
		if r.err != nil {
			t.Fatal(r.err)
		}
		return r.data
	case <-time.After(10 * time.Second):
		t.Fatal("frame never delivered")
	}
	panic("unreachable")
}
