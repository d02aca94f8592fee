package transport

import (
	"sync/atomic"
	"testing"
	"time"
)

// notified installs a readiness callback on ep that counts its calls.
func notified(ep *Endpoint) *atomic.Int32 {
	var n atomic.Int32
	ep.SetNotify(func() { n.Add(1) })
	return &n
}

// drain empties ep with TryRecv and returns how many frames it held.
func drain(t *testing.T, ep *Endpoint) int {
	t.Helper()
	k := 0
	for {
		_, ok, err := ep.TryRecv()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return k
		}
		k++
	}
}

// TestNotifyOncePerEmptyToNonEmpty: the readiness callback fires when an
// endpoint goes from empty to non-empty, not once per frame or per batch;
// a consumer that drains it to empty hears of the next frame.
func TestNotifyOncePerEmptyToNonEmpty(t *testing.T) {
	tr := NewChannelFabric(StripedRoute(1)).Process(0)
	ep, err := tr.Register(0)
	if err != nil {
		t.Fatal(err)
	}
	fired := notified(ep)
	if got := fired.Load(); got != 0 {
		t.Fatalf("installing on an empty endpoint fired %d times", got)
	}
	for i := 0; i < 3; i++ {
		if err := tr.Send(0, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := tr.SendBatch(0, [][]byte{{3}, {4}}); err != nil {
		t.Fatal(err)
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("five frames into an empty endpoint fired %d times, want 1", got)
	}
	if k := drain(t, ep); k != 5 {
		t.Fatalf("drained %d frames, want 5", k)
	}
	if err := tr.SendBatch(0, [][]byte{{5}, {6}, {7}}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(0, []byte{8}); err != nil {
		t.Fatal(err)
	}
	if got := fired.Load(); got != 2 {
		t.Fatalf("a batch into the drained endpoint brought the count to %d, want 2", got)
	}
}

// TestNotifyOnClose: the first Close fires the callback, a second does
// not, and neither does a send the closed endpoint refuses.
func TestNotifyOnClose(t *testing.T) {
	f := NewChannelFabric(StripedRoute(1))
	ep, err := f.Process(0).Register(0)
	if err != nil {
		t.Fatal(err)
	}
	fired := notified(ep)
	ep.Close()
	if got := fired.Load(); got != 1 {
		t.Fatalf("Close fired %d times, want 1", got)
	}
	ep.Close()
	f.Close()
	if err := ep.put([]byte{0}); err != ErrClosed {
		t.Fatalf("put on a closed endpoint = %v, want ErrClosed", err)
	}
	if got := fired.Load(); got != 1 {
		t.Fatalf("after a second Close and a refused send the count is %d, want 1", got)
	}
}

// TestNotifyAtInstall: installing the callback over frames the endpoint
// already holds, or on a closed endpoint, fires it at once — no later
// push would.
func TestNotifyAtInstall(t *testing.T) {
	tr := NewChannelFabric(StripedRoute(1)).Process(0)
	ep, err := tr.Register(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Send(0, []byte{0}); err != nil {
		t.Fatal(err)
	}
	if got := notified(ep).Load(); got != 1 {
		t.Fatalf("installing over a held frame fired %d times, want 1", got)
	}
	closed, err := tr.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	closed.Close()
	if got := notified(closed).Load(); got != 1 {
		t.Fatalf("installing on a closed endpoint fired %d times, want 1", got)
	}
}

// shardServe is the shape of a memory-server shard reduced to one
// endpoint: it sleeps until the readiness callback fires, then drains the
// endpoint with TryRecv, and forwards every frame. It returns when the
// endpoint is closed and drained.
func shardServe(ep *Endpoint, out chan<- []byte) {
	ready := make(chan struct{}, 1)
	ep.SetNotify(func() {
		select {
		case ready <- struct{}{}:
		default:
		}
	})
	for range ready {
		for {
			data, ok, err := ep.TryRecv()
			if err != nil {
				close(out)
				return
			}
			if !ok {
				break
			}
			out <- data
		}
	}
}

// recvServed waits for the next frame shardServe forwards.
func recvServed(t *testing.T, out <-chan []byte) []byte {
	t.Helper()
	select {
	case data, ok := <-out:
		if !ok {
			t.Fatal("shard returned early")
		}
		return data
	case <-time.After(10 * time.Second):
		t.Fatal("frame never served")
	}
	panic("unreachable")
}
