package transport

import (
	"encoding/binary"
	"sync"
	"testing"
)

// frameVal tags a frame with its sender and a per-sender sequence number.
func frameVal(sender, seq int) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint32(b[0:4], uint32(sender))
	binary.LittleEndian.PutUint32(b[4:8], uint32(seq))
	return b
}

// checkFIFO drains total frames from ep and asserts each sender's sequence
// numbers arrive strictly in order.
func checkFIFO(t *testing.T, ep *Endpoint, total, senders int) {
	t.Helper()
	next := make([]int, senders)
	for i := 0; i < total; i++ {
		data, err := ep.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if len(data) != 8 {
			t.Fatalf("recv %d: frame of %d bytes", i, len(data))
		}
		sender := int(binary.LittleEndian.Uint32(data[0:4]))
		seq := int(binary.LittleEndian.Uint32(data[4:8]))
		if seq != next[sender] {
			t.Fatalf("sender %d: got seq %d, want %d (batching broke per-sender FIFO)", sender, seq, next[sender])
		}
		next[sender]++
	}
}

// sendMixed interleaves plain Sends and SendBatches of varying width from
// one sender, all to dst, numbering frames sequentially.
func sendMixed(t *testing.T, tr Transport, dst EndpointID, sender, count int) {
	t.Helper()
	seq := 0
	for seq < count {
		switch seq % 3 {
		case 0: // single send
			if err := tr.Send(dst, frameVal(sender, seq)); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			seq++
		default: // batch of up to 4
			var frames [][]byte
			for k := 0; k < 4 && seq < count; k++ {
				frames = append(frames, frameVal(sender, seq))
				seq++
			}
			if err := tr.SendBatch(dst, frames); err != nil {
				t.Errorf("sendbatch: %v", err)
				return
			}
		}
	}
}

// TestChannelBatchFIFO drives concurrent senders mixing Send and SendBatch
// over the in-memory fabric and asserts per-sender FIFO delivery.
func TestChannelBatchFIFO(t *testing.T) {
	const senders, perSender = 4, 300
	fab := NewChannelFabric(StripedRoute(1))
	tr := fab.Process(0)
	ep, err := tr.Register(0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sendMixed(t, tr, 0, s, perSender)
		}(s)
	}
	checkFIFO(t, ep, senders*perSender, senders)
	wg.Wait()
	fab.Close()
}

// TestChannelBatchEmptyAndErrors covers the degenerate batch cases.
func TestChannelBatchEmptyAndErrors(t *testing.T) {
	fab := NewChannelFabric(StripedRoute(1))
	tr := fab.Process(0)
	if _, err := tr.Register(0); err != nil {
		t.Fatal(err)
	}
	if err := tr.SendBatch(0, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := tr.SendBatch(7, [][]byte{{1}}); err == nil {
		t.Fatal("batch to unregistered endpoint did not error")
	}
	fab.Close()
	if err := tr.SendBatch(0, [][]byte{{1}}); err != ErrClosed {
		t.Fatalf("batch after close = %v, want ErrClosed", err)
	}
}

// TestTCPBatchFIFO runs the same mixed Send/SendBatch FIFO check across a
// real two-process TCP fabric, covering remote batches (frames appended
// for the peer's writer) and local-delivery batches.
func TestTCPBatchFIFO(t *testing.T) {
	const perSender = 200
	trs := dialPair(t)
	ep0, err := trs[0].Register(0) // tile 0 -> proc 0
	if err != nil {
		t.Fatal(err)
	}
	// Sender 0 is remote (proc 1, over the socket); sender 1 is local
	// (proc 0, direct mailbox batches).
	var sg sync.WaitGroup
	for s, tr := range []Transport{trs[1], trs[0]} {
		sg.Add(1)
		go func(s int, tr Transport) {
			defer sg.Done()
			sendMixed(t, tr, 0, s, perSender)
		}(s, tr)
	}
	checkFIFO(t, ep0, 2*perSender, 2)
	sg.Wait()
}

// TestTCPBatchOversized verifies that a batch whose total exceeds the frame
// limit still arrives intact: the limit bounds each frame, not the batch.
func TestTCPBatchOversized(t *testing.T) {
	trs := dialPair(t)
	ep0, err := trs[0].Register(0)
	if err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 9<<20) // two of these exceed maxFrame as one batch
	big[0] = 0xAB
	if err := trs[1].SendBatch(0, [][]byte{big, big}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		got, err := ep0.Recv()
		if err != nil || len(got) != len(big) || got[0] != 0xAB {
			t.Fatalf("oversized batch frame %d: len %d, err %v", i, len(got), err)
		}
	}
}
