// A token ring across simulated host processes: the same unmodified
// program runs striped across four processes that exchange every byte of
// application data, coherence traffic, and control messages through the
// transport layer. Here the four share this OS process and its channel
// fabric; for real sockets, give each an OS process of its own with
// graphite -procs 4 -fork.
//
//	go run ./examples/token-ring
package main

import (
	"fmt"
	"log"

	graphite "repro"
)

func main() {
	cfg := graphite.DefaultConfig()
	cfg.Tiles = 8
	cfg.Processes = 4 // tiles striped 0,4 | 1,5 | 2,6 | 3,7

	// Token ring: each thread receives a token, adds its contribution
	// from shared memory, and passes it on — every hop crosses a process
	// boundary because neighbouring tiles live in different processes.
	const hops = 8
	prog := graphite.Program{
		Name: "token-ring",
		Funcs: []graphite.ThreadFunc{
			func(t *graphite.Thread, arg uint64) {
				vals := t.Malloc(hops * 64)
				for i := 0; i < hops; i++ {
					t.Store64(vals+graphite.Addr(i*64), uint64(i+1)*100)
				}
				blk := t.Malloc(64)
				t.Store64(blk, uint64(vals))
				var tids []graphite.ThreadID
				for w := 1; w < hops; w++ {
					tids = append(tids, t.Spawn(1, uint64(blk)|uint64(w)<<48))
				}
				// Inject the token and let it do one lap.
				t.Send(1, []byte{0, 0, 0, 0, 0, 0, 0, 0})
				data := t.RecvFrom(graphite.ThreadID(hops - 1))
				var token uint64
				for b := 0; b < 8; b++ {
					token |= uint64(data[b]) << (8 * b)
				}
				token += t.Load64(vals) // main's own contribution
				for _, tid := range tids {
					t.Join(tid)
				}
				want := uint64(0)
				for i := 0; i < hops; i++ {
					want += uint64(i+1) * 100
				}
				fmt.Printf("token after one ring lap: %d (want %d)\n", token, want)
			},
			func(t *graphite.Thread, arg uint64) {
				blk := graphite.Addr(arg & 0xFFFF_FFFF_FFFF)
				w := int(arg >> 48)
				vals := graphite.Addr(t.Load64(blk))
				prev := graphite.ThreadID(w - 1)
				if w == 1 {
					prev = 0
				}
				data := t.RecvFrom(prev)
				var token uint64
				for b := 0; b < 8; b++ {
					token |= uint64(data[b]) << (8 * b)
				}
				token += t.Load64(vals + graphite.Addr(w*64))
				out := make([]byte, 8)
				for b := 0; b < 8; b++ {
					out[b] = byte(token >> (8 * b))
				}
				next := graphite.ThreadID((w + 1) % hops)
				t.Send(next, out)
			},
		},
	}

	rs, err := graphite.Run(cfg, prog, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated cycles %d, wall %v\n", rs.SimulatedCycles, rs.Wall)
	fmt.Printf("network: %d packets, %d bytes\n",
		rs.Totals.NetPacketsSent, rs.Totals.NetBytesSent)
}
