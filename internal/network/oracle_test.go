package network

// The reference contention model: the implementation this package, clock
// and queuemodel had before a packet's route became one critical section
// — an atomic progress window, one self-locking queue per link, one
// window Observe+Now and one link lock per hop — kept verbatim (names
// prefixed ref) so the differential tests below can hold the current
// model to it operation by operation. Single-threaded, the two must agree
// on every delay, every Now(), every queue clock and the totals the
// reference's per-link counters sum to: that is the golden
// contract of DESIGN.md §5 at mesh sizes the benchmark's golden sweep
// does not reach.

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/dram"
	"repro/internal/queuemodel"
)

type refWindow struct {
	slots []atomic.Int64
	sum   atomic.Int64
	next  atomic.Uint64
	high  atomic.Int64 // monotonic floor of Now
	n     int64
}

func newRefWindow(size int) *refWindow {
	if size <= 0 {
		size = 1
	}
	return &refWindow{
		slots: make([]atomic.Int64, size),
		n:     int64(size),
	}
}

func (w *refWindow) Observe(t arch.Cycles) {
	if t < 0 {
		return
	}
	i := w.next.Add(1) - 1
	slot := &w.slots[i%uint64(len(w.slots))]
	old := slot.Swap(int64(t))
	w.sum.Add(int64(t) - old)
}

func (w *refWindow) Now() arch.Cycles {
	seen := w.next.Load()
	if seen == 0 {
		return 0
	}
	n := int64(seen)
	if n > w.n {
		n = w.n
	}
	avg := w.sum.Load() / n
	for {
		cur := w.high.Load()
		if avg <= cur {
			return arch.Cycles(cur)
		}
		if w.high.CompareAndSwap(cur, avg) {
			return arch.Cycles(avg)
		}
	}
}

type refQueue struct {
	mu       sync.Mutex
	qclock   arch.Cycles
	progress *refWindow

	// stats
	packets    uint64
	totalDelay arch.Cycles
	busyCycles arch.Cycles
}

func newRefQueue(progress *refWindow) *refQueue {
	return &refQueue{progress: progress}
}

func (q *refQueue) Delay(now, processing arch.Cycles) arch.Cycles {
	if processing < 0 {
		processing = 0
	}
	q.progress.Observe(now)
	arrive := q.progress.Now()
	if now > arrive {
		arrive = now
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	var wait arch.Cycles
	if q.qclock > arrive {
		wait = q.qclock - arrive
		q.qclock += processing
	} else {
		q.qclock = arrive + processing
	}
	q.packets++
	q.totalDelay += wait
	q.busyCycles += processing
	return wait
}

func (q *refQueue) Stats() (packets uint64, totalDelay, busy arch.Cycles) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.packets, q.totalDelay, q.busyCycles
}

type refMesh struct {
	cfg    config.NetworkConfig
	width  int
	height int
	links  []*refQueue
	prog   *refWindow
}

func newRefMesh(cfg config.NetworkConfig, tiles int, prog *refWindow) *refMesh {
	w := 1
	for w*w < tiles {
		w++
	}
	h := (tiles + w - 1) / w
	m := &refMesh{cfg: cfg, width: w, height: h, prog: prog}
	m.links = make([]*refQueue, w*h*4)
	for i := range m.links {
		m.links[i] = newRefQueue(prog)
	}
	return m
}

func (m *refMesh) coord(t arch.TileID) (x, y int) {
	return int(t) % m.width, int(t) / m.width
}

func (m *refMesh) HopCount(src, dst arch.TileID) int {
	sx, sy := m.coord(src)
	dx, dy := m.coord(dst)
	return abs(dx-sx) + abs(dy-sy)
}

func (m *refMesh) serialization(bytes int) arch.Cycles {
	bw := m.cfg.LinkBandwidth
	if bw <= 0 {
		return 0
	}
	return arch.Cycles((bytes + bw - 1) / bw)
}

func (m *refMesh) Delay(src, dst arch.TileID, bytes int, depart arch.Cycles) arch.Cycles {
	ser := m.serialization(bytes)
	if src == dst {
		// Loopback through the local switch: serialization only.
		return ser
	}
	hops := m.HopCount(src, dst)
	latency := arch.Cycles(hops)*m.cfg.HopLatency + ser
	// Contention: walk the XY route and charge each link's queue.
	x, y := m.coord(src)
	dx, dy := m.coord(dst)
	t := depart
	var contention arch.Cycles
	step := func(dir uint8, nx, ny int) {
		q := m.links[(y*m.width+x)*4+int(dir)]
		wait := q.Delay(t, ser)
		contention += wait
		t += wait + m.cfg.HopLatency
		x, y = nx, ny
	}
	for x != dx {
		if x < dx {
			step(0, x+1, y)
		} else {
			step(1, x-1, y)
		}
	}
	for y != dy {
		if y < dy {
			step(3, x, y+1)
		} else {
			step(2, x, y-1)
		}
	}
	return latency + contention
}

func (m *refMesh) ContentionStats() (packets uint64, totalDelay arch.Cycles) {
	for _, q := range m.links {
		p, d, _ := q.Stats()
		packets += p
		totalDelay += d
	}
	return packets, totalDelay
}

// TestContentionModelMatchesReference drives the reference and the
// current model with one seeded stream of route walks, bare Observes (a
// received packet, a loopback shortcut) and DRAM controller accesses, all
// sharing one window, and requires every returned latency, Now() wherever
// it is sampled, every link's final queue clock, the mesh's totals and
// each controller's queue delay to be equal.
func TestContentionModelMatchesReference(t *testing.T) {
	const dramCtls = 3
	for _, tiles := range []int{4, 8, 36, 1024} {
		for _, window := range []int{1, tiles, 13} {
			// Sampling Now() moves the window's monotonic floor, so compare
			// it both after every operation and only now and then.
			for _, nowEvery := range []int{1, 7} {
				t.Run(fmt.Sprintf("tiles=%d/window=%d/now=%d", tiles, window, nowEvery), func(t *testing.T) {
					cfg := config.Default()
					cfg.Tiles = tiles
					cfg.DRAM.QueueModel = true
					nc := meshCfg(config.NetMeshContention)

					refW := newRefWindow(window)
					ref := newRefMesh(nc, tiles, refW)
					var refDRAM [dramCtls]*refQueue
					for i := range refDRAM {
						refDRAM[i] = newRefQueue(refW)
					}

					w := clock.NewProgressWindow(window)
					m := newMesh(nc, tiles, w)
					var ctl [dramCtls]*dram.Controller
					for i := range ctl {
						ctl[i] = dram.New(&cfg, w)
					}
					line := make([]byte, cfg.LineSize())
					service := ctl[0].ServiceTime()

					rng := rand.New(rand.NewSource(int64(tiles*1000 + window*10 + nowEvery)))
					// Per-tile clocks drift apart the way lax tiles do: mostly
					// small steps, now and then a tile leaps far ahead.
					clocks := make([]arch.Cycles, tiles)
					tick := func(tile int) arch.Cycles {
						if rng.Intn(50) == 0 {
							clocks[tile] += arch.Cycles(rng.Intn(1_000_000))
						} else {
							clocks[tile] += arch.Cycles(rng.Intn(40))
						}
						return clocks[tile]
					}
					const ops = 20_000
					for op := 0; op < ops; op++ {
						src := rng.Intn(tiles)
						now := tick(src)
						switch k := rng.Intn(10); {
						case k < 6:
							dst, bytes := arch.TileID(rng.Intn(tiles)), 1+rng.Intn(200)
							want := ref.Delay(arch.TileID(src), dst, bytes, now)
							if got := m.Delay(arch.TileID(src), dst, bytes, now); got != want {
								t.Fatalf("op %d: Delay(%d->%d, %d B, t=%d) = %d, reference %d", op, src, dst, bytes, now, got, want)
							}
						case k < 8:
							if rng.Intn(20) == 0 {
								now = -now - 1 // Observe ignores negative timestamps
							}
							refW.Observe(now)
							w.Observe(now)
						default:
							c := rng.Intn(dramCtls)
							want := cfg.DRAM.AccessLatency + service + refDRAM[c].Delay(now, service)
							if got := ctl[c].ReadLine(uint64(op), line, now); got != want {
								t.Fatalf("op %d: DRAM access at t=%d = %d, reference %d", op, now, got, want)
							}
						}
						if op%nowEvery == 0 {
							if got, want := w.Now(), refW.Now(); got != want {
								t.Fatalf("op %d: Now() = %d, reference %d", op, got, want)
							}
						}
					}

					gp, gd := m.contentionStats()
					wp, wd := ref.ContentionStats()
					if gp != wp || gd != wd {
						t.Fatalf("ContentionStats = (%d, %d), reference (%d, %d)", gp, gd, wp, wd)
					}
					for i := range ref.links {
						x, y, dir := i/4%ref.width, i/4/ref.width, i%4
						if got, want := m.links[m.link(x, y, dir)].Clock(), ref.links[i].qclock; got != want {
							t.Fatalf("link (%d,%d) dir %d: queue clock %d, reference %d", x, y, dir, got, want)
						}
					}
					for i := range ctl {
						if _, d, _ := refDRAM[i].Stats(); ctl[i].TotalQueueDelay != d {
							t.Fatalf("DRAM %d: queue delay %d, reference %d", i, ctl[i].TotalQueueDelay, d)
						}
					}
				})
			}
		}
	}
}

// TestContentionModelConcurrent walks routes, observes and admits to a
// stand-alone queue from many goroutines at once (run it under -race). No
// delay may be negative, no goroutine may see Now() decrease, and at
// quiescence the mesh must have admitted exactly the hops that were
// offered and charged exactly the waits that were returned, and the
// stand-alone queue's clock must cover the service time offered.
func TestContentionModelConcurrent(t *testing.T) {
	const tiles, workers, walks = 1024, 8, 2_000
	w := clock.NewProgressWindow(tiles)
	m := newMesh(meshCfg(config.NetMeshContention), tiles, w)
	var lone queuemodel.Queue

	var hops, waited atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			var now, lastProgress arch.Cycles
			for i := 0; i < walks; i++ {
				now += arch.Cycles(rng.Intn(100))
				src, dst := arch.TileID(rng.Intn(tiles)), arch.TileID(rng.Intn(tiles))
				bytes := 1 + rng.Intn(200)
				d := m.Delay(src, dst, bytes, now)
				h := m.HopCount(src, dst)
				floor := arch.Cycles(h)*m.cfg.HopLatency + m.serialization(bytes)
				if d < floor {
					t.Errorf("Delay(%d->%d) = %d, below its uncontended latency %d", src, dst, d, floor)
					return
				}
				hops.Add(int64(h))
				waited.Add(int64(d - floor))
				w.Observe(now + d)
				if lone.Delay(w, now, 5) < 0 {
					t.Error("negative queue delay")
					return
				}
				p := w.Now()
				if p < lastProgress {
					t.Errorf("Now() went from %d to %d", lastProgress, p)
					return
				}
				lastProgress = p
			}
		}(g)
	}
	wg.Wait()

	if p, d := m.contentionStats(); p != uint64(hops.Load()) || d != arch.Cycles(waited.Load()) {
		t.Errorf("mesh admitted %d hops and charged %d cycles of waiting, routes had %d hops and were charged %d",
			p, d, hops.Load(), waited.Load())
	}
	if c := lone.Clock(); c < workers*walks*5 {
		t.Errorf("stand-alone queue clock %d, below the %d cycles of service offered", c, workers*walks*5)
	}
}
