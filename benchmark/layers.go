package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/clock"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/core/launch"
	"repro/internal/coremodel"
	"repro/internal/directory"
	"repro/internal/dram"
	"repro/internal/mcp"
	"repro/internal/memsys"
	"repro/internal/network"
	"repro/internal/recordcache"
	"repro/internal/scenario"
	"repro/internal/scenario/dispatch"
	"repro/internal/synchro"
	"repro/internal/transport"
	"repro/internal/workloads"
)

// The unit costs: each fixture drives one layer's public functions, from
// outside, on a fixture of fixed size, so that a change inside the layer
// moves its number and nothing else's. They are the same for every
// workload; the counts and spans that go with them are the workload's.

// unitCost times fn, which must perform n operations. It grows n until a
// call takes a fifth of budget, then reports the median ns per operation
// of five such calls and the heap allocations per operation across them.
func unitCost(budget time.Duration, fn func(n int)) (nsPerOp, allocsPerOp float64) {
	n := 1
	for {
		t0 := time.Now()
		fn(n)
		if d := time.Since(t0); d >= budget/5 || n >= 1<<24 {
			break
		} else if d < budget/50 {
			n *= 8
		} else {
			n *= 2
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var per []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		fn(n)
		per = append(per, float64(time.Since(t0))/float64(n))
	}
	runtime.ReadMemStats(&after)
	return median(per), float64(after.Mallocs-before.Mallocs) / float64(5*n)
}

// unitBudget is the time one unit-cost measurement may take.
func (s *sessionSpec) unitBudget() time.Duration {
	if s.Smoke {
		return 20 * time.Millisecond
	}
	return 100 * time.Millisecond
}

// layerSuite runs every fixture and returns its metrics. A fixture that
// fails leaves its metrics out, which fails the traced run by name.
func layerSuite(spec *sessionSpec, progress func()) (map[string]float64, []string) {
	m := map[string]float64{}
	var notes []string
	fixtures := []struct {
		name string
		run  func(*sessionSpec, map[string]float64) error
	}{
		{"coremodel", fixCoremodel}, {"cache", fixCache}, {"memsys", fixMemsys},
		{"directory", fixDirectory}, {"dram", fixDRAM}, {"network", fixNetwork},
		{"transport", fixTransport}, {"synchro", fixSynchro}, {"mcp", fixMCP},
		{"core", fixCore}, {"launch", fixLaunch}, {"checkpoint", fixCheckpoint},
		{"fabric", fixFabricPair}, {"recordcache", fixRecordcache}, {"scenario", fixScenario},
		{"dispatch", fixDispatch}, {"service", fixService},
	}
	for _, f := range fixtures {
		progress()
		err := func() (err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("panic: %v", r)
				}
			}()
			return f.run(spec, m)
		}()
		if err != nil {
			notes = append(notes, fmt.Sprintf("layer fixture %s failed: %v", f.name, err))
		}
	}
	return m, notes
}

func fixCoremodel(spec *sessionSpec, m map[string]float64) error {
	var clk clock.Local
	c := coremodel.New(config.Default().Core, &clk, 0x1000, 8<<10, 64, nil)
	ns, _ := unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			c.Compute(coremodel.Arith, 3)
			c.Branch(i%3 == 0)
		}
	})
	m["coremodel.instr_ns"] = ns / 4 // four instructions retire per iteration
	return nil
}

func fixCache(spec *sessionSpec, m map[string]float64) error {
	l2 := cache.New(config.Default().L2)
	defer l2.Release()
	data := make([]byte, 64)
	for l := cache.LineAddr(0); l < 1024; l++ {
		l2.Insert(l, cache.Shared, data)
	}
	m["cache.lookup_hit_ns"], _ = unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := l2.Lookup(cache.LineAddr(i & 1023)); !ok {
				panic("cache fixture: resident line missed")
			}
		}
	})
	small := cache.New(config.CacheConfig{Enabled: true, Size: 256 << 10, Assoc: 8, LineSize: 64, HitLatency: 8})
	defer small.Release()
	next := cache.LineAddr(0)
	for ; next < 4096; next++ { // fill, so that every further insert evicts
		small.Insert(next, cache.Modified, data)
	}
	m["cache.insert_evict_ns"], _ = unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			if _, evicted := small.Insert(next, cache.Modified, data); !evicted {
				panic("cache fixture: insert into a full set evicted nothing")
			}
			next++
		}
	})
	return nil
}

// memCluster wires the memory nodes of a few tiles over a channel fabric
// in one process, as core.Proc does.
type memCluster struct {
	fab   *transport.ChannelFabric
	nets  []*network.Net
	nodes []*memsys.Node
}

func newMemCluster(cfg *config.Config) (*memCluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &memCluster{fab: transport.NewChannelFabric(transport.StripedRoute(1))}
	prog := clock.NewProgressWindow(cfg.ProgressWindowSize())
	models := network.NewModels(cfg, prog)
	tr := c.fab.Process(0)
	for tile := 0; tile < cfg.Tiles; tile++ {
		ep, err := tr.Register(transport.TileEndpoint(arch.TileID(tile)))
		if err != nil {
			c.close()
			return nil, err
		}
		net := network.New(arch.TileID(tile), tr, ep, models, prog)
		net.SetPrimary(network.ClassMemory)
		net.Start()
		node := memsys.NewNode(arch.TileID(tile), cfg, net, prog)
		go node.Serve()
		c.nets = append(c.nets, net)
		c.nodes = append(c.nodes, node)
	}
	return c, nil
}

func (c *memCluster) close() {
	for _, n := range c.nets {
		n.Close()
	}
	c.fab.Close()
	for _, n := range c.nodes {
		<-n.Stopped()
	}
}

func fixMemsys(spec *sessionSpec, m map[string]float64) error {
	cfg := config.Default()
	cfg.Tiles = 4
	c, err := newMemCluster(&cfg)
	if err != nil {
		return err
	}
	defer c.close()
	buf := make([]byte, 8)
	n0 := c.nodes[0]
	n0.Write(0x9000, buf, 0) // Modified in the local L1D: every read below hits
	m["memsys.local_hit_ns"], m["memsys.hit_allocs"] = unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			n0.Read(0x9000, buf, arch.Cycles(i))
		}
	})
	// Two tiles write one line in turn: each write finds it Modified at
	// the other tile, so it is a full remote miss through the home.
	now := arch.Cycles(0)
	ns, _ := unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			now += c.nodes[i&1].Write(0xA000, buf, now).Latency
		}
	})
	m["memsys.remote_miss_us"] = ns / 1e3
	return nil
}

func fixDirectory(spec *sessionSpec, m map[string]float64) error {
	op := func(cc config.CoherenceConfig) float64 {
		st := directory.NewStore(cc, 64, 1024)
		refs := make([]directory.Ref, 1024)
		for i := range refs {
			refs[i] = st.Alloc()
		}
		ns, _ := unitCost(spec.unitBudget(), func(n int) {
			for i := 0; i < n; i++ {
				r, t := refs[i&1023], arch.TileID(i&63)
				r.AddSharer(t)
				if !r.ContainsSharer(t) {
					panic("directory fixture: added sharer missing")
				}
				r.RemoveSharer(t)
			}
		})
		return ns
	}
	base := config.Default().Coherence
	m["directory.store_op_ns_fullmap"] = op(base)
	nb := base
	nb.Kind, nb.DirPointers = config.LimitedNB, 4
	m["directory.store_op_ns_dirnb"] = op(nb)

	st := directory.NewStore(base, 72, 1)
	r := st.Alloc()
	for t := arch.TileID(0); t < 72; t++ {
		r.AddSharer(t)
	}
	seen := 0
	m["directory.inv_walk_ns_72t"], _ = unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			r.ForEachSharer(func(arch.TileID) { seen++ })
		}
	})
	if seen == 0 || seen%72 != 0 {
		return fmt.Errorf("walk visited %d sharers, not a multiple of 72", seen)
	}
	return nil
}

func fixDRAM(spec *sessionSpec, m map[string]float64) error {
	cfg := config.Default()
	c := dram.New(&cfg, clock.NewProgressWindow(cfg.ProgressWindowSize()))
	line := make([]byte, cfg.LineSize())
	for l := uint64(0); l < 256; l++ {
		c.WriteLine(l, line, 0)
	}
	m["dram.access_ns"], _ = unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			c.ReadLine(uint64(i&255), line, arch.Cycles(i)*100)
		}
	})
	return nil
}

func fixNetwork(spec *sessionSpec, m map[string]float64) error {
	cfg := config.Default()
	cfg.Tiles = 64
	prog := clock.NewProgressWindow(cfg.ProgressWindowSize())
	for _, k := range []struct {
		kind config.NetworkModelKind
		name string
	}{{config.NetMeshHop, "network.delay_ns_mesh_hop"}, {config.NetMeshContention, "network.delay_ns_mesh_contention"}} {
		nc := cfg.MemNet
		nc.Kind = k.kind
		model := network.NewModel(nc, cfg.Tiles, prog)
		m[k.name], _ = unitCost(spec.unitBudget(), func(n int) {
			for i := 0; i < n; i++ {
				depart := arch.Cycles(i) * 10
				prog.Observe(depart)
				model.Delay(arch.TileID(i&63), arch.TileID((i*7+3)&63), 94, depart)
			}
		})
	}

	pkt := network.Packet{Class: network.ClassMemory, Type: 3, Src: 1, Dst: 2, Time: 1000, Seq: 7, Payload: make([]byte, 64)}
	m["network.packet_codec_ns"], _ = unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			if _, err := network.Decode(pkt.Encode()); err != nil {
				panic(err)
			}
		}
	})

	fab := transport.NewChannelFabric(transport.StripedRoute(1))
	defer fab.Close()
	tr := fab.Process(0)
	models := network.NewModels(&cfg, prog)
	var nets [2]*network.Net
	for t := range nets {
		ep, err := tr.Register(transport.TileEndpoint(arch.TileID(t)))
		if err != nil {
			return err
		}
		nets[t] = network.New(arch.TileID(t), tr, ep, models, prog)
		nets[t].SetPrimary(network.ClassMemory) // Recv pumps the endpoint inline, as a tile's memory server does
		nets[t].Start()
		defer nets[t].Close()
	}
	payload := make([]byte, 64)
	m["network.send_recv_ns"], _ = unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			if _, err := nets[0].Send(network.ClassMemory, 3, 1, uint64(i), payload, arch.Cycles(i)); err != nil {
				panic(err)
			}
			if _, ok := nets[1].Recv(network.ClassMemory); !ok {
				panic("network fixture: receiver closed")
			}
		}
	})
	return nil
}

const (
	frameBytes = 94 // a coherence message with a 64-byte line
	batchSize  = 32
)

func fixTransport(spec *sessionSpec, m map[string]float64) error {
	fab := transport.NewChannelFabric(transport.StripedRoute(1))
	defer fab.Close()
	tr := fab.Process(0)
	ep, err := tr.Register(transport.TileEndpoint(0))
	if err != nil {
		return err
	}
	frame := make([]byte, frameBytes)
	m["transport.chan_send_ns"], m["transport.allocs_per_send"] = unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			if err := tr.Send(0, frame); err != nil {
				panic(err)
			}
			if frame, err = ep.Recv(); err != nil { // the frame comes back, to be sent again
				panic(err)
			}
		}
	})
	frames := make([][]byte, batchSize)
	for i := range frames {
		frames[i] = make([]byte, frameBytes)
	}
	ns, _ := unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			if err := tr.SendBatch(0, frames); err != nil {
				panic(err)
			}
			for j := range frames {
				if frames[j], err = ep.Recv(); err != nil {
					panic(err)
				}
			}
		}
	})
	m["transport.chan_batch_ns_per_msg"] = ns / batchSize
	return tcpFixture(spec, m)
}

// tcpFixture attaches two processes' transports to a loopback TCP fabric
// inside this process: tile 0 lives in process 0, tile 1 in process 1.
func tcpFixture(spec *sessionSpec, m map[string]float64) error {
	addrs, err := launch.LocalHosts(2)
	if err != nil {
		return err
	}
	var trs [2]transport.Transport
	var errs [2]error
	var wg sync.WaitGroup
	for p := range trs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			trs[p], errs[p] = transport.DialTCP(transport.TCPConfig{Proc: arch.ProcID(p), Procs: 2, Addrs: addrs, DialTimeout: 10 * time.Second})
		}()
	}
	wg.Wait()
	for p := range trs {
		if trs[p] != nil {
			defer trs[p].Close()
		}
	}
	if errs[0] != nil || errs[1] != nil {
		return fmt.Errorf("dial: %v, %v", errs[0], errs[1])
	}
	ep0, err := trs[0].Register(transport.TileEndpoint(0))
	if err != nil {
		return err
	}
	ep1, err := trs[1].Register(transport.TileEndpoint(1))
	if err != nil {
		return err
	}

	// Streaming: process 0 sends, process 1 counts, and a batch is done
	// when its last frame has arrived.
	arrived := make(chan struct{})
	want := make(chan int)
	go func() {
		for n := range want {
			for i := 0; i < n; i++ {
				if _, err := ep1.Recv(); err != nil {
					return // fixture torn down
				}
			}
			arrived <- struct{}{}
		}
	}()
	stream := func(send func(n int)) func(n int) {
		return func(n int) {
			want <- n
			send(n)
			<-arrived
		}
	}
	m["transport.tcp_send_ns"], _ = unitCost(spec.unitBudget(), stream(func(n int) {
		for i := 0; i < n; i++ {
			if err := trs[0].Send(1, make([]byte, frameBytes)); err != nil {
				panic(err)
			}
		}
	}))
	ns, _ := unitCost(spec.unitBudget(), stream(func(n int) {
		for i := 0; i < n; i += batchSize {
			frames := make([][]byte, min(batchSize, n-i))
			for j := range frames {
				frames[j] = make([]byte, frameBytes)
			}
			if err := trs[0].SendBatch(1, frames); err != nil {
				panic(err)
			}
		}
	}))
	m["transport.tcp_batch_ns_per_msg"] = ns
	close(want)

	// Ping-pong: process 1 echoes every frame back to tile 0.
	go func() {
		for {
			f, err := ep1.Recv()
			if err != nil || trs[1].Send(0, f) != nil {
				return // fixture torn down
			}
		}
	}()
	ns, _ = unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			if err := trs[0].Send(1, make([]byte, frameBytes)); err != nil {
				panic(err)
			}
			if _, err := ep0.Recv(); err != nil {
				panic(err)
			}
		}
	})
	m["transport.tcp_rtt_us"] = ns / 1e3
	return nil
}

// ledgerRound times one barrier round of a Ledger with the given number
// of waiting threads; the flush callback plays the MCP and releases the
// epoch as soon as the batch arrives.
func ledgerRound(spec *sessionSpec, threads int) float64 {
	var l *synchro.Ledger
	l = synchro.NewLedger(func(ws []synchro.EpochWait) { l.Release(ws[0].Epoch) })
	defer l.Close()
	for t := 0; t < threads; t++ {
		l.ThreadStarted(arch.TileID(t))
	}
	epoch := int64(0)
	ns, _ := unitCost(spec.unitBudget(), func(n int) {
		var wg sync.WaitGroup
		for t := 0; t < threads; t++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for e := epoch + 1; e <= epoch+int64(n); e++ {
					l.Wait(arch.TileID(t), e)
				}
			}()
		}
		wg.Wait()
		epoch += int64(n)
	})
	return ns / 1e3
}

func fixSynchro(spec *sessionSpec, m map[string]float64) error {
	m["synchro.ledger_round_us_64"] = ledgerRound(spec, 64)
	m["synchro.ledger_round_us_1024"] = ledgerRound(spec, 1024)

	sc := config.Default().Sync
	now := arch.Cycles(0)
	p2p := synchro.NewP2P(sc, 0, 64, spec.Seed, func(arch.TileID) (arch.Cycles, bool) { return now, true }, func(time.Duration) {})
	m["synchro.p2p_tick_ns"], _ = unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			now += 100
			p2p.Tick(now)
		}
	})

	// Table 3's error: mean simulated cycles under Lax and LaxP2P against
	// the LaxBarrier mean (quantum 1000), radix on 16 tiles.
	cycles := map[config.SyncModel]float64{}
	const runs = 4
	for _, model := range []config.SyncModel{config.LaxBarrier, config.Lax, config.LaxP2P} {
		s := &scenario.Scenario{Name: "sync-error", Preset: "small-cache", Workload: "radix", Scale: 10, Seed: spec.Seed, Repeats: runs,
			Base:  map[string]any{"Tiles": 16, "Sync.Model": int(model), "Sync.BarrierQuantum": 1000, "Sync.P2PSlack": 1000, "Sync.P2PInterval": 500},
			Grids: []scenario.Grid{{}}}
		if spec.Smoke {
			s.Scale, s.Repeats = 8, 2
		}
		specs, err := s.Expand()
		if err != nil {
			return err
		}
		for i := range specs {
			rec := scenario.Execute(&specs[i])
			if rec.Error != "" {
				return fmt.Errorf("%v run: %s", model, rec.Error)
			}
			cycles[model] += float64(rec.SimCycles) / float64(len(specs))
		}
	}
	base := cycles[config.LaxBarrier]
	m["synchro.lax_cycles_err_pct"] = 100 * abs(cycles[config.Lax]-base) / base
	m["synchro.p2p_cycles_err_pct"] = 100 * abs(cycles[config.LaxP2P]-base) / base
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func fixMCP(spec *sessionSpec, m map[string]float64) error {
	cfg := config.Default()
	cfg.Tiles = 1
	fab := transport.NewChannelFabric(transport.StripedRoute(1))
	defer fab.Close()
	tr := fab.Process(0)
	models := network.NewModels(&cfg, nil)
	endpoint := func(id transport.EndpointID) (*network.Net, error) {
		ep, err := tr.Register(id)
		if err != nil {
			return nil, err
		}
		n := network.New(arch.TileID(id), tr, ep, models, nil)
		n.Start()
		return n, nil
	}
	lcp, err := endpoint(transport.LCP(0))
	if err != nil {
		return err
	}
	defer lcp.Close()
	mcpNet, err := endpoint(transport.MCP)
	if err != nil {
		return err
	}
	srv := mcp.NewServer(&cfg, mcpNet)
	go srv.Serve()
	defer func() {
		mcpNet.Close()
		<-srv.Stopped()
	}()
	// One running thread, so that its wait alone completes a round.
	if err := srv.StartMain(0); err != nil {
		return err
	}
	if _, ok := lcp.Recv(network.ClassSystem); !ok { // the StartThread order
		return fmt.Errorf("lcp endpoint closed")
	}
	epoch := int64(0)
	ns, _ := unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			epoch++
			batch := mcp.EncodeSimBatch([]mcp.SimWait{{Tile: 0, Epoch: epoch}})
			if _, err := lcp.Send(network.ClassSystem, mcp.MsgSimBarrierBatch, arch.TileID(transport.MCP), 0, batch, 0); err != nil {
				panic(err)
			}
			if rel, ok := lcp.Recv(network.ClassSystem); !ok || rel.Type != mcp.MsgSimBarrierRelease {
				panic("mcp fixture: no barrier release")
			}
		}
	})
	m["mcp.barrier_release_us"] = ns / 1e3

	waits := make([]mcp.SimWait, 64)
	for i := range waits {
		waits[i] = mcp.SimWait{Tile: arch.TileID(i), Epoch: 9}
	}
	m["mcp.simbatch_codec_ns"], _ = unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			if _, err := mcp.DecodeSimBatch(mcp.EncodeSimBatch(waits)); err != nil {
				panic(err)
			}
		}
	})
	return nil
}

// matmulSpec is the core fixtures' run: thread-per-tile matmul on the
// lean large-target caches.
func matmulSpec(tiles, scale int, seed int64) (scenario.RunSpec, error) {
	s := &scenario.Scenario{Name: "core-fixture", Preset: "large-target", Workload: "matmul", Scale: scale, Seed: seed,
		Base: map[string]any{"Tiles": tiles}, Grids: []scenario.Grid{{}}}
	specs, err := s.Expand()
	if err != nil {
		return scenario.RunSpec{}, err
	}
	return specs[0], nil
}

func fixCore(spec *sessionSpec, m map[string]float64) error {
	big, scale := 1024, 32
	if spec.Smoke {
		big, scale = 128, 16
	}
	construct := func(tiles int) (build, closing float64, err error) {
		sp, err := matmulSpec(tiles, scale, spec.Seed)
		if err != nil {
			return 0, 0, err
		}
		wl, _ := workloads.Get(sp.Workload)
		var builds, closes []float64
		for i := 0; i < 3; i++ {
			t0 := time.Now()
			cl, err := core.NewCluster(sp.Config, wl.Build(workloads.Params{Threads: sp.Threads, Scale: sp.Scale}))
			if err != nil {
				return 0, 0, err
			}
			t1 := time.Now()
			cl.Close()
			builds = append(builds, ms(t1.Sub(t0)))
			closes = append(closes, ms(time.Since(t1)))
		}
		return median(builds), median(closes), nil
	}
	var err error
	if m["core.construct_ms_64"], _, err = construct(64); err != nil {
		return err
	}
	if m["core.construct_ms_1024"], m["core.close_ms_1024"], err = construct(big); err != nil {
		return err
	}
	nsPerInstr := func(tiles, reps int) (float64, error) {
		sp, err := matmulSpec(tiles, scale, spec.Seed)
		if err != nil {
			return 0, err
		}
		var per []float64
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			rec := scenario.Execute(&sp)
			if rec.Error != "" {
				return 0, fmt.Errorf("%d-tile run: %s", tiles, rec.Error)
			}
			per = append(per, float64(time.Since(t0))/float64(rec.Stats.Instructions))
		}
		return median(per), nil
	}
	small, err := nsPerInstr(64, 3)
	if err != nil {
		return err
	}
	large, err := nsPerInstr(big, 1)
	if err != nil {
		return err
	}
	m["core.ns_per_instr_64"], m["core.tile_cost_ratio"] = small, large/small
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func fixLaunch(spec *sessionSpec, m map[string]float64) error {
	cfg, err := scenario.Preset("small-cache")
	if err != nil {
		return err
	}
	cfg.Tiles, cfg.Processes, cfg.RandSeed = 2, 2, spec.Seed
	var outside, teardown []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		res, err := launch.Run(&launch.Spec{Workload: "radix", Threads: 2, Scale: 6, Config: cfg,
			PeekAddr: workloads.DefaultResultAddr, PeekLen: 16, WorkerOutput: os.Stderr})
		total := time.Since(t0)
		if err != nil {
			return err
		}
		serving := res.Procs[0].Wall
		outside = append(outside, ms(total-serving))
		teardown = append(teardown, ms(serving-res.Stats.Wall))
	}
	m["launch.fork_handshake_ms"], m["launch.teardown_ms"] = median(outside), median(teardown)
	return nil
}

func fixCheckpoint(spec *sessionSpec, m map[string]float64) error {
	tiles := 64
	if spec.Smoke {
		tiles = 8
	}
	s := &scenario.Scenario{Name: "ckpt-fixture", Preset: "small-cache", Workload: "radix", Scale: 10, Seed: spec.Seed,
		Base: map[string]any{"Tiles": tiles}, Grids: []scenario.Grid{{}}}
	specs, err := s.Expand()
	if err != nil {
		return err
	}
	sp := specs[0]
	wl, _ := workloads.Get(sp.Workload)
	prog := wl.Build(workloads.Params{Threads: sp.Threads, Scale: sp.Scale})
	dir := filepath.Join(spec.WorkDir, "ckpt-fixture")
	rewrite := filepath.Join(spec.WorkDir, "ckpt-rewrite")
	for _, d := range []string{dir, rewrite} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
		defer os.RemoveAll(d)
	}
	cl, err := core.NewCluster(sp.Config, prog)
	if err != nil {
		return err
	}
	defer cl.Close()
	cl.SetCheckpoint(&mcp.CheckpointPolicy{Dir: dir, ConfigDigest: scenario.Digest(&sp.Config)})
	if _, err := cl.Run(0); err != nil {
		return err
	}
	t0 := time.Now()
	man, err := cl.CaptureState(1)
	if err != nil {
		return err
	}
	m["checkpoint.capture_ms_64"] = ms(time.Since(t0))

	states, err := checkpoint.LoadProcStates(dir, man)
	if err != nil {
		return err
	}
	t0 = time.Now()
	for _, ps := range states {
		if _, _, _, err := checkpoint.WriteProcState(rewrite, ps); err != nil {
			return err
		}
	}
	m["checkpoint.write_ms_64"] = ms(time.Since(t0))

	t0 = time.Now()
	restored, err := core.RestoreCluster(sp.Config, prog, dir, man)
	if err != nil {
		return err
	}
	m["checkpoint.restore_ms_64"] = ms(time.Since(t0))
	restored.Close()

	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var size int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			size += info.Size()
		}
	}
	m["checkpoint.bytes_64"] = float64(size)
	return nil
}

// fixFabricPair runs the dist-tcp spec, a size down, three ways: in one
// process, over TCP, and over TCP with the checkpoint policy. Each is one
// run, so both ratios carry a single run's noise.
func fixFabricPair(spec *sessionSpec, m map[string]float64) error {
	sc := simScenario("dist-tcp", spec.Seed, spec.Smoke)
	if !spec.Smoke {
		sc.Scale = 12
	}
	specs, err := sc.Expand()
	if err != nil {
		return err
	}
	wall := func(processes int, cp *scenario.CheckpointPolicy) (float64, error) {
		sp := specs[0]
		sp.Processes, sp.Checkpoint = processes, cp
		t0 := time.Now()
		if rec := scenario.Execute(&sp); rec.Error != "" {
			return 0, fmt.Errorf("%d-process run: %s", processes, rec.Error)
		}
		return time.Since(t0).Seconds(), nil
	}
	local, err := wall(0, nil)
	if err != nil {
		return err
	}
	tcp, err := wall(2, nil)
	if err != nil {
		return err
	}
	ckpt, err := wall(2, specs[0].Checkpoint)
	if err != nil {
		return err
	}
	m["transport.tcp_vs_chan_ratio"] = local / tcp
	m["checkpoint.overhead_frac"] = ckpt/tcp - 1
	return nil
}

func fixRecordcache(spec *sessionSpec, m map[string]float64) error {
	sp, err := matmulSpec(4, 16, spec.Seed)
	if err != nil {
		return err
	}
	rec := scenario.Execute(&sp)
	if rec.Error != "" {
		return fmt.Errorf("record to cache: %s", rec.Error)
	}
	mem, err := recordcache.Open(recordcache.Options{})
	if err != nil {
		return err
	}
	mem.Put(rec)
	key := scenario.RecordKey(&rec)
	m["recordcache.get_hit_ns"], _ = unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			if _, ok := mem.Get(key); !ok {
				panic("recordcache fixture: stored record missed")
			}
		}
	})
	if err := mem.Close(); err != nil {
		return err
	}

	dir := filepath.Join(spec.WorkDir, "rc-fixture")
	defer os.RemoveAll(dir)
	disk, err := recordcache.Open(recordcache.Options{Dir: dir})
	if err != nil {
		return err
	}
	const stored = 1000
	t0 := time.Now()
	for i := 0; i < stored; i++ {
		rec.Seed = int64(i) // a distinct key per record
		disk.Put(rec)
	}
	m["recordcache.put_us"] = float64(time.Since(t0)) / stored / 1e3
	if err := disk.Close(); err != nil {
		return err
	}
	var scans []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		c, err := recordcache.Open(recordcache.Options{Dir: dir})
		if err != nil {
			return err
		}
		scans = append(scans, ms(time.Since(t0)))
		if n := c.Stats().DiskEntries; n != stored {
			return fmt.Errorf("scan found %d of %d records", n, stored)
		}
		if err := c.Close(); err != nil {
			return err
		}
	}
	m["recordcache.open_scan_ms_1k"] = median(scans)
	return nil
}

func fixScenario(spec *sessionSpec, m map[string]float64) error {
	sc, err := scenario.Parse(bytes.NewReader(sweepScenario(spec.Seed, false)))
	if err != nil {
		return err
	}
	ns, _ := unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			if _, err := sc.Expand(); err != nil {
				panic(err)
			}
		}
	})
	m["scenario.expand_us"] = ns / 1e3
	cfg := config.Default()
	ns, _ = unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			scenario.Digest(&cfg)
		}
	})
	m["scenario.digest_us"] = ns / 1e3

	s := &scenario.Scenario{Name: "execute-overhead", Preset: "small-cache", Workload: "radix", Scale: 9, Seed: spec.Seed,
		Base: map[string]any{"Tiles": 4}, Grids: []scenario.Grid{{}}}
	specs, err := s.Expand()
	if err != nil {
		return err
	}
	var over []float64
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		rec := scenario.Execute(&specs[0])
		if rec.Error != "" {
			return fmt.Errorf("execute: %s", rec.Error)
		}
		over = append(over, ms(time.Since(t0))-rec.WallSec*1e3)
	}
	m["scenario.execute_overhead_ms"] = median(over)
	return nil
}

func fixDispatch(spec *sessionSpec, m map[string]float64) error {
	s := &scenario.Scenario{Name: "dispatch-fixture", Size: "quick", Threads: 1, Seed: spec.Seed, Repeats: 6,
		Base:  map[string]any{"Tiles": 8},
		Grids: []scenario.Grid{{Axes: []scenario.Axis{{Field: "workload", Values: []any{"radix", "fft"}}}}}}
	specs, err := s.Expand()
	if err != nil {
		return err
	}
	t0 := time.Now()
	coord, err := dispatch.NewCoordinator(specs, dispatch.Options{})
	if err != nil {
		return err
	}
	worker := make(chan error, 1)
	go func() { worker <- dispatch.Work(coord.Addr(), dispatch.WorkerOptions{Parallel: 1}) }()
	recs, err := coord.Wait()
	wall := time.Since(t0)
	if werr := <-worker; err == nil {
		err = werr
	}
	if err != nil {
		return err
	}
	var inRuns float64
	for i := range recs {
		inRuns += recs[i].WallSec
	}
	m["dispatch.run_overhead_ms"] = (wall.Seconds() - inRuns) * 1e3 / float64(len(specs))
	m["dispatch.requeues"] = float64(coord.Executed() - len(specs))
	return nil
}

// fixService takes the service's own costs, the record cache's hit ratio
// and the golden check from one cold+warm pass of the full sweep.
func fixService(spec *sessionSpec, m map[string]float64) error {
	w := &sweepWorkload{smoke: spec.Smoke}
	if err := w.load(spec); err != nil {
		return err
	}
	d, err := w.openDaemon(nproc(), nil)
	if err != nil {
		return err
	}
	defer d.close(nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	t0 := time.Now()
	st, err := d.cl.Submit(ctx, w.body)
	if err != nil {
		return err
	}
	m["service.submit_ms"] = ms(time.Since(t0))
	var cold bytes.Buffer
	if n, err := d.cl.StreamRecords(ctx, st.ID, 0, &cold); err != nil || n != w.runs {
		return fmt.Errorf("cold stream: %d of %d records: %v", n, w.runs, err)
	}
	if _, _, _, warm, err := w.pass(ctx, d.cl, nil); err != nil || warm.RunsExecuted != 0 {
		return fmt.Errorf("warm pass: executed %d: %v", warm.RunsExecuted, err)
	}
	cs := d.cache.Stats()
	m["recordcache.hit_ratio"] = float64(cs.Hits) / float64(cs.Hits+cs.Misses)

	ns, _ := unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			if _, err := d.cl.Job(ctx, st.ID); err != nil {
				panic(err)
			}
		}
	})
	m["service.status_get_us"] = ns / 1e3
	ns, _ = unitCost(spec.unitBudget(), func(n int) {
		for i := 0; i < n; i++ {
			if got, err := d.cl.StreamRecords(ctx, st.ID, 0, io.Discard); err != nil || got != w.runs {
				panic(fmt.Sprintf("replayed stream: %d records: %v", got, err))
			}
		}
	})
	m["service.stream_records_per_s"] = float64(w.runs) / (ns / 1e9)

	sum, err := w.verify(cold.Bytes())
	if err != nil {
		return err
	}
	m["sim.records_digest"] = digest48(sum.digest)
	m["sim.golden_match"] = 0
	if sum.digest == goldenFor(spec.Smoke) {
		m["sim.golden_match"] = 1
	} else {
		fmt.Fprintf(os.Stderr, "benchmark: SIM STATS CHANGED: the sweep's simulated results digest is %s, the committed golden is %s (-write-golden after a modelling change)\n", sum.digest, goldenFor(spec.Smoke))
	}
	return nil
}
