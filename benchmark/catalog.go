package main

// The catalogue is the single list of what the benchmark measures.
// BENCHMARK.json at the repository root is generated from it
// (-print-manifest) and the smoke test fails when the two disagree.

import "time"

// runSeconds is how long one run of one workload measures by default; it
// is BENCHMARK.json's run_seconds.
const runSeconds = 18

type workloadInfo struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// ExpectRep is about how long one rep takes on a 2-core host; the
	// watchdog allows ten times it.
	ExpectRep time.Duration `json:"-"`
	// Sessions is how many fresh processes share an untraced run's
	// seconds. Each has its own memory layout and heap history, which
	// bias its reps together, so more sessions steady the medians; each
	// also pays the set-up again, so the workloads with cheap set-up get
	// more of them.
	Sessions int `json:"-"`
}

// metricInfo describes one metric. Bound is the share of the parent's
// median by which an end-to-end metric may get worse before a change is a
// regression; per-layer metrics carry none.
type metricInfo struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Doc    string
}

var workloadCatalog = []workloadInfo{
	{"hit-local", "matmul on 4 tiles with Table 1 caches: core model, cache and memsys hit path do the work; network, directory, transport and synchro idle",
		500 * time.Millisecond, 6},
	{"share-chan", "radix on 32 tiles, small caches, 2 simulated processes over the channel fabric: memsys server, directory, network model and mailboxes dominate",
		600 * time.Millisecond, 6},
	{"dist-tcp", "radix on 16 tiles across 2 OS processes over loopback TCP with LaxBarrier and checkpoints: only cover for launch, mcp barrier, ledger, TCP framing, checkpoint",
		2 * time.Second, 3},
	{"tile-1024", "matmul with one thread on each of 1024 tiles: construction, goroutine scheduling, per-tile state and host memory dominate; the north-star size",
		2500 * time.Millisecond, 3},
	{"sweep-svc", "96-run verified sweep through a loopback graphited, cold then warm record cache: scenario, dispatch, service, recordcache; the warm pass simulates nothing",
		time.Second, 6},
}

// endToEnd lists the metrics a user of the simulator sees. Every workload
// reports every one of them (the definitions in README.md say what each
// means on a single-run workload and on the sweep).
var endToEnd = []metricInfo{
	{"setup_s", "s", "lower", 0.25, "session start to first timed rep: process start, spec expansion, reference checksums, temp dirs, the untimed warm-up reps; median of the run's sessions"},
	{"sim_instr_per_s", "instr/s", "higher", 0.25, "simulated instructions / median wall of one complete run (spec in, record out) at Workers=nproc"},
	{"cpu_s_per_minstr", "s", "lower", 0.25, "host CPU (user+sys, self and reaped children) per million simulated instructions, median over reps"},
	{"peak_rss_mb", "MB", "lower", 0.25, "ru_maxrss of a session (the larger of the process and any worker it forked), median over sessions"},
	{"worker_speedup", "ratio", "higher", 0.25, "wall at host parallelism 1 / wall at host parallelism nproc, median over pairs of reps run one after the other"},
	{"cold_runs_per_s", "runs/s", "higher", 0.25, "runs / wall with no record cached: one run's reciprocal wall, or 96 / cold sweep wall"},
	{"warm_runs_per_s", "runs/s", "higher", 0.25, "runs / wall of the same spec(s) resubmitted through a warm record cache; no simulation may run; on a single-run workload the upper quartile of short replay batches"},
	{"first_record_ms", "ms", "lower", 0.25, "request to first record: spec in to record out of a one-run job, or POST /v1/jobs to first record line of the sweep"},
}

// perLayer lists the traced run's metrics, named layer.metric after the
// repository's packages. README.md says which end-to-end metric each
// should move, on which workload.
var perLayer = []metricInfo{
	{"coremodel.instr_ns", "ns", "lower", 0, "Core.Compute+Branch per retired instruction"},
	{"cache.lookup_hit_ns", "ns", "lower", 0, "Cache.Lookup hit, Table 1 L2 geometry"},
	{"cache.insert_evict_ns", "ns", "lower", 0, "Cache.Insert evicting the LRU line"},
	{"memsys.local_hit_ns", "ns", "lower", 0, "Node.Read of a line held in the local L1D"},
	{"memsys.hit_allocs", "allocs/op", "lower", 0, "heap allocations per local hit"},
	{"memsys.remote_miss_us", "us", "lower", 0, "write to a line the other tile of a 2-tile fixture holds Modified"},
	{"memsys.l2_misses_per_kinstr", "1/kinstr", "lower", 0, "L2 misses per thousand simulated instructions, traced reps"},
	{"memsys.invalidations_per_kinstr", "1/kinstr", "lower", 0, "invalidations sent per thousand simulated instructions, traced reps"},
	{"directory.store_op_ns_fullmap", "ns", "lower", 0, "Store AddSharer+ContainsSharer+RemoveSharer, full-map, 64 tiles"},
	{"directory.store_op_ns_dirnb", "ns", "lower", 0, "the same under Dir_4NB"},
	{"directory.inv_walk_ns_72t", "ns", "lower", 0, "ForEachSharer over a 72-tile full-map entry with every tile sharing"},
	{"dram.access_ns", "ns", "lower", 0, "Controller.ReadLine with the queue model on"},
	{"network.delay_ns_mesh_hop", "ns", "lower", 0, "Model.Delay, mesh_hop, 64 tiles"},
	{"network.delay_ns_mesh_contention", "ns", "lower", 0, "Model.Delay, mesh_contention, 64 tiles"},
	{"network.packet_codec_ns", "ns", "lower", 0, "Packet.Encode+Decode, 64-byte payload"},
	{"network.send_recv_ns", "ns", "lower", 0, "Net.Send then the peer's Net.Recv on a channel fabric"},
	{"network.packets_per_kinstr", "1/kinstr", "lower", 0, "network packets per thousand simulated instructions, traced reps"},
	{"transport.chan_send_ns", "ns", "lower", 0, "ChannelFabric Send+Recv of a 94-byte frame"},
	{"transport.chan_batch_ns_per_msg", "ns", "lower", 0, "ChannelFabric SendBatch of 32 frames, per frame"},
	{"transport.tcp_send_ns", "ns", "lower", 0, "loopback TCP Send, streaming, per frame"},
	{"transport.tcp_batch_ns_per_msg", "ns", "lower", 0, "loopback TCP SendBatch of 32 frames, per frame"},
	{"transport.tcp_rtt_us", "us", "lower", 0, "loopback TCP ping-pong round trip"},
	{"transport.allocs_per_send", "allocs/op", "lower", 0, "heap allocations per ChannelFabric Send+Recv"},
	{"transport.tcp_vs_chan_ratio", "ratio", "higher", 0, "dist-tcp spec wall in-process / over TCP, checkpoints off"},
	{"synchro.ledger_round_us_64", "us", "lower", 0, "one Ledger barrier round, 64 waiting threads"},
	{"synchro.ledger_round_us_1024", "us", "lower", 0, "one Ledger barrier round, 1024 waiting threads"},
	{"synchro.p2p_tick_ns", "ns", "lower", 0, "LaxP2P Model.Tick with an in-slack partner"},
	{"synchro.lax_cycles_err_pct", "%", "lower", 0, "Table 3: Lax mean simulated cycles vs LaxBarrier, radix 16 tiles; accuracy, not speed"},
	{"synchro.p2p_cycles_err_pct", "%", "lower", 0, "Table 3: LaxP2P mean simulated cycles vs LaxBarrier; accuracy, not speed"},
	{"mcp.barrier_release_us", "us", "lower", 0, "MsgSimBarrierBatch to MsgSimBarrierRelease through mcp.Server on a channel fabric"},
	{"mcp.simbatch_codec_ns", "ns", "lower", 0, "EncodeSimBatch+DecodeSimBatch of 64 waits"},
	{"core.construct_ms_64", "ms", "lower", 0, "core.NewCluster, 64 tiles"},
	{"core.construct_ms_1024", "ms", "lower", 0, "core.NewCluster, 1024 tiles"},
	{"core.close_ms_1024", "ms", "lower", 0, "Cluster.Close, 1024 tiles"},
	{"core.run_self_frac", "fraction", "higher", 0, "share of a traced rep's wall inside the simulator's run (Cluster.Run span, or the run wall a record reports)"},
	{"core.ns_per_instr_64", "ns", "lower", 0, "host ns per simulated instruction, matmul scale 64 on 64 tiles"},
	{"core.tile_cost_ratio", "ratio", "lower", 0, "host ns per instruction at 1024 tiles / at 64 tiles, same workload and scale"},
	{"launch.fork_handshake_ms", "ms", "lower", 0, "minimal 2-process launch.Run wall outside process 0's serving window: fork, exec, handshake, reap"},
	{"launch.teardown_ms", "ms", "lower", 0, "process 0's serving window minus the run: LCP start, flush, gather, acknowledged shutdown"},
	{"checkpoint.capture_ms_64", "ms", "lower", 0, "Cluster.CaptureState of a finished 64-tile run: capture, serialise, write files and manifest"},
	{"checkpoint.write_ms_64", "ms", "lower", 0, "checkpoint.WriteProcState of that state again: the serialise-and-write part alone"},
	{"checkpoint.restore_ms_64", "ms", "lower", 0, "core.RestoreCluster from those files"},
	{"checkpoint.bytes_64", "bytes", "lower", 0, "size of that checkpoint on disk"},
	{"checkpoint.overhead_frac", "fraction", "lower", 0, "dist-tcp spec wall with the checkpoint policy / without, minus 1"},
	{"recordcache.get_hit_ns", "ns", "lower", 0, "Cache.Get hit in the memory tier"},
	{"recordcache.put_us", "us", "lower", 0, "Cache.Put to memory and disk tiers"},
	{"recordcache.open_scan_ms_1k", "ms", "lower", 0, "recordcache.Open scanning a 1000-record directory"},
	{"recordcache.hit_ratio", "ratio", "higher", 0, "hits / lookups over a cold+warm pass of a 12-run sweep through the service"},
	{"scenario.expand_us", "us", "lower", 0, "Scenario.Expand of the 96-run sweep"},
	{"scenario.digest_us", "us", "lower", 0, "scenario.Digest of one configuration"},
	{"scenario.execute_overhead_ms", "ms", "lower", 0, "scenario.ExecuteStats wall minus the run wall it reports, 4-tile radix"},
	{"dispatch.run_overhead_ms", "ms", "lower", 0, "(coordinator + 1 worker wall - sum of record wall_sec) / runs, 12-run sweep"},
	{"dispatch.requeues", "count", "lower", 0, "runs executed beyond the sweep's size in that pass"},
	{"service.submit_ms", "ms", "lower", 0, "Client.Submit of the 96-run scenario (parse, expand, enqueue)"},
	{"service.status_get_us", "us", "lower", 0, "Client.Job on a finished job"},
	{"service.stream_records_per_s", "1/s", "higher", 0, "Client.StreamRecords of a finished job from record 0"},
	{"runtime.allocs_per_kinstr", "1/kinstr", "lower", 0, "heap allocations per thousand simulated instructions, traced reps"},
	{"runtime.gc_cpu_frac", "fraction", "lower", 0, "GC CPU share of the session process after the traced reps"},
	{"runtime.gc_pause_ms_max", "ms", "lower", 0, "longest GC pause during the traced reps"},
	{"runtime.goroutines_peak", "count", "lower", 0, "most goroutines seen during a traced rep"},
	{"sim.golden_match", "0/1", "higher", 0, "1 when sim.records_digest equals benchmark/golden/records.sha256"},
	{"sim.records_digest", "hash48", "higher", 0, "first 48 bits of the SHA-256 of the sweep's simulated results; an identity, not a quantity"},
	{"run_wall_s_p75", "s", "lower", 0, "75th-percentile wall of one complete run at Workers=nproc over the traced session's reps; an end-to-end number kept here because a tail does not repeat within a bound on a shared host"},
	{"trace_overhead_frac", "fraction", "lower", 0, "median traced rep wall / median untraced rep wall, minus 1, interleaved in one session"},
	{"share.coremodel", "fraction", "lower", 0, "estimate: instructions x coremodel.instr_ns / rep wall"},
	{"share.memsys_hit", "fraction", "lower", 0, "estimate: (loads+stores-L2 misses) x memsys.local_hit_ns / rep wall"},
	{"share.memsys_miss", "fraction", "lower", 0, "estimate: L2 misses x memsys.remote_miss_us / rep wall"},
	{"share.network", "fraction", "lower", 0, "estimate: packets x network.send_recv_ns / rep wall"},
}

// manifest is BENCHMARK.json.
func manifest() map[string]any {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var es []e2e
	for _, m := range endToEnd {
		es = append(es, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	var ls []layer
	for _, m := range perLayer {
		ls = append(ls, layer{m.Name, m.Unit, m.Better})
	}
	return map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   workloadCatalog,
		"end_to_end":  es,
		"per_layer":   ls,
	}
}

func findWorkload(name string) (workloadInfo, bool) {
	for _, w := range workloadCatalog {
		if w.Name == name {
			return w, true
		}
	}
	return workloadInfo{}, false
}
