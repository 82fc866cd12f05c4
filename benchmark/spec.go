package main

import "encoding/json"

// This file is the single declaration of the benchmark's vocabulary:
// workloads, end-to-end metrics (with their regression bounds) and
// per-layer metrics. BENCHMARK.json at the repo root is `-spec` output;
// a unit test keeps the two identical and checks that a run emits
// exactly these names.

// runSeconds is the measuring time of one driver run (BENCHMARK.json's
// run_seconds). The run also spends setupRepeats set-ups, warm-up and
// verification outside the measured window.
const runSeconds = 10

type workloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type layerDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Workload names. The front door and sizing of each are in batch.go
// (batch_*, dist_tcp) and serve.go (serve_*).
const (
	wBatchDense  = "batch_dense"
	wBatchIO     = "batch_io"
	wDistTCP     = "dist_tcp"
	wServeJobs   = "serve_jobs"
	wServeStream = "serve_stream"
)

var workloadDecls = []workloadDecl{
	{wBatchDense, "RunPoints on dense Twitter-like points (Eps 0.1, MinPts 40, 8 leaves): the gdbscan kernel and kd-tree dominate, the partitioner does little"},
	{wBatchIO, "RunPoints on sparse SDSS-like points (Eps 0.00015, MinPts 5, 16 leaves): partition plan, lustre and ptio writes, sweep and merge dominate; no dense box fires"},
	{wDistTCP, "distrib.Coordinator + 2 workers over loopback TCP on batch_io's input: gob wire codec and MakePlan dominate; no lustre, mrnet or sweep"},
	{wServeJobs, "server.Handler over loopback HTTP, closed loop of 2 clients: two interactive tenants' small jobs beside one bulk tenant's large jobs; JSON edge, admission, journal, two pipelines on two cores"},
	{wServeStream, "same server, one durable sliding-window stream fed Firehose ticks by 1 closed-loop client: stream.Engine.Tick, per-tick checkpoint and JSON edge; batch paths bypassed"},
}

// End-to-end metric names.
const (
	mSetup    = "setup_s"
	mWallP50  = "op_wall_p50_s"
	mWallTail = "op_wall_tail_s"
	mPoints   = "points_per_s"
	mCPU      = "cpu_s_per_mpoint"
	mAlloc    = "alloc_mb_per_mpoint"
	mQuality  = "quality_dbdc"
	mOK       = "ok_share"
)

// endToEnd are what a user of the system sees, measured with the span
// recorder off. Bounds are shares of the parent's median. The timing
// bounds are wide because the 2-core reference box shares its cores with
// noisy neighbours (see README, "Noise"). Allocation depends only on the
// input, which moves it by a few percent from seed to seed on dense
// data; quality and ok_share repeat almost exactly.
var endToEnd = []metricDecl{
	{mSetup, "s", "lower", 0.25},
	{mWallP50, "s", "lower", 0.25},
	{mWallTail, "s", "lower", 0.25},
	{mPoints, "points/s", "higher", 0.25},
	{mCPU, "s/Mpoint", "lower", 0.25},
	{mAlloc, "MB/Mpoint", "lower", 0.10},
	{mQuality, "score", "higher", 0.001},
	{mOK, "share", "higher", 0.001},
}

// perLayer metrics come from the traced run only: a staged replay of the
// pipeline through each layer's public functions under the benchmark's
// own spans, plus a few direct probes of substrate calls. A metric whose
// layer the workload bypasses reads 0 on that workload.
var perLayer = []layerDecl{
	// mrscan: the driver's own phase spans, and how well the replay adds up.
	{"mrscan.phase_partition_s", "s", "lower"},
	{"mrscan.phase_cluster_s", "s", "lower"},
	{"mrscan.phase_merge_s", "s", "lower"},
	{"mrscan.phase_sweep_s", "s", "lower"},
	{"mrscan.unattributed_s", "s", "lower"},
	{"mrscan.labels_by_id_s", "s", "lower"},
	{"mrscan.sim_total_s", "s", "lower"},
	{"mrscan.replay_coverage", "ratio", "higher"},

	{"ptio.write_dataset_s", "s", "lower"},
	{"ptio.encode_mb_per_s", "MB/s", "higher"},
	{"ptio.decode_mb_per_s", "MB/s", "higher"},

	{"partition.distribute_s", "s", "lower"},
	{"partition.make_plan_s", "s", "lower"},
	{"partition.split_s", "s", "lower"},
	{"partition.read_partition_s", "s", "lower"},
	{"partition.shadow_ratio", "ratio", "lower"},
	{"partition.imbalance", "ratio", "lower"},
	{"partition.write_sim_s", "s", "lower"},
	{"partition.read_sim_s", "s", "lower"},

	{"lustre.write_ops", "count", "lower"},
	{"lustre.bytes_written", "count", "lower"},
	{"lustre.read_ops", "count", "lower"},
	{"lustre.bytes_read", "count", "lower"},
	{"lustre.write_seeks", "count", "lower"},
	{"lustre.write_mb_per_s", "MB/s", "higher"},
	{"lustre.read_mb_per_s", "MB/s", "higher"},
	{"lustre.small_write_us", "us", "lower"},

	{"kdtree.build_s", "s", "lower"},
	{"kdtree.count_range_ns", "ns", "lower"},

	{"gdbscan.cluster_s", "s", "lower"},
	{"gdbscan.max_leaf_s", "s", "lower"},
	{"gdbscan.dense_box_point_share", "share", "higher"},
	{"gdbscan.core_point_share", "share", "higher"},
	{"gdbscan.seed_rounds", "count", "lower"},
	{"gdbscan.collisions", "count", "lower"},

	{"gpusim.kernel_launches", "count", "lower"},
	{"gpusim.h2d_mb", "MB", "lower"},
	{"gpusim.d2h_mb", "MB", "lower"},
	{"gpusim.kernel_wall_s", "s", "lower"},
	{"gpusim.pool_hit_ratio", "ratio", "higher"},
	{"gpusim.launch_overhead_us", "us", "lower"},

	{"merge.build_summaries_s", "s", "lower"},
	{"merge.combine_s", "s", "lower"},
	{"merge.assign_ids_s", "s", "lower"},
	{"merge.summary_wire_mb", "MB", "lower"},

	{"mrnet.reduce_overhead_us", "us", "lower"},
	{"mrnet.multicast_overhead_us", "us", "lower"},
	{"mrnet.packets", "count", "lower"},
	{"mrnet.bytes", "count", "lower"},

	{"sweep.run_s", "s", "lower"},
	{"sweep.read_output_s", "s", "lower"},

	{"distrib.dispatch_s", "s", "lower"},
	{"distrib.roundtrip_floor_ms", "ms", "lower"},
	{"distrib.heartbeat_ms", "ms", "lower"},
	{"distrib.gob_mb_per_op", "MB", "lower"},
	{"distrib.gob_encode_mb_per_s", "MB/s", "higher"},
	{"distrib.gob_decode_mb_per_s", "MB/s", "higher"},
	{"distrib.reassigned", "count", "lower"},
	{"distrib.workers_lost", "count", "lower"},

	{"server.submit_http_ms_p50", "ms", "lower"},
	{"server.submit_direct_ms_p50", "ms", "lower"},
	{"server.queue_wait_ms_p50", "ms", "lower"},
	{"server.run_ms_p50", "ms", "lower"},
	{"server.result_fetch_ms_p50", "ms", "lower"},
	{"server.polls_per_job", "count", "lower"},
	{"server.rejected_share", "share", "lower"},
	{"server.degraded_share", "share", "lower"},
	{"server.state_dir_kb_per_job", "KB", "lower"},

	{"stream.tick_engine_ms_p50", "ms", "lower"},
	{"stream.dirty_cells_per_tick", "count", "lower"},
	{"stream.pairs_rebuilt_per_tick", "count", "lower"},
	{"stream.allocs_per_tick", "count", "lower"},
	{"stream.alloc_kb_per_tick", "KB", "lower"},
	{"stream.snapshot_ms", "ms", "lower"},
	{"stream.restore_ms", "ms", "lower"},
	{"stream.http_edge_ms_p50", "ms", "lower"},

	{"checkpoint.stream_save_ms_p50", "ms", "lower"},
	{"checkpoint.save_mb_per_s", "MB/s", "higher"},
	{"checkpoint.load_mb_per_s", "MB/s", "higher"},

	{"telemetry.span_ns", "ns", "lower"},
	{"telemetry.counter_inc_ns", "ns", "lower"},
	{"telemetry.spans_per_op", "count", "lower"},
	{"telemetry.spans_dropped", "count", "lower"},
	{"telemetry.est_share", "share", "lower"},

	// The benchmark's own costs and its noise sentinel.
	{"dataset.generate_s", "s", "lower"},
	{"dbscan.reference_s", "s", "lower"},
	{"harness.trace_overhead_share", "share", "lower"},
	{"harness.calib_spin_ms", "ms", "lower"},
}

// benchmarkJSON renders BENCHMARK.json from the declarations above.
func benchmarkJSON() []byte {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadDecl `json:"workloads"`
		EndToEnd   []metricDecl   `json:"end_to_end"`
		PerLayer   []layerDecl    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		Workloads:  workloadDecls,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // static data: cannot fail
	}
	return append(out, '\n')
}

func betterOf(metric string) string {
	for _, m := range endToEnd {
		if m.Name == metric {
			return m.Better
		}
	}
	return "lower"
}
