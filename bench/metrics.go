package main

// metricDef declares one metric. BENCHMARK.json carries name, unit,
// direction and (end-to-end only) bound; Source and Moves are the
// README's columns: how the number is obtained (timed, count, scraped,
// computed) and which end-to-end metric it should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Source string
	Moves  string
}

// endToEnd are the metrics a user of the system sees; every workload
// reports every one of them with --trace 0. Each is the fast decile
// (10th percentile of times, 90th of rates) of one sample per round,
// taken with a single request in flight. Bounds are the share of the
// parent's median by which a later change may worsen the metric. All sit
// at the contract's maximum: the 2-vCPU host this was written on shares
// its cores with neighbours that slow it by a quarter for minutes at a
// time (README, "The statistic").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "timed", "exec hemeserved → 200 on /healthz, plus a job's submit → step ≥ 1 (voxelise, graph, partition, solver build)"},
	{"mlups", "MLUPS", "higher", 0.25, "timed", "sites × steps / core.Run wall of an in-process rep, 1 rank × 1 thread"},
	{"steps_per_s", "1/s", "higher", 0.25, "timed", "an unwatched job on the workload's domain through the daemon: steps from first seen to done / the time they took (checkpoint writer beside it when the store is on)"},
	{"job_latency_ms", "ms", "lower", 0.25, "timed", "a block of the four burst presets, one job at a time, POST sent → terminal state seen; per job"},
	{"ttff_s", "s", "lower", 0.25, "timed", "submit → open /stream → first frame event"},
	{"frame_latency_ms", "ms", "lower", 0.25, "timed", "GET /frame of a finished job at a never-seen azimuth (cache miss): render + PNG + HTTP"},
	{"data_latency_ms", "ms", "lower", 0.25, "timed", "GET /data on each octant of a finished job, detail 0 / context 3: octree build once + eight queries; per query"},
}

// perLayer are single-layer numbers, ungated; every workload reports
// every one of them with --trace 1. A layer a workload's inputs bypass
// reports 0 (no checkpoints without a store, no recovery without a kill).
// service.live_* are what the live legs measure under concurrent load.
var perLayer = []metricDef{
	{"geometry.voxelise_ms", "ms", "lower", 0, "timed", "setup_s; job_latency_ms; ttff_s"},
	{"geometry.sites", "count", "higher", 0, "count", "-"},
	{"geometry.fluid_fraction", "ratio", "higher", 0, "count", "-"},
	{"partition.graph_ms", "ms", "lower", 0, "timed", "setup_s; job_latency_ms"},
	{"partition.kway_ms", "ms", "lower", 0, "timed", "setup_s (2-rank jobs)"},
	{"partition.edge_cut", "count", "lower", 0, "count", "lb.mlups_r2"},
	{"partition.imbalance", "ratio", "lower", 0, "count", "lb.mlups_r2"},
	{"lb.new_ms", "ms", "lower", 0, "timed", "setup_s"},
	{"lb.step_ns_per_site", "ns", "lower", 0, "timed", "Solver.CollideStreamLocal+Swap: the serial twin of the kernel (hemesim's in situ pipeline)"},
	{"lb.dist1_step_ns_per_site", "ns", "lower", 0, "timed", "mlups; steps_per_s: Dist.Step at 1 rank, the path core.Run takes"},
	{"lb.dist_step_ns_per_site", "ns", "lower", 0, "timed", "lb.mlups_r2"},
	{"lb.mlups_r2", "MLUPS", "higher", 0, "timed", "mlups at 2 ranks × 1 thread (strong scaling at fixed size); demoted from end-to-end: bimodal on 2 vCPUs"},
	{"lb.r2_efficiency", "ratio", "higher", 0, "timed", "lb.mlups_r2 / (2 × mlups)"},
	{"lb.t2_speedup", "ratio", "higher", 0, "timed", "nothing gated: keep-or-delete evidence for tiling"},
	{"lb.t2_speedup_min", "ratio", "higher", 0, "timed", "-"},
	{"lb.t2_speedup_max", "ratio", "higher", 0, "timed", "-"},
	{"lb.working_set_mb", "MB", "lower", 0, "computed", "-"},
	{"lb.bytes_per_update_computed", "B", "lower", 0, "computed", "mlups@kernel-large"},
	{"lb.allocs_per_step", "count", "lower", 0, "count", "must stay 0"},
	{"lb.gather_fields_ms", "ms", "lower", 0, "timed", "ttff_s; service.live_frame_latency_p50_ms"},
	{"lb.gather_state_ms", "ms", "lower", 0, "timed", "steps_per_s@ckpt-long"},
	{"lb.ckpt_encode_ms", "ms", "lower", 0, "timed", "steps_per_s@ckpt-long"},
	{"lb.ckpt_bytes", "B", "lower", 0, "count", "steps_per_s@ckpt-long"},
	{"lb.ckpt_decode_ms", "ms", "lower", 0, "timed", "store.recover_ms"},
	{"lb.dirty_tiles_ms", "ms", "lower", 0, "timed", "steps_per_s@ckpt-long"},
	{"lb.dirty_ratio", "ratio", "lower", 0, "count", "store.checkpoint_bytes"},
	{"lb.delta_encode_ms", "ms", "lower", 0, "timed", "steps_per_s@ckpt-long"},
	{"lb.delta_bytes", "B", "lower", 0, "count", "store.checkpoint_bytes"},
	{"par.halo_bytes_per_step", "B", "lower", 0, "count", "lb.mlups_r2"},
	{"par.halo_msgs_per_step", "count", "lower", 0, "count", "lb.mlups_r2"},
	{"par.bcast_us", "us", "lower", 0, "timed", "steps_per_s; service.live_steer_rtt_p50_ms (2-rank jobs)"},
	{"core.new_ms", "ms", "lower", 0, "timed", "setup_s"},
	{"core.mlups_p50", "MLUPS", "higher", 0, "timed", "median of the serial reps whose fast decile is mlups: what the host's neighbours leave of it"},
	{"core.burst_job_ms", "ms", "lower", 0, "timed", "job_latency_ms: core.New + Run(64) on the four burst presets, mean"},
	{"core.loop_overhead_ns_per_step", "ns", "lower", 0, "timed", "mlups@kernel-small"},
	{"core.snapshot_cost_ms", "ms", "lower", 0, "timed", "steps_per_s"},
	{"core.checkpoint_cost_ms", "ms", "lower", 0, "timed", "steps_per_s@ckpt-long"},
	{"insitu.render_ms", "ms", "lower", 0, "timed", "frame_latency_ms; ttff_s; service.live_frames_per_s"},
	{"render.png_ms", "ms", "lower", 0, "timed", "frame_latency_ms; ttff_s; service.live_frames_per_s"},
	{"render.png_bytes", "B", "lower", 0, "count", "service.live_frames_per_s"},
	{"octree.build_ms", "ms", "lower", 0, "timed", "data_latency_ms"},
	{"octree.query_ms", "ms", "lower", 0, "timed", "data_latency_ms"},
	{"octree.reply_bytes", "B", "lower", 0, "count", "data_latency_ms"},
	{"octree.reduction_pct", "%", "higher", 0, "count", "-"},
	{"service.boot_ms", "ms", "lower", 0, "timed", "setup_s"},
	{"service.first_step_ms", "ms", "lower", 0, "timed", "setup_s"},
	{"service.submit_ms", "ms", "lower", 0, "timed", "job_latency_ms"},
	{"service.poll_get_ms", "ms", "lower", 0, "timed", "job_latency_ms"},
	{"service.queue_wait_ms", "ms", "lower", 0, "scraped", "job_latency_ms"},
	{"service.run_ms", "ms", "lower", 0, "scraped", "job_latency_ms"},
	{"service.job_latency_p50_ms", "ms", "lower", 0, "timed", "median of the rounds' samples whose fast decile is job_latency_ms"},
	{"service.frame_latency_p50_ms", "ms", "lower", 0, "timed", "median of the rounds' samples whose fast decile is frame_latency_ms"},
	{"service.live_jobs_per_s", "1/s", "higher", 0, "timed", "burst jobs completed per second by 2 closed-loop clients; median over 8 slices of the leg of (n-1) / (last - first completion)"},
	{"service.live_job_latency_p50_ms", "ms", "lower", 0, "timed", "2 clients: POST sent → terminal state seen, median"},
	{"service.live_job_latency_p95_ms", "ms", "lower", 0, "timed", "its 95th percentile"},
	{"service.live_job_latency_p99_ms", "ms", "lower", 0, "timed", "its 99th percentile"},
	{"service.live_steps_per_s", "1/s", "higher", 0, "timed", "the watched job's step delta / time, one sample per viewer cycle; median"},
	{"service.live_frames_per_s", "1/s", "higher", 0, "timed", "1 / median interval between frame events at the SSE subscriber"},
	{"service.live_frame_latency_p50_ms", "ms", "lower", 0, "timed", "GET /frame of the watched job at a never-seen azimuth, median"},
	{"service.live_frame_latency_p90_ms", "ms", "lower", 0, "timed", "its 90th percentile"},
	{"service.live_data_latency_p50_ms", "ms", "lower", 0, "timed", "GET /data on an octant of the watched job, median: half the requests find a fresh snapshot, half wait for the next"},
	{"service.live_steer_rtt_p50_ms", "ms", "lower", 0, "timed", "POST /steer set-iolet on the watched job, round trip, median"},
	{"service.cache_hit_ms", "ms", "lower", 0, "timed", "GET /frame of the streamed view of the watched job (cache hit or single flight)"},
	{"service.cache_hit_ratio", "ratio", "higher", 0, "scraped", "service.live_frames_per_s"},
	{"service.renders_per_frame", "ratio", "lower", 0, "scraped", "wasted-work ratio: renders / frames delivered"},
	{"service.snapshots_published", "count", "lower", 0, "scraped", "steps_per_s"},
	{"service.snapshots_skipped", "count", "higher", 0, "scraped", "steps_per_s"},
	{"service.sse_frame_bytes", "B", "lower", 0, "count", "service.live_frames_per_s"},
	{"store.fsync_ms", "ms", "lower", 0, "timed", "calibration: 4 KiB write + fsync on the data dir's filesystem"},
	{"store.append_submit_ms", "ms", "lower", 0, "timed", "job_latency_ms; setup_s; ttff_s @store"},
	{"store.append_state_nowait_us", "us", "lower", 0, "timed", "job_latency_ms @store"},
	{"store.put_checkpoint_ms", "ms", "lower", 0, "timed", "steps_per_s@ckpt-long"},
	{"store.put_delta_ms", "ms", "lower", 0, "timed", "steps_per_s@ckpt-long"},
	{"store.load_chain_ms", "ms", "lower", 0, "timed", "store.recover_ms"},
	{"store.recover_ms", "ms", "lower", 0, "timed", "restart exec → both jobs running with resumed_from_step > 0"},
	{"store.group_commit_mean_batch", "ratio", "higher", 0, "scraped", "job_latency_ms @store"},
	{"store.checkpoints_written", "count", "higher", 0, "scraped", "-"},
	{"store.deltas_written", "count", "higher", 0, "scraped", "-"},
	{"store.checkpoint_bytes", "B", "lower", 0, "scraped", "steps_per_s@ckpt-long"},
	{"store.checkpoints_coalesced", "count", "lower", 0, "scraped", "-"},
	{"store.checkpoints_skipped_budget", "count", "lower", 0, "scraped", "-"},
	{"store.bytes_per_job", "B", "lower", 0, "count", "-"},
	{"obs.observe_ns", "ns", "lower", 0, "timed", "mlups@kernel-small (instrumentation budget)"},
	{"obs.record_ns", "ns", "lower", 0, "timed", "mlups@kernel-small (instrumentation budget)"},
	{"proc.peak_rss_mb", "MB", "lower", 0, "scraped", "daemon VmHWM, largest over the run's daemons"},
	{"proc.cpu_s", "s", "lower", 0, "scraped", "daemon utime+stime"},
	{"proc.cpu_util", "ratio", "lower", 0, "scraped", "daemon CPU seconds / daemon lifetime (2.0 = both cores)"},
	{"trace.overhead_pct", "%", "lower", 0, "timed", "stepping loop with a span per step vs without"},
	{"budget.step_closure_pct", "%", "higher", 0, "computed", "replayed 1-rank Dist.Step + loop overhead ÷ step time from core.mlups_p50"},
	{"budget.job_closure_pct", "%", "higher", 0, "computed", "submit + queue wait + in-process burst job + half the 1 ms poll pause ÷ service.job_latency_p50_ms"},
	{"budget.frame_closure_pct", "%", "higher", 0, "computed", "render + PNG + HTTP round trip ÷ service.frame_latency_p50_ms"},
}
