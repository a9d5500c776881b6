package service

import (
	"io"
	"sync/atomic"

	"repro/internal/obs"
)

// Metrics are the service's counters, gauges and latency histograms.
// /metrics serves them in Prometheus text exposition — the one metrics
// format; the histogram base names below grow a _seconds suffix there.
type Metrics struct {
	JobsSubmitted atomic.Int64
	JobsRejected  atomic.Int64
	JobsDone      atomic.Int64
	JobsFailed    atomic.Int64
	JobsCancelled atomic.Int64
	RendersTotal  atomic.Int64
	// frameHits counts frame requests the frame lru answered for one
	// (snapshot, view) without rendering — kept, or in flight for
	// another caller; frameMiss the ones that rendered; frameEvict the
	// frames it evicted. Unexported: only /metrics reads them.
	frameHits  atomic.Int64
	frameMiss  atomic.Int64
	frameEvict atomic.Int64
	// DomainCacheHits counts dispatches that found their voxelised
	// geometry in the manager's domain lru (or waited for a sibling's
	// build of it); DomainCacheMiss counts the ones that voxelised.
	DomainCacheHits atomic.Int64
	DomainCacheMiss atomic.Int64
	// SolverPlanHits counts dispatches that found the solver's stream
	// table kept on the Domain (core.Simulation.PlanHit); SolverPlanMiss
	// the ones that built it.
	SolverPlanHits atomic.Int64
	SolverPlanMiss atomic.Int64
	SteerOps       atomic.Int64
	DataRequests   atomic.Int64
	HTTPRequests   atomic.Int64
	// SnapshotsTotal counts field snapshots published by solvers into
	// the render-offload path.
	SnapshotsTotal atomic.Int64
	// RenderQueueDepth is a gauge: renders waiting for or holding a set
	// of frame buffers.
	RenderQueueDepth atomic.Int64
	// StreamClients is a gauge of live SSE subscribers;
	// FramesStreamed counts frame events pushed to them.
	StreamClients  atomic.Int64
	FramesStreamed atomic.Int64
	// Durability counters. CheckpointsWritten/CheckpointBytes track
	// solver checkpoints journaled to the data dir; CheckpointsInvalid
	// counts checkpoints that failed CRC/format verification at
	// recovery (each one degraded a resume to a fresh start).
	// JobsRecovered counts jobs reloaded from the store at boot (both
	// finished history and re-queued work); JobRestarts counts only
	// the re-queued interrupted ones. StoreErrors counts failed store
	// writes/reads (journaling is best-effort past submission).
	CheckpointsWritten atomic.Int64
	CheckpointBytes    atomic.Int64
	CheckpointsInvalid atomic.Int64
	JobsRecovered      atomic.Int64
	JobRestarts        atomic.Int64
	StoreErrors        atomic.Int64
	// Async-persistence counters. CheckpointStallNs accumulates the
	// time the solver loop itself spends on checkpoints (the collective
	// gather + buffer swap — encoding and fsync run on the per-job
	// writer goroutine and do not stall stepping). CheckpointsCoalesced
	// counts gathered states that were overwritten by a newer one
	// before the writer got to them (back-pressure: at most one write
	// in flight, latest state wins). SnapshotsSkipped counts cadence
	// boundaries where publication was skipped because no subscriber
	// had registered interest — a zero-viewer job is all skips, zero
	// gathers.
	CheckpointStallNs    atomic.Int64
	CheckpointsCoalesced atomic.Int64
	SnapshotsSkipped     atomic.Int64
	// JobsDiverged counts jobs whose published snapshot fields went
	// non-finite — the simulation blew up. Latched once per job.
	JobsDiverged atomic.Int64
	// Delta-chain counters. CheckpointDeltasWritten counts lbcd delta
	// records persisted (CheckpointsWritten counts fulls and deltas
	// together; CheckpointBytes likewise covers both, while
	// CheckpointDeltaBytes is the delta share — the gap between
	// CheckpointBytes and CheckpointDeltaBytes is what full-only
	// persistence would also have paid). CheckpointDirtyRatioPermille is
	// a gauge of the last dirty-tile scan, in thousandths (1000 on full
	// writes).
	CheckpointDeltasWritten      atomic.Int64
	CheckpointDeltaBytes         atomic.Int64
	CheckpointDirtyRatioPermille atomic.Int64
	// Group-commit counters. JournalGroupCommits counts journal fsyncs,
	// JournalGroupCommitRecords the records they made durable — the
	// ratio is records per fsync (the fsync amortization factor).
	JournalGroupCommits       atomic.Int64
	JournalGroupCommitRecords atomic.Int64
	// Fault-containment counters. JobsPanicked counts solver panics
	// quarantined to their own job (the daemon kept serving);
	// WatchdogStalls counts stall windows the stuck-job watchdog
	// flagged.
	JobsPanicked   atomic.Int64
	WatchdogStalls atomic.Int64
	// Disk-pressure degradation. StoreDegraded is a gauge (1 while
	// durability is suspended); StoreDegradedTotal counts episodes;
	// StoreWritesSuppressed counts journal/state writes skipped while
	// degraded; CheckpointsSkippedDegraded the checkpoint writes the
	// writer dropped for the same reason; JobsGCed counts terminal jobs
	// removed by the retention sweeper.
	StoreDegraded              atomic.Int64
	StoreDegradedTotal         atomic.Int64
	StoreWritesSuppressed      atomic.Int64
	CheckpointsSkippedDegraded atomic.Int64
	JobsGCed                   atomic.Int64
	// Admission control. AuthFailures counts requests refused for a
	// missing/unknown API key; SubmitsQuotaRejected submits refused by
	// a tenant's concurrent-job quota; SubmitsRateLimited submits
	// refused by a tenant's token bucket; SubmitsShed submits refused
	// by the global queue/memory overload watermark.
	AuthFailures         atomic.Int64
	SubmitsQuotaRejected atomic.Int64
	SubmitsRateLimited   atomic.Int64
	SubmitsShed          atomic.Int64

	// Latency histograms (log-bucketed, nanosecond samples). The solver
	// phase histograms fold rank-0 timings from every running job:
	// StepDuration samples d.Step() every 16th step,
	// CollectiveWait times the per-step command-word broadcast,
	// FieldGather the snapshot field gather, CheckpointGather the
	// in-loop checkpoint state gather (the same time CheckpointStallNs
	// accumulates), SolverYield every wait of a solver for the frames
	// in flight before a step. CheckpointWrite times the off-loop encode+fsync on
	// the writer goroutine, RenderLatency a cache-miss frame from the
	// wait for frame buffers to the encoded PNG, and HTTPLatency is a
	// per-route family fed by the server middleware. Preprocess times a
	// dispatch from the domain-cache lookup to core.New returning
	// (voxelise or cache hit; partition, stream tables and halo plans
	// unless the domain keeps them) — what stands between a worker slot
	// and the first step. Voxelise and Plan are its two cold layers:
	// Voxelise times the build on a domain-cache miss, Plan the
	// whole-domain stream table on a plan miss.
	StepDuration     obs.Histogram
	CollectiveWait   obs.Histogram
	FieldGather      obs.Histogram
	CheckpointGather obs.Histogram
	SolverYield      obs.Histogram
	CheckpointWrite  obs.Histogram
	RenderLatency    obs.Histogram
	Preprocess       obs.Histogram
	Voxelise         obs.Histogram
	Plan             obs.Histogram
	HTTPLatency      obs.HistogramSet
}

// counterRow pairs a metric name with its current value plus the
// HELP text and Prometheus type used by the exposition writer.
type counterRow struct {
	name string
	v    int64
	typ  string // "counter" or "gauge"
	help string
}

func (m *Metrics) rows() []counterRow {
	return []counterRow{
		{"hemeserved_jobs_submitted_total", m.JobsSubmitted.Load(), "counter", "Jobs accepted by the manager."},
		{"hemeserved_jobs_rejected_total", m.JobsRejected.Load(), "counter", "Job submissions rejected (validation or full queue)."},
		{"hemeserved_jobs_done_total", m.JobsDone.Load(), "counter", "Jobs that ran to completion."},
		{"hemeserved_jobs_failed_total", m.JobsFailed.Load(), "counter", "Jobs that ended in error."},
		{"hemeserved_jobs_cancelled_total", m.JobsCancelled.Load(), "counter", "Jobs cancelled by users."},
		{"hemeserved_renders_total", m.RendersTotal.Load(), "counter", "Frames rendered (frame cache misses)."},
		{"hemeserved_frame_cache_hits_total", m.frameHits.Load(), "counter", "Frame requests served without a render, per (snapshot, view)."},
		{"hemeserved_frame_cache_misses_total", m.frameMiss.Load(), "counter", "Frame requests that rendered, per (snapshot, view)."},
		{"hemeserved_frame_cache_evictions_total", m.frameEvict.Load(), "counter", "Frames evicted from the cache, least recently used first."},
		{"hemeserved_domain_cache_hits_total", m.DomainCacheHits.Load(), "counter", "Dispatches served a voxelised domain from the cache (or from a sibling's build in flight)."},
		{"hemeserved_domain_cache_misses_total", m.DomainCacheMiss.Load(), "counter", "Dispatches that voxelised their geometry."},
		{"hemeserved_solver_plan_hits_total", m.SolverPlanHits.Load(), "counter", "Dispatches that found the solver's stream table kept on the domain."},
		{"hemeserved_solver_plan_misses_total", m.SolverPlanMiss.Load(), "counter", "Dispatches that built the solver's stream table."},
		{"hemeserved_steer_ops_total", m.SteerOps.Load(), "counter", "Steering commands applied."},
		{"hemeserved_data_requests_total", m.DataRequests.Load(), "counter", "Reduced-data queries served."},
		{"hemeserved_http_requests_total", m.HTTPRequests.Load(), "counter", "HTTP requests served."},
		{"hemeserved_snapshots_total", m.SnapshotsTotal.Load(), "counter", "Field snapshots published by solvers."},
		{"hemeserved_render_queue_depth", m.RenderQueueDepth.Load(), "gauge", "Renders waiting for or holding a set of frame buffers."},
		{"hemeserved_stream_clients", m.StreamClients.Load(), "gauge", "Live SSE subscribers."},
		{"hemeserved_frames_streamed_total", m.FramesStreamed.Load(), "counter", "Frame events pushed to SSE subscribers."},
		{"hemeserved_checkpoints_written_total", m.CheckpointsWritten.Load(), "counter", "Solver checkpoints journaled to the data dir."},
		{"hemeserved_checkpoint_bytes_total", m.CheckpointBytes.Load(), "counter", "Bytes of checkpoint data written."},
		{"hemeserved_checkpoints_invalid_total", m.CheckpointsInvalid.Load(), "counter", "Checkpoints that failed verification at recovery."},
		{"hemeserved_jobs_recovered_total", m.JobsRecovered.Load(), "counter", "Jobs reloaded from the store at boot."},
		{"hemeserved_job_restarts_total", m.JobRestarts.Load(), "counter", "Interrupted jobs re-queued at recovery."},
		{"hemeserved_store_errors_total", m.StoreErrors.Load(), "counter", "Failed store reads/writes."},
		{"hemeserved_checkpoint_stall_ns_total", m.CheckpointStallNs.Load(), "counter", "Solver-loop time spent on checkpoint gathers, nanoseconds."},
		{"hemeserved_checkpoints_coalesced_total", m.CheckpointsCoalesced.Load(), "counter", "Gathered checkpoint states overwritten before being written."},
		{"hemeserved_snapshots_skipped_total", m.SnapshotsSkipped.Load(), "counter", "Snapshot cadence boundaries skipped for lack of interest."},
		{"hemeserved_jobs_diverged_total", m.JobsDiverged.Load(), "counter", "Jobs whose snapshot fields went non-finite (simulation blow-up)."},
		{"hemeserved_checkpoint_deltas_written_total", m.CheckpointDeltasWritten.Load(), "counter", "Incremental (lbcd) checkpoint delta records persisted."},
		{"hemeserved_checkpoint_delta_bytes_total", m.CheckpointDeltaBytes.Load(), "counter", "Bytes of incremental checkpoint delta data written."},
		{"hemeserved_checkpoint_dirty_ratio_permille", m.CheckpointDirtyRatioPermille.Load(), "gauge", "Dirty site-tile ratio of the last checkpoint write, in thousandths."},
		{"hemeserved_journal_group_commits_total", m.JournalGroupCommits.Load(), "counter", "Journal fsyncs."},
		{"hemeserved_journal_group_commit_records_total", m.JournalGroupCommitRecords.Load(), "counter", "Records made durable by journal fsyncs."},
		{"hemeserved_jobs_panicked_total", m.JobsPanicked.Load(), "counter", "Solver panics quarantined to their own job."},
		{"hemeserved_watchdog_stalls_total", m.WatchdogStalls.Load(), "counter", "Stall windows flagged by the stuck-job watchdog."},
		{"hemeserved_store_degraded", m.StoreDegraded.Load(), "gauge", "1 while durability is suspended under disk pressure."},
		{"hemeserved_store_degraded_total", m.StoreDegradedTotal.Load(), "counter", "Disk-pressure degradation episodes."},
		{"hemeserved_store_writes_suppressed_total", m.StoreWritesSuppressed.Load(), "counter", "Journal/state writes skipped while degraded."},
		{"hemeserved_checkpoints_skipped_degraded_total", m.CheckpointsSkippedDegraded.Load(), "counter", "Checkpoint writes dropped while durability was degraded."},
		{"hemeserved_jobs_gced_total", m.JobsGCed.Load(), "counter", "Terminal jobs removed by the retention sweeper."},
		{"hemeserved_auth_failures_total", m.AuthFailures.Load(), "counter", "Requests refused for a missing or unknown API key."},
		{"hemeserved_submits_quota_rejected_total", m.SubmitsQuotaRejected.Load(), "counter", "Submits refused by a tenant's concurrent-job quota."},
		{"hemeserved_submits_rate_limited_total", m.SubmitsRateLimited.Load(), "counter", "Submits refused by a tenant's token-bucket rate limit."},
		{"hemeserved_submits_shed_total", m.SubmitsShed.Load(), "counter", "Submits shed by the queue/memory overload watermark."},
	}
}

// histogramRow pairs a histogram's base name with its HELP text.
type histogramRow struct {
	base string
	h    *obs.Histogram
	help string
}

func (m *Metrics) histograms() []histogramRow {
	return []histogramRow{
		{"hemeserved_step_duration", &m.StepDuration, "Solver step duration (rank 0, sampled)."},
		{"hemeserved_collective_wait", &m.CollectiveWait, "Per-step steering command broadcast wait (rank 0)."},
		{"hemeserved_field_gather", &m.FieldGather, "Snapshot field gather duration (rank 0)."},
		{"hemeserved_checkpoint_gather", &m.CheckpointGather, "In-loop checkpoint state gather duration (rank 0)."},
		{"hemeserved_solver_yield", &m.SolverYield, "Solver wait before a step for the frames in flight (rank 0, every non-zero wait)."},
		{"hemeserved_checkpoint_write", &m.CheckpointWrite, "Checkpoint encode+fsync duration on the writer goroutine."},
		{"hemeserved_render_latency", &m.RenderLatency, "Cache-miss frame latency, wait for frame buffers to PNG encoded."},
		{"hemeserved_preprocess", &m.Preprocess, "Job pre-processing at dispatch: domain cache lookup or voxelise, then the solver: the whole-domain plan on a domain's first job, graph and partition for multi-rank jobs, populations at equilibrium."},
		{"hemeserved_voxelise", &m.Voxelise, "Voxelisation of a geometry on a domain-cache miss (the build alone)."},
		{"hemeserved_plan", &m.Plan, "Whole-domain stream table build on a plan miss (a domain's first job)."},
	}
}

// WritePrometheus emits the full Prometheus text exposition (0.0.4):
// every counter/gauge with HELP/TYPE headers, the latency
// histograms as _seconds bucket series, the per-route HTTP latency
// family and the Go runtime gauges.
func (m *Metrics) WritePrometheus(w io.Writer) {
	for _, c := range m.rows() {
		if c.typ == "gauge" {
			obs.WriteGauge(w, c.name, c.help, c.v)
		} else {
			obs.WriteCounter(w, c.name, c.help, c.v)
		}
	}
	for _, hr := range m.histograms() {
		obs.WriteHistogram(w, hr.base, hr.help, hr.h)
	}
	obs.WriteHistogramSet(w, "hemeserved_http_request_duration", "HTTP request latency by route.", "route", &m.HTTPLatency)
	obs.WriteRuntimeMetrics(w)
}
