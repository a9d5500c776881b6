package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/guard"
	"repro/internal/insitu"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/octree"
	"repro/internal/service/store"
	"repro/internal/steering"
	"repro/internal/vec"
)

// JobState is the lifecycle of one managed simulation.
type JobState string

// Lifecycle: queued → running ⇄ paused → done | failed | cancelled.
// A queued job can also go straight to cancelled.
const (
	StateQueued    JobState = "queued"
	StateRunning   JobState = "running"
	StatePaused    JobState = "paused"
	StateDone      JobState = "done"
	StateFailed    JobState = "failed"
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// ChaosHook observes named crash points on the durable-job path. The
// chaos harness (internal/chaos) installs one that cuts power at a
// chosen (point, occurrence) pair; production managers leave it nil
// and pay a nil check per durability event — no build tags. The hook
// runs on whatever goroutine hits the point (solver loop, writer
// goroutine, recovery), so implementations must be safe for concurrent
// use.
type ChaosHook func(point, jobID string)

// Named crash points a ChaosHook can observe.
const (
	// ChaosJournalAppend fires immediately before a lifecycle or spec
	// record is journaled (Submit's spec+state pair, every persistState).
	ChaosJournalAppend = "journal.append"
	// ChaosCheckpointSwap fires in the solver loop as a gathered
	// checkpoint state is handed to the async writer (ckptWriter.Deliver).
	ChaosCheckpointSwap = "ckpt.swap"
	// ChaosCheckpointWrite fires on the writer goroutine immediately
	// before the encoded checkpoint is persisted.
	ChaosCheckpointWrite = "ckpt.write"
	// ChaosCheckpointDelta fires on the writer goroutine immediately
	// before an encoded delta record is persisted.
	ChaosCheckpointDelta = "ckpt.delta"
	// ChaosCheckpointCompact fires between a full checkpoint landing
	// and the old delta chain being removed — the mid-compaction crash
	// window (stale deltas must be rejected and swept, never replayed).
	ChaosCheckpointCompact = "ckpt.compact"
	// ChaosRecoveryReplay fires once per journaled job as boot-time
	// recovery replays it — a crash *during* recovery must itself be
	// recoverable.
	ChaosRecoveryReplay = "recovery.replay"
)

// Errors the HTTP layer maps onto status codes.
var (
	ErrQueueFull  = fmt.Errorf("service: submission queue full")
	ErrClosed     = fmt.Errorf("service: manager closed")
	ErrNotFound   = fmt.Errorf("service: no such job")
	ErrNotRunning = fmt.Errorf("service: job is not running")
	ErrFinished   = fmt.Errorf("service: job already finished")
	// ErrNoSnapshot marks a job with nothing to serve pixels or octrees
	// from: it was submitted with snapshots disabled, or it ended (in
	// this daemon's lifetime) before publishing one. /frame, /data and
	// /stream all answer it.
	ErrNoSnapshot = fmt.Errorf("service: no snapshot to serve this job from (snapshot_every is -1, or none was published)")
	// ErrResumeAborted reports a Resume whose wait for a free worker
	// slot was cut short by the caller's context.
	ErrResumeAborted = fmt.Errorf("service: resume aborted")
	// ErrInternal marks server-side failures (a render or reply that
	// went wrong) as distinct from bad requests.
	ErrInternal = fmt.Errorf("service: internal error")
	// Admission-control rejections (HTTP: 401 for the first, 429 with
	// Retry-After for the rest).
	ErrUnauthorized  = fmt.Errorf("service: missing or invalid API key")
	ErrQuotaExceeded = fmt.Errorf("service: tenant concurrent-job quota exceeded")
	ErrRateLimited   = fmt.Errorf("service: tenant submit rate exceeded")
	ErrOverloaded    = fmt.Errorf("service: server overloaded")
)

// Job is one managed simulation: the spec it was submitted with, its
// private steering controller (the transport-agnostic queue the run
// loop polls) and its lifecycle bookkeeping.
type Job struct {
	ID   string
	Spec JobSpec

	ctrl *steering.Controller
	step atomic.Int64

	// rec is the job's flight recorder: a fixed ring of lifecycle and
	// phase events behind GET /jobs/{id}/events. Set once at creation,
	// internally synchronised — read it without j.mu.
	rec *obs.Recorder
	// log is the job-scoped structured logger (manager logger + job id).
	log *slog.Logger

	mu       sync.Mutex
	state    JobState
	errMsg   string
	numSites int
	created  time.Time
	started  time.Time
	finished time.Time
	// quit records who asked the solver to stop, so finish and the
	// journal writers agree on the outcome (see quitReason).
	quit quitReason
	// lifecycle serialises Pause/Resume per job: their op round-trip
	// and state+slot update must be atomic against each other, or an
	// interleaved pair could record state=running for a solver that a
	// later-replied pause actually parked.
	lifecycle sync.Mutex
	// holdsSlot tracks whether this job currently occupies one of the
	// manager's concurrency slots. Pausing releases the slot (the run
	// goroutine parks in PollWait, costing nothing); resuming takes
	// one again. Guarded by mu; the actual channel send/receive
	// happens outside the lock.
	holdsSlot bool
	// Durability bookkeeping (guarded by mu): recovered marks a job
	// loaded from the store after a daemon restart, restarts counts
	// how many times an interruption re-queued it, and resumeStep is
	// the checkpoint step the current/last run resumed from (0 = a
	// fresh start). The checkpoint bytes themselves are re-read from
	// the store at dispatch time, not held across the queued wait.
	recovered  bool
	restarts   int
	resumeStep int
	// tenant is the admission-control account the job is charged to
	// (AnonymousTenant when submitted without a key). Set at submit or
	// recovery, constant afterwards.
	tenant string
	// resumePaused marks a recovered job that was paused when the
	// previous daemon died: its re-run starts parked (core StartPaused)
	// and the lifecycle state comes back as paused, not running.
	resumePaused bool
	// steer mirrors the set-iolet overrides applied so far, which must
	// survive a restart. Written on successful Steer ops, re-applied at
	// dispatch.
	steer store.SteerRecord
	// Watchdog bookkeeping: wdSeen primes the first observation after
	// dispatch, wdLastStep is the step at the last tick, wdStrikes
	// counts consecutive no-progress windows.
	wdSeen     bool
	wdLastStep int64
	wdStrikes  int
	// journalMu serialises this job's journal writes: the record
	// build and the store write happen under it together, so a racing
	// Pause/Resume can never journal a stale non-terminal record over
	// the terminal one finish() wrote (which would resurrect a
	// completed job on the next boot).
	journalMu sync.Mutex

	// Snapshot box: the latest immutable field snapshot plus a
	// broadcast channel that closes whenever a new one lands (or the
	// job terminates), so stream subscribers wait without polling.
	snapMu     sync.Mutex
	snap       *core.Snapshot
	snapCh     chan struct{}
	snapSealed bool
	// snapWant latches that some consumer (frame poller, stream pump,
	// data request) wants a fresher snapshot; the solver's
	// SnapshotInterest hook consumes it at cadence boundaries. Unwatched
	// jobs therefore publish nothing and gather nothing in-loop.
	snapWant atomic.Bool
	// diverged latches that a published snapshot carried non-finite
	// fields — the simulation blew up. Surfaced in JobInfo, the metric
	// and the flight recorder exactly once.
	diverged atomic.Bool
}

// quitReason is why a job's solver was told to quit. A user's cancel
// outranks a shutdown's (the larger value wins): once a caller is told
// "cancelled", the job must not come back on the next boot.
type quitReason uint8

const (
	quitNone quitReason = iota
	// quitShutdown is Close draining the daemon, not a user decision:
	// the cancelled state stays out of the store, so the job's
	// interrupted record re-queues it on the next boot.
	quitShutdown
	// quitUser is Cancel: the cancelled outcome is journaled.
	quitUser
)

// drainCancelled reports a job stopped by the drain, whose terminal
// state must stay out of the store. Caller holds j.mu.
func (j *Job) drainCancelled() bool {
	return j.quit == quitShutdown && j.state == StateCancelled
}

// wantSnapshot registers demand for a fresh snapshot; the solver
// publishes at its next cadence check.
func (j *Job) wantSnapshot() { j.snapWant.Store(true) }

// snapFreshWait bounds how long a frame/data request waits for a
// demand-driven publication before settling for whatever exists.
const snapFreshWait = 10 * time.Second

// freshSnapshot returns the job's latest snapshot for request serving
// — the one source of pixels and octrees — registering demand and
// waiting (bounded) for a publication when there is none yet or the
// newest one lags a running solver by more than one cadence: with
// demand-driven publication, a stale snapshot is refreshed by the
// request, not by a timer, so pollers keep the same ≤one-cadence
// staleness the fixed schedule gave them. Paused and terminal jobs
// answer immediately: the solver publishes on entering a pause (a
// start-paused run included) and at run end, so their latest snapshot
// already is the current state. ErrNoSnapshot when the spec disabled
// snapshots or the job ended without ever publishing one.
func (m *Manager) freshSnapshot(j *Job) (*core.Snapshot, error) {
	if !j.Spec.SnapshotsEnabled() {
		return nil, ErrNoSnapshot
	}
	deadline := time.NewTimer(snapFreshWait)
	defer deadline.Stop()
	for {
		snap, newer := j.LatestSnapshot()
		st := j.State()
		fresh := snap != nil && (st != StateRunning || j.Step() < snap.Step+j.Spec.SnapshotEvery)
		if !fresh && !st.Terminal() {
			j.wantSnapshot()
			select {
			case <-newer:
				continue
			case <-deadline.C: // settle for whatever exists
			}
		}
		if snap == nil {
			return nil, ErrNoSnapshot
		}
		return snap, nil
	}
}

// JobInfo is the JSON snapshot served by list/get.
type JobInfo struct {
	ID         string   `json:"id"`
	Name       string   `json:"name,omitempty"`
	Preset     string   `json:"preset"`
	Ranks      int      `json:"ranks"`
	State      JobState `json:"state"`
	Step       int      `json:"step"`
	TotalSteps int      `json:"total_steps"`
	NumSites   int      `json:"num_sites,omitempty"`
	Error      string   `json:"error,omitempty"`
	CreatedAt  string   `json:"created_at"`
	StartedAt  string   `json:"started_at,omitempty"`
	FinishedAt string   `json:"finished_at,omitempty"`
	// Recovered marks jobs reloaded from the data dir after a daemon
	// restart; Restarts counts how many restarts interrupted the job;
	// ResumedFromStep is the checkpoint step the latest run resumed
	// from (0 = it started from scratch).
	Recovered       bool `json:"recovered,omitempty"`
	Restarts        int  `json:"restarts,omitempty"`
	ResumedFromStep int  `json:"resumed_from_step,omitempty"`
	// Events is the total count of flight-recorder events the job has
	// emitted (the ring keeps the most recent ones; GET
	// /jobs/{id}/events returns them); LastEvent is the newest one's
	// type.
	Events    uint64 `json:"events,omitempty"`
	LastEvent string `json:"last_event,omitempty"`
	// Diverged marks a job whose published fields went non-finite: the
	// simulation blew up, whatever the lifecycle state says.
	Diverged bool `json:"diverged,omitempty"`
}

// Info snapshots the job for serialisation.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{
		ID:         j.ID,
		Name:       j.Spec.Name,
		Preset:     j.Spec.Preset,
		Ranks:      j.Spec.Ranks,
		State:      j.state,
		Step:       int(j.step.Load()),
		TotalSteps: j.Spec.Steps,
		NumSites:   j.numSites,
		Error:      j.errMsg,
		CreatedAt:  j.created.UTC().Format(time.RFC3339Nano),

		Recovered:       j.recovered,
		Restarts:        j.restarts,
		ResumedFromStep: j.resumeStep,
		Diverged:        j.diverged.Load(),
	}
	if !j.started.IsZero() {
		info.StartedAt = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		info.FinishedAt = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if j.rec != nil {
		info.Events = j.rec.Seq()
		if last, ok := j.rec.Last(); ok {
			info.LastEvent = last.Type
		}
	}
	return info
}

// State returns the current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Step returns the last step the solver reported.
func (j *Job) Step() int { return int(j.step.Load()) }

// publishSnapshot installs a new snapshot and wakes every waiter. It
// runs on the solver's critical path (the core OnSnapshot hook), so it
// only swaps a pointer and rotates a channel.
func (j *Job) publishSnapshot(s *core.Snapshot) {
	j.snapMu.Lock()
	if j.snapSealed {
		j.snapMu.Unlock()
		return
	}
	j.snap = s
	old := j.snapCh
	j.snapCh = make(chan struct{})
	j.snapMu.Unlock()
	close(old)
}

// sealSnapshots wakes all waiters one final time without rotating the
// channel — after this, LatestSnapshot's channel reads as closed
// forever, and callers distinguish "job over" via State().Terminal().
func (j *Job) sealSnapshots() {
	j.snapMu.Lock()
	if !j.snapSealed {
		j.snapSealed = true
		close(j.snapCh)
	}
	j.snapMu.Unlock()
}

// LatestSnapshot returns the newest published snapshot (nil before the
// first one) and a channel that closes when a newer snapshot arrives
// or the job reaches a terminal state.
func (j *Job) LatestSnapshot() (*core.Snapshot, <-chan struct{}) {
	j.snapMu.Lock()
	defer j.snapMu.Unlock()
	return j.snap, j.snapCh
}

// Options configures a Manager beyond the worker/queue pair.
type Options struct {
	// Workers bounds how many simulations step concurrently (paused
	// jobs don't count) and how many frames render at once (one frame
	// is cast by up to GOMAXPROCS participants); QueueCap bounds
	// accepted-but-not-started submissions. Zero values fall back to
	// 2 / 16.
	Workers  int
	QueueCap int
	Metrics  *Metrics
	// Store, when set, makes jobs durable: specs and lifecycle states
	// are journaled on every change, running jobs checkpoint their
	// solver state at a cadence, and NewManagerOpts re-queues whatever
	// a previous daemon left unfinished.
	Store *store.Store
	// CheckpointEvery is the default checkpoint cadence in steps for
	// specs that leave checkpoint_every at 0: 0 means the built-in 64,
	// -1 means no default checkpointing (specs can still opt in with
	// an explicit positive checkpoint_every). Ignored without Store.
	CheckpointEvery int
	// CheckpointFullEvery is the delta-chain policy: every Kth
	// checkpoint is a full one, the ones between are delta records over
	// the previous persisted state. 0 means the built-in 8; 1 (or any
	// smaller value) writes only full checkpoints. Ignored without
	// Store. Not a daemon flag: it stays as the seam the chaos driver
	// and the delta-policy tests use to force compaction in a short run.
	CheckpointFullEvery int
	// Logger receives the manager's structured log stream (job
	// lifecycle, recovery, store failures). Nil discards everything.
	Logger *slog.Logger
	// EventRing sizes each job's flight-recorder ring (default
	// obs.DefaultRingSize).
	EventRing int
	// ChaosHook, when set, observes the named crash points on the
	// durable-job path (see the ChaosHook type). Test-only; nil in
	// production.
	ChaosHook ChaosHook
	// StepHook, when set, runs inside the solver's OnStep callback on
	// the rank-0 stepping goroutine. Test-only fault-injection seam: a
	// hook that panics exercises the panic quarantine exactly where a
	// kernel bug would.
	StepHook func(jobID string, step int)
	// StoreProbeEvery is the re-probe cadence while the store is
	// degraded under disk pressure (0 = 5s; ignored without Store).
	StoreProbeEvery time.Duration
	// Terminal-job retention (ignored without Store; zero values keep
	// everything). StoreRetain caps how many terminal jobs are kept;
	// StoreRetainAge removes terminal jobs older than this. The sweep
	// runs every GCInterval (0 = 1 minute).
	StoreRetain    int
	StoreRetainAge time.Duration
	GCInterval     time.Duration
	// WatchdogStall is the stuck-job watchdog's no-step-progress window:
	// each one a running job spends without stepping is flagged as a
	// strike (0 disables the watchdog).
	WatchdogStall time.Duration
	// Admission control. AuthKeys is the parsed -auth-keys tenant set
	// (empty = no keys, every caller is anonymous); TenantDefaults are
	// the limits for tenants without their own (and for anonymous).
	AuthKeys       []TenantConfig
	TenantDefaults TenantLimits
	// MemLimit sheds submits while the Go heap exceeds this many bytes
	// (0 = no memory watermark).
	MemLimit int64
}

// Manager owns the bounded submission queue, the concurrency slots the
// dispatcher hands jobs, the frame buffers and the caches every
// transport shares.
type Manager struct {
	metrics *Metrics
	log     *slog.Logger
	ringSz  int
	// store is the durability layer (nil = in-memory only); ckptEvery
	// is the default checkpoint cadence for specs that don't set one.
	// fullEvery is the delta-chain policy handed to each job's
	// checkpoint writer.
	store     *store.Store
	ckptEvery int
	fullEvery int
	// chaos observes named crash points (nil in production).
	chaos ChaosHook
	queue chan *Job
	// queueCap is the configured admission limit. Recovery may size
	// the queue channel above it to hold a large re-queued backlog,
	// but new submissions are judged against this, so a restart never
	// loosens the operator's backpressure setting.
	queueCap int
	// slots is the semaphore of concurrently *stepping* jobs: the
	// dispatcher takes a token before starting a run, Pause returns
	// it, Resume takes one again. A paused job therefore costs a
	// parked goroutine, not a pool slot — W paused jobs no longer
	// stall the whole service.
	slots chan struct{}
	// frameBufs holds one set of frame buffers per Workers: a frame
	// that missed the cache takes a set, renders on its own goroutine
	// and gives the set back, so the channel bounds concurrent renders
	// and each set's image, scalar table and PNG state are reused.
	frameBufs chan *insitu.FrameBuffers
	// One cache type, three instances, each keyed by what its values
	// derive from: rendered frames by (snapshot, view), so N viewers of
	// a snapshot cost one render whether they poll or stream; voxelised
	// geometries, shared read-only between jobs; and the §V octrees by
	// snapshot, so N data queries of one snapshot cost one build.
	frames  *lru[frameKey, frame]
	domains *lru[domainKey, *geometry.Domain]
	octrees *lru[uint64, *octree.Tree]
	// Fault containment. degrader tracks disk-pressure degradation
	// (nil without a store); tenants enforces per-tenant quotas and
	// rate limits (never nil); memWM is the heap shed watermark (nil
	// when unset); stepHook is the test-only solver fault seam.
	degrader *guard.Degrader
	tenants  *tenants
	memWM    *guard.MemWatermark
	stepHook func(jobID string, step int)
	// Watchdog / retention config (zero = disabled).
	wdStall    time.Duration
	retainMax  int
	retainAge  time.Duration
	gcInterval time.Duration
	// done stops the watchdog and retention goroutines at Close.
	done chan struct{}

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []string
	nextID int64
	closed bool
	// queuedLen counts jobs submitted but not yet granted a slot. The
	// dispatcher holds a popped job while waiting for a slot, so
	// channel occupancy alone would understate the backlog by one.
	queuedLen int

	wg sync.WaitGroup
}

// NewManagerOpts starts a manager with explicit sizing for the solver
// slots and the submission queue.
func NewManagerOpts(o Options) *Manager {
	if o.Workers <= 0 {
		o.Workers = 2
	}
	if o.QueueCap <= 0 {
		o.QueueCap = 16
	}
	if o.Metrics == nil {
		o.Metrics = &Metrics{}
	}
	if o.Logger == nil {
		o.Logger = obs.NopLogger()
	}
	switch {
	case o.CheckpointEvery == 0:
		o.CheckpointEvery = 64
	case o.CheckpointEvery < 0:
		o.CheckpointEvery = 0 // no daemon default; specs may still opt in
	}
	if o.CheckpointFullEvery == 0 {
		o.CheckpointFullEvery = 8
	}
	if o.CheckpointFullEvery < 1 {
		o.CheckpointFullEvery = 1 // full checkpoints only
	}
	if o.GCInterval <= 0 {
		o.GCInterval = time.Minute
	}
	m := &Manager{
		metrics:   o.Metrics,
		log:       o.Logger,
		ringSz:    o.EventRing,
		store:     o.Store,
		ckptEvery: o.CheckpointEvery,
		fullEvery: o.CheckpointFullEvery,
		chaos:     o.ChaosHook,
		slots:     make(chan struct{}, o.Workers),
		frameBufs: make(chan *insitu.FrameBuffers, o.Workers),
		frames: newLRU[frameKey](frameEntries, func(frame) int { return 1 },
			&o.Metrics.frameHits, &o.Metrics.frameMiss, &o.Metrics.frameEvict),
		domains: newLRU[domainKey](siteBudget, func(d *geometry.Domain) int { return d.NumSites() },
			&o.Metrics.DomainCacheHits, &o.Metrics.DomainCacheMiss, nil),
		octrees:    newLRU[uint64](siteBudget, func(t *octree.Tree) int { return t.NodeCount(0) }, nil, nil, nil),
		jobs:       make(map[string]*Job),
		tenants:    newTenants(o.AuthKeys, o.TenantDefaults),
		memWM:      guard.NewMemWatermark(uint64(max(o.MemLimit, 0))),
		stepHook:   o.StepHook,
		wdStall:    o.WatchdogStall,
		retainMax:  o.StoreRetain,
		retainAge:  o.StoreRetainAge,
		gcInterval: o.GCInterval,
		done:       make(chan struct{}),
	}
	if m.store != nil {
		// The degrader decides when write failures mean "disk full, stop
		// journaling" (ENOSPC, or its default of 3 other failures in a
		// row) versus a transient hiccup; its probe re-enables
		// durability by test-writing into the data dir.
		m.degrader = guard.NewDegrader(0, o.StoreProbeEvery,
			m.store.ProbeWrite, m.onDegradeChange)
		m.store.SetGroupCommitObserver(func(records int) {
			o.Metrics.JournalGroupCommits.Add(1)
			o.Metrics.JournalGroupCommitRecords.Add(int64(records))
		})
	}
	// Recovery runs before the dispatcher exists, so the re-queued
	// backlog can size the queue channel (a restart must never drop
	// jobs to queue-full) and prefill it without racing anything.
	var pending []*Job
	if m.store != nil {
		pending = m.recoverFromStore()
	}
	m.queueCap = o.QueueCap
	chanCap := o.QueueCap
	if len(pending) > chanCap {
		chanCap = len(pending)
	}
	m.queue = make(chan *Job, chanCap)
	for _, j := range pending {
		m.queue <- j
		m.queuedLen++
	}
	for i := 0; i < o.Workers; i++ {
		m.slots <- struct{}{}
		m.frameBufs <- new(insitu.FrameBuffers)
	}
	m.wg.Add(1)
	go m.dispatch()
	if m.wdStall > 0 {
		m.wg.Add(1)
		go m.watchdog()
	}
	if m.store != nil && (m.retainMax > 0 || m.retainAge > 0) {
		m.wg.Add(1)
		go m.gcLoop()
	}
	return m
}

// onDegradeChange is the degrader's transition callback: flip the
// gauge, log loudly, and on restore re-journal every live job so the
// states accepted while degraded become durable again. The re-journal
// runs on the probe goroutine that restored, which Degrader.Close waits
// for — so Close, which closes the degrader before the journal, never
// returns while one is in flight.
func (m *Manager) onDegradeChange(degraded bool, cause error) {
	if degraded {
		m.metrics.StoreDegraded.Store(1)
		m.metrics.StoreDegradedTotal.Add(1)
		m.log.Error("store degraded: suspending durability, jobs keep stepping", "cause", cause)
		return
	}
	m.metrics.StoreDegraded.Store(0)
	m.log.Info("store restored: re-enabling durability")
	m.rejournalAll()
}

// StoreDegraded reports whether durability is currently suspended
// under disk pressure (the /healthz "degraded" signal).
func (m *Manager) StoreDegraded() bool {
	return m.degrader != nil && m.degrader.Degraded()
}

// rejournalAll re-writes every live job's spec+state through the
// journal after a degraded episode ends: whatever was accepted or
// transitioned while writes were suspended becomes durable now.
// AppendSubmit is idempotent (it overwrites the same records recovery
// reads), so jobs that never lost a write are simply refreshed.
func (m *Manager) rejournalAll() {
	m.mu.Lock()
	jobs := make([]*Job, 0, len(m.jobs))
	for _, id := range m.order {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	for _, j := range jobs {
		if m.degrader.Degraded() {
			return // re-degraded mid-sweep; the next restore retries
		}
		j.journalMu.Lock()
		j.mu.Lock()
		rec := j.recordLocked()
		spec := j.Spec
		skip := j.drainCancelled()
		j.mu.Unlock()
		if !skip {
			if err := m.store.AppendSubmit(j.ID, spec, rec); err != nil {
				m.metrics.StoreErrors.Add(1)
				j.log.Warn("re-journal after degraded episode failed", "err", err)
				m.degrader.WriteFailed(err)
			} else {
				m.degrader.WriteOK()
				j.rec.Record(obs.EvStoreRestored, j.Step(), 0, "re-journaled")
			}
		}
		j.journalMu.Unlock()
	}
	m.log.Info("re-journaled live jobs after degraded episode", "jobs", len(jobs))
}

// recoverFromStore rebuilds the job table from the data dir: terminal
// jobs come back as read-only history; interrupted ones (queued,
// running or paused at the time of death) are re-queued, resuming from
// their latest checkpoint when it verifies — a corrupt or missing
// checkpoint degrades to a clean start from step 0, never a crash.
// Returns the jobs to prefill the submission queue with.
func (m *Manager) recoverFromStore() []*Job {
	var pending []*Job
	for _, id := range m.store.Jobs() {
		m.chaosPoint(ChaosRecoveryReplay, id)
		// Keep new submissions' IDs above everything ever journaled.
		if n, ok := jobIDNumber(id); ok && n > m.nextID {
			m.nextID = n
		}
		// Jobs lists exactly the ids the journal holds a spec and a
		// record for; remnants never reach this loop.
		raw, _ := m.store.Spec(id)
		rec, _ := m.store.State(id)
		var spec JobSpec
		if err := json.Unmarshal(raw, &spec); err != nil {
			m.metrics.StoreErrors.Add(1)
			continue
		}
		j := &Job{
			ID:        id,
			Spec:      spec.withDefaults(),
			ctrl:      steering.NewController(),
			rec:       obs.NewRecorder(m.ringSz),
			log:       m.log.With("job", id),
			created:   rec.CreatedAt,
			recovered: true,
			restarts:  rec.Restarts,
			tenant:    rec.Tenant,
			snapCh:    make(chan struct{}),
		}
		if rec.Steer != nil {
			j.steer = *rec.Steer
		}
		j.rec.Record(obs.EvRecovered, rec.Step, 0, rec.State)
		if st := JobState(rec.State); st.Terminal() {
			j.step.Store(int64(rec.Step))
			j.state = st
			j.errMsg = rec.Error
			j.started = rec.StartedAt
			j.finished = rec.FinishedAt
			j.ctrl.Close()
			j.sealSnapshots()
			j.log.Info("recovered finished job", "state", rec.State, "step", rec.Step)
		} else {
			j.state = StateQueued
			j.restarts++
			// A job that was paused when the daemon died comes back
			// paused: its re-run starts parked and waits for an explicit
			// resume, instead of silently burning its remaining steps.
			j.resumePaused = rec.Paused || rec.State == string(StatePaused)
			// Re-queued work still occupies its tenant's quota.
			m.tenants.charge(j.tenant)
			// Verify the checkpoint chain now but keep only its step —
			// the state is re-read at dispatch, so a crash with a big
			// backlog doesn't hold every solver state in memory while
			// jobs wait for a slot. The step doubles as the reported
			// progress; without a usable checkpoint it stays 0 so the
			// step counter never runs backwards once the re-run starts.
			if step, err := m.store.VerifyCheckpoint(id); err == nil {
				j.resumeStep = step
				j.step.Store(int64(step))
			} else if !errors.Is(err, fs.ErrNotExist) {
				// Interrupted before its first checkpoint is normal;
				// anything else is a corrupt file we fall back from.
				m.metrics.CheckpointsInvalid.Add(1)
				j.log.Warn("checkpoint failed verification at recovery; restarting from step 0", "err", err)
			}
			m.metrics.JobRestarts.Add(1)
			j.log.Info("re-queued interrupted job", "interrupted_state", rec.State,
				"restarts", j.restarts, "resume_step", j.resumeStep)
			pending = append(pending, j)
		}
		m.jobs[id] = j
		m.order = append(m.order, id)
		m.metrics.JobsRecovered.Add(1)
	}
	// Journal the re-queued records (restart count, queued state) so a
	// crash during recovery itself still counts the attempt.
	for _, j := range pending {
		m.persistState(j)
	}
	return pending
}

// chaosPoint fires the chaos hook (nil-safe).
func (m *Manager) chaosPoint(point, jobID string) {
	if m.chaos != nil {
		m.chaos(point, jobID)
	}
}

// jobIDNumber extracts the numeric suffix of a "job-NNNN" ID.
func jobIDNumber(id string) (int64, bool) {
	rest, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(rest, 10, 64)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// recordLocked builds the persisted lifecycle record. Caller holds
// j.mu (or has exclusive access to a job not yet published).
func (j *Job) recordLocked() store.JobRecord {
	rec := store.JobRecord{
		ID:         j.ID,
		State:      string(j.state),
		Error:      j.errMsg,
		Step:       int(j.step.Load()),
		Restarts:   j.restarts,
		CreatedAt:  j.created,
		StartedAt:  j.started,
		FinishedAt: j.finished,
		Tenant:     j.tenant,
		Paused:     j.state == StatePaused,
	}
	if len(j.steer.Iolets) > 0 {
		rec.Steer = &store.SteerRecord{Iolets: append([]store.IoletOver(nil), j.steer.Iolets...)}
	}
	return rec
}

// persistState journals the job's current lifecycle record and waits
// for it to be durable. Best-effort: a failed write is counted, not
// fatal — the run itself must not die because the disk hiccuped.
// journalMu makes record build + write atomic against other journal
// writers, so records land in build order and the last write always
// reflects the newest state.
func (m *Manager) persistState(j *Job) { m.persistStateRecord(j, true) }

// persistStateNoWait writes the record to the journal without waiting
// for an fsync: ordering against every later journal write is
// preserved, the record becomes durable with the next waited append,
// and losing it to a crash is indistinguishable from crashing a moment
// earlier. A failed write still reaches the degrader. Used for the
// terminal record on the worker's run path — the fsync would otherwise
// hold the worker slot (and the job's journalMu) for a full disk flush
// per finished job.
func (m *Manager) persistStateNoWait(j *Job) { m.persistStateRecord(j, false) }

func (m *Manager) persistStateRecord(j *Job, wait bool) {
	if m.store == nil {
		return
	}
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	j.mu.Lock()
	rec := j.recordLocked()
	// A shutdown-induced cancel must never reach the journal (the
	// stale running/paused record is what re-queues the job on the
	// next boot). finish skips its own write; this guard covers
	// journal writes that were queued before the drain and would
	// otherwise journal the terminal state they now observe.
	skip := j.drainCancelled()
	j.mu.Unlock()
	if skip {
		return
	}
	// While degraded every lifecycle write is suppressed: the job's
	// current record is rebuilt and re-journaled wholesale when the
	// probe restores the disk (rejournalAll), so nothing is lost except
	// crash-durability during the episode — which the disk couldn't
	// provide anyway.
	if m.degrader.Degraded() {
		m.metrics.StoreWritesSuppressed.Add(1)
		return
	}
	m.chaosPoint(ChaosJournalAppend, j.ID)
	append := m.store.AppendState
	if !wait {
		append = m.store.AppendStateNoWait
	}
	if err := append(j.ID, rec); err != nil {
		m.metrics.StoreErrors.Add(1)
		j.log.Warn("journaling state failed", "state", rec.State, "err", err)
		m.degrader.WriteFailed(err)
	} else {
		m.degrader.WriteOK()
	}
}

// persistStateAsync journals the current lifecycle record off the
// caller's critical path entirely (own goroutine, synchronous ack).
// Out-of-order completion is safe by construction: the record is
// rebuilt from the job's state under journalMu at write time, so a
// delayed write re-writes the newest state — it can never resurrect
// an old one. Used for the mid-run transitions (pause, resume) whose
// loss in a crash is indistinguishable from crashing a moment
// earlier; submission and user-facing cancellation stay fully
// synchronous because they back user-visible promises.
func (m *Manager) persistStateAsync(j *Job) {
	if m.store == nil {
		return
	}
	go m.persistState(j)
}

// checkpointCadence resolves a spec's effective checkpoint cadence:
// 0 = daemon default, -1 = off, otherwise the spec's own value; always
// 0 (off) without a store.
func (m *Manager) checkpointCadence(sp JobSpec) int {
	if m.store == nil || sp.CheckpointEvery < 0 {
		return 0
	}
	if sp.CheckpointEvery > 0 {
		return sp.CheckpointEvery
	}
	return m.ckptEvery
}

// Metrics exposes the counter set shared with the HTTP layer.
func (m *Manager) Metrics() *Metrics { return m.metrics }

// AuthRequired reports whether an auth-keys file was configured — if
// so, non-loopback callers must present a valid API key.
func (m *Manager) AuthRequired() bool { return m.tenants.keysConfigured() }

// ResolveKey maps an API key to its tenant name.
func (m *Manager) ResolveKey(key string) (string, bool) { return m.tenants.resolveKey(key) }

// Draining reports whether Close has begun: the manager no longer
// accepts work, so health checks should fail and load balancers stop
// routing here.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.closed
}

// Submit validates a spec and enqueues the job under the anonymous
// tenant, failing fast when the queue is full — backpressure instead
// of unbounded memory.
func (m *Manager) Submit(spec JobSpec) (*Job, error) {
	return m.SubmitAs(AnonymousTenant, spec)
}

// SubmitAs validates a spec and enqueues the job charged to tenant,
// running the admission gauntlet first: global overload watermarks
// (queue backlog, heap), then the tenant's token bucket and
// concurrent-job quota. All rejections are cheap and keep the daemon
// healthy — shedding is the success mode under overload.
func (m *Manager) SubmitAs(tenant string, spec JobSpec) (*Job, error) {
	if tenant == "" {
		tenant = AnonymousTenant
	}
	if err := spec.Validate(); err != nil {
		m.metrics.JobsRejected.Add(1)
		return nil, err
	}
	spec = spec.withDefaults()
	if m.memWM.Exceeded() {
		// Shedding load and keeping geometries nobody runs resident
		// would work against each other.
		m.domains.purge()
		m.metrics.SubmitsShed.Add(1)
		m.metrics.JobsRejected.Add(1)
		return nil, ErrOverloaded
	}
	// The tenant gauntlet charges one active slot on success; every
	// rejection below must release it again.
	if err := m.tenants.admit(tenant); err != nil {
		switch {
		case errors.Is(err, ErrRateLimited):
			m.metrics.SubmitsRateLimited.Add(1)
		case errors.Is(err, ErrQuotaExceeded):
			m.metrics.SubmitsQuotaRejected.Add(1)
		}
		m.metrics.JobsRejected.Add(1)
		return nil, err
	}
	j, err := m.submitAdmitted(tenant, spec)
	if err != nil {
		m.tenants.release(tenant)
		return nil, err
	}
	return j, nil
}

// submitAdmitted enqueues a spec that already passed admission.
func (m *Manager) submitAdmitted(tenant string, spec JobSpec) (*Job, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.metrics.JobsRejected.Add(1)
		return nil, ErrClosed
	}
	if m.queuedLen >= m.queueCap {
		m.mu.Unlock()
		m.metrics.SubmitsShed.Add(1)
		m.metrics.JobsRejected.Add(1)
		return nil, ErrQueueFull
	}
	m.nextID++
	j := &Job{
		ID:      fmt.Sprintf("job-%04d", m.nextID),
		Spec:    spec,
		ctrl:    steering.NewController(),
		state:   StateQueued,
		created: time.Now(),
		tenant:  tenant,
		snapCh:  make(chan struct{}),
	}
	j.rec = obs.NewRecorder(m.ringSz)
	j.log = m.log.With("job", j.ID)
	// Reserve the queue slot, then journal outside the lock: the
	// fsync-backed writes must not stall every other API call behind
	// m.mu. The reservation keeps occupancy <= queuedLen, so the later
	// channel send can never block; a failed journal releases it (the
	// burned job ID just leaves a harmless numbering gap).
	m.queuedLen++
	m.mu.Unlock()
	// Journal before accepting: once Submit returns 201, the job must
	// survive a crash, so a spec that cannot be journaled is rejected.
	// Spec and initial state go as one atomic record; concurrent
	// submits share a journal fsync. Under disk-pressure degradation
	// the write is skipped instead: the job is accepted
	// non-durably (and re-journaled when the probe restores the disk) —
	// availability over durability, by design.
	nonDurable := false
	if m.store != nil {
		if m.degrader.Degraded() {
			m.metrics.StoreWritesSuppressed.Add(1)
			nonDurable = true
			j.log.Warn("store degraded: job accepted without durability")
		} else {
			m.chaosPoint(ChaosJournalAppend, j.ID)
			err := m.store.AppendSubmit(j.ID, j.Spec, j.recordLocked())
			if err != nil && m.degrader.WriteFailed(err) {
				// This write just tripped degraded mode (ENOSPC, or the
				// last straw of a failure run): accept the job without
				// durability rather than bounce it.
				m.metrics.StoreErrors.Add(1)
				m.metrics.StoreWritesSuppressed.Add(1)
				nonDurable = true
				j.log.Warn("store degraded: job accepted without durability", "err", err)
			} else if err != nil {
				m.mu.Lock()
				m.queuedLen--
				m.mu.Unlock()
				// Best-effort undo of whatever half got journaled, or the
				// next boot would resurrect a job nobody was promised.
				_ = m.store.Remove(j.ID)
				m.metrics.StoreErrors.Add(1)
				m.metrics.JobsRejected.Add(1)
				return nil, fmt.Errorf("%w: journal submit: %v", ErrInternal, err)
			} else {
				m.degrader.WriteOK()
			}
		}
	}
	m.mu.Lock()
	if m.closed {
		// Closed while journaling: the queue channel is gone. Undo the
		// journal too — the caller gets ErrClosed, so the job must not
		// come back from the store on the next boot.
		m.queuedLen--
		m.mu.Unlock()
		if m.store != nil {
			_ = m.store.Remove(j.ID)
		}
		m.metrics.JobsRejected.Add(1)
		return nil, ErrClosed
	}
	m.queue <- j
	m.jobs[j.ID] = j
	m.order = append(m.order, j.ID)
	m.mu.Unlock()
	m.metrics.JobsSubmitted.Add(1)
	j.rec.Record(obs.EvSubmitted, 0, 0, spec.Preset)
	if nonDurable {
		j.rec.Record(obs.EvStoreDegraded, 0, 0, "accepted non-durably")
	}
	j.log.Info("job submitted", "preset", spec.Preset, "ranks", spec.Ranks, "steps", spec.Steps, "tenant", tenant)
	return j, nil
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// List snapshots all jobs in submission order.
func (m *Manager) List() []JobInfo {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*Job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	infos := make([]JobInfo, 0, len(jobs))
	for _, j := range jobs {
		infos = append(infos, j.Info())
	}
	return infos
}

// dispatch drains the submission queue: one slot per stepping job,
// one goroutine per run. Unlike the old fixed worker loop, the
// goroutine is per-job, so a paused job can hand its slot back without
// giving up its (parked) run loop.
func (m *Manager) dispatch() {
	defer m.wg.Done()
	for j := range m.queue {
		<-m.slots
		m.mu.Lock()
		m.queuedLen--
		m.mu.Unlock()
		j.mu.Lock()
		j.holdsSlot = true
		j.mu.Unlock()
		m.wg.Add(1)
		go m.run(j)
	}
}

// releaseJobSlot returns the job's concurrency slot to the pool, at
// most once per grant (holdsSlot is the idempotency latch).
func (m *Manager) releaseJobSlot(j *Job) {
	j.mu.Lock()
	held := j.holdsSlot
	j.holdsSlot = false
	j.mu.Unlock()
	if held {
		m.slots <- struct{}{}
	}
}

// jobObserver routes the solver's rank-0 phase timings into the shared
// latency histograms and the job's flight recorder. It runs on the
// stepping goroutine and must stay allocation-free: histogram folds are
// atomic adds, recorder writes copy constant strings into a warm ring.
type jobObserver struct {
	m *Metrics
	j *Job
}

func (o jobObserver) ObservePhase(p obs.Phase, step int, ns int64) {
	switch p {
	case obs.PhaseStep:
		o.m.StepDuration.Observe(ns)
	case obs.PhaseCollective:
		o.m.CollectiveWait.Observe(ns)
	case obs.PhaseGather:
		o.m.FieldGather.Observe(ns)
	case obs.PhaseCheckpoint:
		// The same in-loop time CheckpointStallNs accumulates (over in
		// ckptWriter.Deliver) — histogram only here, no double count.
		o.m.CheckpointGather.Observe(ns)
	}
	// The command-word broadcast happens every step; recording each one
	// would wash every lifecycle event out of the ring, so that phase
	// stays histogram-only.
	if p != obs.PhaseCollective {
		o.j.rec.Record(obs.PhaseEventName(p), step, ns, "")
	}
}

// run executes one job to a terminal state.
func (m *Manager) run(j *Job) {
	defer m.wg.Done()
	defer m.releaseJobSlot(j)
	j.mu.Lock()
	if j.state != StateQueued { // cancelled while queued
		j.mu.Unlock()
		j.ctrl.Close()
		j.sealSnapshots()
		return
	}
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	// Deliberately not journaled: recovery re-queues queued and
	// running records identically (started_at only survives through
	// terminal records, step through checkpoints), so a running-record
	// write would buy nothing but two fsyncs on every job start.

	cfg, err := j.Spec.coreConfig()
	if err != nil {
		m.finish(j, err, false)
		return
	}
	cfg.Controller = j.ctrl
	cfg.Phases = jobObserver{m: m.metrics, j: j}
	if hook := m.stepHook; hook != nil {
		// Test-only fault seam: the hook runs on the rank-0 stepping
		// goroutine, so a panicking hook exercises the quarantine path
		// exactly like a kernel bug would.
		cfg.OnStep = func(step, total int) {
			j.step.Store(int64(step))
			hook(j.ID, step)
		}
	} else {
		cfg.OnStep = func(step, total int) { j.step.Store(int64(step)) }
	}
	cfg.OnSnapshot = func(s *core.Snapshot) {
		m.metrics.SnapshotsTotal.Add(1)
		j.rec.Record(obs.EvSnapshotPublish, s.Step, 0, "")
		if s.Diverged && !j.diverged.Swap(true) {
			// Latch once per job: the solver has blown up (non-finite
			// fields) — make it loud instead of serving NaN-grey frames
			// with a healthy-looking status.
			m.metrics.JobsDiverged.Add(1)
			j.rec.Record(obs.EvDiverged, s.Step, 0, "non-finite values in gathered fields")
			j.log.Warn("simulation diverged: non-finite values in gathered fields", "step", s.Step)
		}
		j.publishSnapshot(s)
	}
	// Demand-driven publication: the solver gathers a snapshot only
	// when some consumer registered interest since the last one, and
	// skips (counted) otherwise — an unwatched job's step loop runs
	// collective-free.
	cfg.SnapshotInterest = func() bool {
		if j.snapWant.Swap(false) {
			return true
		}
		m.metrics.SnapshotsSkipped.Add(1)
		j.rec.Record(obs.EvSnapshotSkip, j.Step(), 0, "")
		return false
	}
	// Durable checkpoints ride a per-job writer goroutine: the solver
	// loop only gathers state into the writer's recycled buffer pair;
	// encoding, CRC and the fsync+rename happen off-loop with
	// latest-wins back-pressure. The writer drains on Close, so
	// shutdown still persists the last gathered state.
	var writer *ckptWriter
	if every := m.checkpointCadence(j.Spec); every > 0 {
		cfg.CheckpointEvery = every
		writer = newCkptWriter(m.store, j.ID, m.metrics, j.rec, j.log, m.chaos, m.degrader, m.fullEvery, j.Spec.Steps)
		cfg.Checkpoint = writer
	}
	// A recovered job resumes from its journaled checkpoint, re-read
	// and decoded (one full parse, CRC included) now that the job
	// actually dispatches; the run loop validates the decoded state
	// against the domain and counts steps onward. A checkpoint that
	// stopped verifying since recovery degrades to a fresh start,
	// like any other corruption.
	j.mu.Lock()
	resumeStep := j.resumeStep
	j.mu.Unlock()
	if resumeStep > 0 {
		if st, err := m.store.CheckpointState(j.ID); err == nil {
			cfg.Restore = st
			if st.Info.Step != resumeStep {
				j.mu.Lock()
				j.resumeStep = st.Info.Step
				j.mu.Unlock()
				j.step.Store(int64(st.Info.Step))
			}
		} else {
			m.metrics.CheckpointsInvalid.Add(1)
			j.mu.Lock()
			j.resumeStep = 0
			j.mu.Unlock()
			j.step.Store(0)
		}
	}
	// A recovered job that was paused at the time of death restarts
	// parked: the solver waits in its steering loop for an explicit
	// resume. Steered iolet densities issued since submit are re-applied
	// identically on every rank before the first step.
	j.mu.Lock()
	resumePaused := j.resumePaused
	j.resumePaused = false
	steer := j.steer
	j.mu.Unlock()
	cfg.StartPaused = resumePaused
	for _, ov := range steer.Iolets {
		cfg.IoletOverrides = append(cfg.IoletOverrides, core.IoletOverride{Iolet: ov.Iolet, Density: ov.Density})
	}
	// Pre-processing: the voxelised geometry comes from the manager's
	// domain cache — built here on a miss, shared read-only with every
	// other job of the same (preset, scale, h) on a hit.
	preStart := time.Now()
	var hit bool
	cfg.Domain, hit, err = m.domains.get(j.Spec.domainKey(), func() (*geometry.Domain, error) {
		return geometry.Voxelise(cfg.Vessel, cfg.H, lattice.D3Q19())
	})
	voxelise := time.Since(preStart)
	var sim *core.Simulation
	if err == nil {
		sim, err = core.New(cfg)
	}
	if err != nil {
		if writer != nil {
			writer.Close()
		}
		m.finish(j, err, false)
		return
	}
	pre := time.Since(preStart)
	m.metrics.Preprocess.Observe(pre.Nanoseconds())
	j.mu.Lock()
	j.numSites = sim.Dom.NumSites()
	resumeStep = j.resumeStep
	j.mu.Unlock()
	detail, plan := "cache=miss", "miss"
	if hit {
		detail = "cache=hit"
	}
	if sim.PlanHit {
		plan = "hit"
		m.metrics.SolverPlanHits.Add(1)
	} else {
		m.metrics.SolverPlanMiss.Add(1)
	}
	detail += fmt.Sprintf(" voxelise_ms=%.3f plan=%s plan_ms=%.3f participants=%d",
		float64(voxelise.Nanoseconds())/1e6, plan, float64(sim.PlanTime.Nanoseconds())/1e6, sim.Participants)
	if resumeStep > 0 {
		detail += "; resumed from checkpoint"
	}
	j.rec.Record(obs.EvDispatched, resumeStep, pre.Nanoseconds(), detail)
	j.log.Info("job dispatched", "sites", sim.Dom.NumSites(), "resume_step", resumeStep,
		"resume_paused", resumePaused, "domain_cache_hit", hit, "preprocess", pre)
	if resumePaused {
		// The run goroutine is about to park in the solver's pause loop;
		// hand the concurrency slot back so queued work is not starved by
		// jobs nobody has resumed yet, and surface the state as paused.
		j.mu.Lock()
		if j.state == StateRunning {
			j.state = StatePaused
		}
		j.mu.Unlock()
		j.rec.Record(obs.EvPause, resumeStep, 0, "recovered paused")
		m.releaseJobSlot(j)
		m.persistStateAsync(j)
	}
	// The recover wrapper turns a panicking solver — a rank goroutine
	// (surfaced by par.Runtime as a RankPanic), a bad restore — into a
	// failed job instead of a dead daemon: the panic
	// value and stack go to the log and flight recorder, siblings keep
	// stepping, and the HTTP plane never notices.
	runErr := guard.Capture("solver run", func() error {
		return sim.Run(j.Spec.Steps)
	})
	var pe *guard.PanicError
	if errors.As(runErr, &pe) {
		m.metrics.JobsPanicked.Add(1)
		j.rec.Record(obs.EvPanic, j.Step(), 0, fmt.Sprint(pe.Value))
		j.log.Error("solver panicked; job quarantined",
			"step", j.Step(), "panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
	}
	if writer != nil {
		// A job headed for re-queue (shutdown drain) flushes its last
		// gathered state to disk before the run is declared over —
		// graceful shutdowns resume exactly like the old synchronous
		// writes did. A job reaching a true terminal state discards
		// its pending write instead: terminal checkpoints are never
		// read again, so the fsync would be pure tail latency.
		j.mu.Lock()
		requeue := j.quit == quitShutdown
		j.mu.Unlock()
		if requeue {
			writer.Close()
		} else {
			writer.CloseDiscard()
		}
	}
	m.finish(j, runErr, sim.StepsDone >= j.Spec.Steps)
}

// finish moves a job to its terminal state, closes its controller so
// late Do calls fail instead of blocking forever, and wakes stream
// subscribers for their end-of-stream check. A run that executed every
// requested step counts as done even when a cancel raced its
// completion — the work happened.
func (m *Manager) finish(j *Job, runErr error, completed bool) {
	j.ctrl.Close()
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case runErr != nil:
		j.state = StateFailed
		j.errMsg = runErr.Error()
		m.metrics.JobsFailed.Add(1)
	case j.quit != quitNone && !completed:
		j.state = StateCancelled
		m.metrics.JobsCancelled.Add(1)
	default:
		j.state = StateDone
		m.metrics.JobsDone.Add(1)
	}
	detail := string(j.state)
	if j.errMsg != "" {
		detail += ": " + j.errMsg
	}
	finalStep := int(j.step.Load())
	// A cancel that Close issued while draining is an interruption,
	// not an outcome: leaving the store's record at running/paused is
	// exactly what re-queues the job on the next boot.
	skipJournal := j.drainCancelled()
	j.mu.Unlock()
	j.rec.Record(obs.EvTerminal, finalStep, 0, detail)
	if runErr != nil {
		j.log.Error("job failed", "step", finalStep, "err", runErr)
	} else {
		j.log.Info("job finished", "state", detail, "step", finalStep)
	}
	if !skipJournal {
		// The terminal record is written without the worker waiting out
		// an fsync: losing it to a crash equals crashing a moment
		// earlier (the job re-runs), which recovery already handles,
		// and the worker slot frees immediately.
		m.persistStateNoWait(j)
	}
	// Seal after the terminal state is visible: a subscriber woken by
	// the seal must observe Terminal() and end its stream.
	j.sealSnapshots()
	// The job left the active set; return its admission-quota slot.
	m.tenants.release(j.tenant)
}

// watchdog periodically sweeps running jobs for step progress: a job
// whose step counter has not moved across a full window takes a strike
// (event, metric, log line). It only flags: a stalled solver does not
// poll steering, so no quit could reach it before the stall ends, and
// a paused job is not expected to step and is not watched.
func (m *Manager) watchdog() {
	defer m.wg.Done()
	t := time.NewTicker(m.wdStall)
	defer t.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-t.C:
		}
		m.mu.Lock()
		jobs := make([]*Job, 0, len(m.jobs))
		for _, id := range m.order {
			jobs = append(jobs, m.jobs[id])
		}
		m.mu.Unlock()
		for _, j := range jobs {
			cur := j.step.Load()
			j.mu.Lock()
			if j.state != StateRunning {
				// Paused, queued and terminal jobs are not expected to
				// step; re-prime so the next running window starts fresh.
				j.wdSeen = false
				j.wdStrikes = 0
				j.mu.Unlock()
				continue
			}
			if !j.wdSeen || cur != j.wdLastStep {
				j.wdSeen = true
				j.wdLastStep = cur
				j.wdStrikes = 0
				j.mu.Unlock()
				continue
			}
			j.wdStrikes++
			strikes := j.wdStrikes
			j.mu.Unlock()
			m.metrics.WatchdogStalls.Add(1)
			j.rec.Record(obs.EvWatchdogStall, int(cur), 0, fmt.Sprintf("strike %d", strikes))
			j.log.Warn("watchdog: no step progress", "step", cur, "strike", strikes)
		}
	}
}

// gcLoop periodically prunes terminal jobs beyond the retention policy
// (count cap, age cap) from both the job table and the store.
func (m *Manager) gcLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.gcInterval)
	defer t.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-t.C:
		}
		m.gcTerminal()
	}
}

// gcTerminal applies the retention policy once: terminal jobs older
// than retainAge go, then the oldest-finished beyond retainMax.
func (m *Manager) gcTerminal() {
	type doneJob struct {
		j        *Job
		finished time.Time
	}
	m.mu.Lock()
	var terminal []doneJob
	for _, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		if j.state.Terminal() && !j.drainCancelled() {
			terminal = append(terminal, doneJob{j, j.finished})
		}
		j.mu.Unlock()
	}
	m.mu.Unlock()
	sort.Slice(terminal, func(a, b int) bool {
		return terminal[a].finished.Before(terminal[b].finished)
	})
	var victims []*Job
	if m.retainAge > 0 {
		cutoff := time.Now().Add(-m.retainAge)
		for _, d := range terminal {
			if d.finished.Before(cutoff) {
				victims = append(victims, d.j)
			}
		}
	}
	if m.retainMax > 0 && len(terminal)-len(victims) > m.retainMax {
		// victims is a prefix of terminal (both oldest-first), so extend
		// it until the survivors fit the cap.
		for _, d := range terminal[len(victims):] {
			if len(terminal)-len(victims) <= m.retainMax {
				break
			}
			victims = append(victims, d.j)
		}
	}
	for _, j := range victims {
		if err := m.store.Remove(j.ID); err != nil {
			m.metrics.StoreErrors.Add(1)
			j.log.Warn("retention sweep: removing job failed", "err", err)
			continue
		}
		m.mu.Lock()
		delete(m.jobs, j.ID)
		for i, id := range m.order {
			if id == j.ID {
				m.order = append(m.order[:i], m.order[i+1:]...)
				break
			}
		}
		m.mu.Unlock()
		m.metrics.JobsGCed.Add(1)
		j.log.Info("retention sweep removed terminal job")
	}
}

// do round-trips a steering op against a live job.
func (m *Manager) do(j *Job, msg steering.ClientMsg) (steering.ServerMsg, error) {
	st := j.State()
	if st == StateQueued {
		return steering.ServerMsg{}, ErrNotRunning
	}
	if st.Terminal() {
		return steering.ServerMsg{}, ErrFinished
	}
	return j.ctrl.Do(msg)
}

// Pause suspends time stepping and hands the job's concurrency slot
// back to the pool: the run goroutine parks in the controller's
// PollWait while another queued job takes the slot. The job keeps
// servicing steering.
func (m *Manager) Pause(j *Job) error {
	j.lifecycle.Lock()
	defer j.lifecycle.Unlock()
	if _, err := m.do(j, steering.ClientMsg{Op: steering.OpPause}); err != nil {
		return err
	}
	freeSlot := false
	j.mu.Lock()
	if j.state == StateRunning {
		j.state = StatePaused
	}
	freeSlot = j.state == StatePaused
	j.mu.Unlock()
	if freeSlot {
		m.releaseJobSlot(j)
		m.persistStateAsync(j)
		j.rec.Record(obs.EvPause, j.Step(), 0, "")
		j.log.Info("job paused", "step", j.Step())
	}
	return nil
}

// Resume continues a paused job, re-admitting it through the slot
// pool: with every slot busy, Resume blocks until one frees — paused
// time is queue time, not stolen concurrency. The wait aborts when ctx
// ends (client gone, server draining), so a full pool cannot strand
// handler goroutines.
func (m *Manager) Resume(ctx context.Context, j *Job) error {
	j.lifecycle.Lock()
	defer j.lifecycle.Unlock()
	j.mu.Lock()
	needSlot := j.state == StatePaused && !j.holdsSlot
	j.mu.Unlock()
	if needSlot {
		select {
		case <-m.slots:
		case <-ctx.Done():
			return fmt.Errorf("%w: gave up waiting for a worker slot", ErrResumeAborted)
		}
	}
	_, err := m.do(j, steering.ClientMsg{Op: steering.OpResume})
	granted := false
	resumed := false
	j.mu.Lock()
	if err == nil && j.state == StatePaused {
		j.state = StateRunning
		resumed = true
	}
	if needSlot && err == nil && j.state == StateRunning && !j.holdsSlot {
		j.holdsSlot = true
		granted = true
	}
	j.mu.Unlock()
	if needSlot && !granted {
		m.slots <- struct{}{}
	}
	if resumed {
		m.persistStateAsync(j)
		j.rec.Record(obs.EvResume, j.Step(), 0, "")
		j.log.Info("job resumed", "step", j.Step())
	}
	return err
}

// Cancel terminates a job in any non-terminal state. This is the
// user-facing path: the cancelled outcome is journaled, overriding a
// concurrent shutdown's intent to keep the job resumable — once the
// caller is told "cancelled", the job must not resurrect.
func (m *Manager) Cancel(j *Job) error { return m.cancel(j, quitUser) }

// cancel records why the job is quitting — a user's reason replaces a
// drain's, never the reverse — and stops it.
func (m *Manager) cancel(j *Job, why quitReason) error {
	j.mu.Lock()
	j.quit = max(j.quit, why)
	switch {
	case j.state.Terminal():
		j.mu.Unlock()
		return ErrFinished
	case j.state == StateQueued:
		// The dispatcher will observe the state and skip the run.
		j.state = StateCancelled
		j.finished = time.Now()
		// Same rule as finish: a shutdown-induced cancel keeps the
		// store's queued record so the job comes back on reboot.
		skipJournal := j.drainCancelled()
		j.mu.Unlock()
		m.metrics.JobsCancelled.Add(1)
		j.rec.Record(obs.EvTerminal, 0, 0, "cancelled while queued")
		j.log.Info("job cancelled while queued")
		if !skipJournal {
			m.persistState(j)
		}
		j.ctrl.Close()
		j.sealSnapshots()
		m.tenants.release(j.tenant)
		return nil
	default:
		j.mu.Unlock()
		// Quit rides the normal steering path; "controller closed"
		// just means the job beat us to a terminal state.
		if _, err := j.ctrl.Do(steering.ClientMsg{Op: steering.OpQuit}); err != nil && !j.State().Terminal() {
			return err
		}
		return nil
	}
}

// Steer applies a set-iolet parameter change to a live job over its
// controller. Applied commands are mirrored into the job's persisted
// steering record, so a daemon restart re-applies the operator's
// boundary tweaks instead of quietly losing them.
func (m *Manager) Steer(j *Job, msg steering.ClientMsg) error {
	if msg.Op != steering.OpSetIolet {
		return fmt.Errorf("service: steer accepts %s, got %q", steering.OpSetIolet, msg.Op)
	}
	m.metrics.SteerOps.Add(1)
	_, err := m.do(j, msg)
	if err != nil {
		return err
	}
	j.mu.Lock()
	// Latest density wins per iolet index.
	updated := false
	for i := range j.steer.Iolets {
		if j.steer.Iolets[i].Iolet == msg.Iolet {
			j.steer.Iolets[i].Density = msg.Density
			updated = true
			break
		}
	}
	if !updated {
		j.steer.Iolets = append(j.steer.Iolets, store.IoletOver{Iolet: msg.Iolet, Density: msg.Density})
	}
	j.mu.Unlock()
	m.persistStateAsync(j)
	return nil
}

// Status fetches the live steering status report of a running job.
func (m *Manager) Status(j *Job) (*steering.Status, error) {
	rep, err := m.do(j, steering.ClientMsg{Op: steering.OpStatus})
	if err != nil {
		return nil, err
	}
	if rep.Status == nil {
		return nil, fmt.Errorf("%w: empty status reply", ErrInternal)
	}
	return rep.Status, nil
}

// Data fetches the §V reduced octree representation for an ROI from
// the job's latest snapshot through the octree lru — no solver-loop
// collective, and the data plane keeps working while paused and after
// termination. The reply is encoded as it is written, so a query holds
// no buffer of its size.
func (m *Manager) Data(j *Job, roiMin, roiMax [3]float64, detail, context int) (octree.Reply, error) {
	m.metrics.DataRequests.Add(1)
	if j.State() == StateQueued {
		return octree.Reply{}, ErrNotRunning
	}
	snap, err := m.freshSnapshot(j)
	if err != nil {
		return octree.Reply{}, err
	}
	tree, _, err := m.octrees.get(snap.Seq, snap.Octree)
	if err != nil {
		return octree.Reply{}, err
	}
	return core.ReducedReply(tree, snap.Field.Dom.Dims.F(),
		vec.New(roiMin[0], roiMin[1], roiMin[2]),
		vec.New(roiMax[0], roiMax[1], roiMax[2]), detail, context)
}

// Frame produces the current frame for a request. Pollers drive
// publication: the request registers demand and waits for a
// ≤one-cadence-fresh snapshot — idle jobs publish nothing between
// requests — and the frame is rendered from it on the request's
// goroutine, outside the solver loop, which is why it also works while
// paused and after termination.
func (m *Manager) Frame(j *Job, req insitu.Request) ([]byte, int, int, error) {
	if j.State() == StateQueued {
		return nil, 0, 0, ErrNotRunning
	}
	snap, err := m.freshSnapshot(j)
	if err != nil {
		return nil, 0, 0, err
	}
	return m.frameFromSnapshot(snap, req)
}

// frameFromSnapshot renders one (snapshot, view) through the frame lru:
// every consumer of that snapshot and view — pollers and stream
// subscribers alike — shares exactly one render, executed off the
// solver loop on the goroutine of the request that missed. Frame serves
// the freshest snapshot through it; a stream, each snapshot it follows.
func (m *Manager) frameFromSnapshot(snap *core.Snapshot, req insitu.Request) ([]byte, int, int, error) {
	f, _, err := m.frames.get(frameKey{snap.Seq, viewKey(req)}, func() (frame, error) {
		m.metrics.RendersTotal.Add(1)
		return m.render(snap, req)
	})
	return f.png, f.w, f.h, err
}

// render casts and encodes one frame on a set of frame buffers, waiting
// for a set when Workers renders are already running. A panicking
// renderer (degenerate view, snapshot-shape bug) fails that one frame
// with ErrInternal; guard's runner brings a panic on any participant
// in the frame's row parcels back to this goroutine, and the set goes
// back either way.
func (m *Manager) render(snap *core.Snapshot, req insitu.Request) (f frame, err error) {
	start := time.Now()
	m.metrics.RenderQueueDepth.Add(1)
	defer m.metrics.RenderQueueDepth.Add(-1)
	bufs := <-m.frameBufs
	defer func() { m.frameBufs <- bufs }()
	err = guard.Capture("render", func() (err error) {
		f.png, f.w, f.h, err = bufs.FramePNG(snap.Field, req)
		return err
	})
	if err != nil {
		var pe *guard.PanicError
		if errors.As(err, &pe) {
			err = fmt.Errorf("%w: render panicked: %v", ErrInternal, pe.Value)
		}
		return frame{}, err
	}
	m.metrics.RenderLatency.Observe(time.Since(start).Nanoseconds())
	return f, nil
}

// Close stops accepting jobs, cancels everything in flight, waits for
// the runs — the graceful-shutdown path.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	m.log.Info("manager draining", "jobs", len(m.jobs))
	jobs := make([]*Job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	close(m.queue)
	m.mu.Unlock()
	for _, j := range jobs {
		if j.State().Terminal() {
			continue
		}
		// A shutdown-induced cancel keeps the job's interrupted
		// (running/paused/queued) record in the store, so the next boot
		// resumes it from its latest checkpoint. A cancel requested by a
		// user — before Close or racing the drain — outranks it and
		// journals its terminal state.
		_ = m.cancel(j, quitShutdown)
	}
	close(m.done)
	m.wg.Wait()
	if m.degrader != nil {
		m.degrader.Close()
	}
	if m.store != nil {
		// After every run (and its journal writes) has finished: flush
		// the no-wait records and close the log. Acknowledged records are
		// durable; the log replays at the next boot.
		m.store.CloseJournal()
	}
}
