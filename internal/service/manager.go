package service

import (
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geometry"
	"repro/internal/guard"
	"repro/internal/insitu"
	"repro/internal/obs"
	"repro/internal/octree"
	"repro/internal/service/store"
	"repro/internal/steering"
)

// JobState is the lifecycle of one managed simulation; next
// (lifecycle.go) is its transition table.
type JobState string

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
	// lifecycle serialises Pause/Resume per job: each one's controller
	// round trip and transition must not interleave with the other's.
	lifecycle sync.Mutex
	// Durability bookkeeping: recovered marks a job loaded from the
	// store after a restart, restarts counts the interruptions that
	// re-queued it, resumeStep is the checkpoint step the latest run
	// resumed from (0 = a fresh start).
	recovered  bool
	restarts   int
	resumeStep int
	// tenant is the admission-control account the job is charged to
	// (AnonymousTenant when submitted without a key); constant.
	tenant string
	// resumePaused marks a recovered job that was paused when the
	// previous daemon died: its run starts parked (core StartPaused)
	// and pauses, and until then its record stays paused.
	resumePaused bool
	// steer mirrors the set-iolet overrides applied so far; journaled,
	// and re-applied at dispatch.
	steer store.SteerRecord
	// Watchdog bookkeeping: wdSeen primes the first observation after
	// dispatch, wdLastStep is the step at the last tick, wdStrikes
	// counts consecutive no-progress windows.
	wdSeen     bool
	wdLastStep int64
	wdStrikes  int
	// journalMu serialises this job's transitions and journal writes,
	// so records land in the order of the states they carry: a stale
	// non-terminal record never lands over the terminal one (which
	// would resurrect a completed job on the next boot).
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
	// opts is the configuration, defaults applied. Recovery may queue a
	// larger backlog than QueueCap, but new submissions are judged
	// against it, so a restart never loosens the operator's
	// backpressure setting.
	opts    Options
	metrics *Metrics
	log     *slog.Logger
	// store is the durability layer (nil = in-memory only).
	store *store.Store
	// kick wakes the dispatcher when a job is queued (capacity 1).
	kick chan struct{}
	// slots is the semaphore of *running* jobs: dispatch and resume
	// take a token, leaving running gives it back, so a paused job
	// costs a parked goroutine, not a slot.
	slots chan struct{}
	// frameBufs holds one set of frame buffers per Workers: a frame
	// that missed the cache takes a set, renders on its own goroutine
	// and gives the set back, so the channel bounds concurrent renders
	// and each set's image, scalar table and PNG state are reused.
	frameBufs chan *insitu.FrameBuffers
	// framePNG casts and encodes a frame on a set of frame buffers:
	// (*insitu.FrameBuffers).FramePNG, which a test wraps to make a
	// render panic on purpose.
	framePNG func(*insitu.FrameBuffers, *field.Field, insitu.Request) ([]byte, int, int, error)
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
	// when unset).
	degrader *guard.Degrader
	tenants  *tenants
	memWM    *guard.MemWatermark
	// done stops the dispatcher, watchdog and retention goroutines at
	// Close.
	done chan struct{}

	mu     sync.Mutex
	jobs   map[string]*Job
	order  []*Job // submission order
	nextID int64
	closed bool
	// queue holds the queued jobs in dispatch order; queuedLen counts
	// them plus the submissions holding a place while they journal.
	queue     []*Job
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
		opts:      o,
		metrics:   o.Metrics,
		log:       o.Logger,
		store:     o.Store,
		slots:     make(chan struct{}, o.Workers),
		frameBufs: make(chan *insitu.FrameBuffers, o.Workers),
		framePNG:  (*insitu.FrameBuffers).FramePNG,
		frames: newLRU[frameKey](frameEntries, func(frame) int { return 1 },
			&o.Metrics.frameHits, &o.Metrics.frameMiss, &o.Metrics.frameEvict),
		domains: newLRU[domainKey](siteBudget, func(d *geometry.Domain) int { return d.NumSites() },
			&o.Metrics.DomainCacheHits, &o.Metrics.DomainCacheMiss, nil),
		octrees: newLRU[uint64](siteBudget, func(t *octree.Tree) int { return t.NodeCount(0) }, nil, nil, nil),
		jobs:    make(map[string]*Job),
		tenants: newTenants(o.AuthKeys, o.TenantDefaults),
		memWM:   guard.NewMemWatermark(uint64(max(o.MemLimit, 0))),
		kick:    make(chan struct{}, 1),
		done:    make(chan struct{}),
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
		// Recovery runs before the dispatcher exists, so the re-queued
		// backlog prefills the queue without racing anything (and a
		// restart never drops jobs to queue-full).
		m.queue = m.recoverFromStore()
		m.queuedLen = len(m.queue)
	}
	for i := 0; i < o.Workers; i++ {
		m.slots <- struct{}{}
		m.frameBufs <- new(insitu.FrameBuffers)
	}
	m.wg.Add(1)
	go m.dispatch()
	if m.opts.WatchdogStall > 0 {
		m.wg.Add(1)
		go m.every(m.opts.WatchdogStall, m.watchdog)
	}
	if m.store != nil && (m.opts.StoreRetain > 0 || m.opts.StoreRetainAge > 0) {
		// Terminal jobs beyond the retention policy leave the job table
		// and the store.
		m.wg.Add(1)
		go m.every(m.opts.GCInterval, m.gcTerminal)
	}
	return m
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
	var infos []JobInfo
	for _, j := range m.jobsInOrder() {
		infos = append(infos, j.Info())
	}
	return infos
}

// jobsInOrder returns the jobs in submission order.
func (m *Manager) jobsInOrder() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Job(nil), m.order...)
}

// Close stops accepting jobs, drains everything in flight and waits for
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
	m.mu.Unlock()
	for _, j := range m.jobsInOrder() {
		// The drain keeps the job's interrupted (running/paused/queued)
		// record in the store, so the next boot resumes it from its
		// latest checkpoint. A cancel requested by a user — before Close
		// or racing the drain — outranks it and journals its terminal
		// state.
		_, _ = m.transition(j, evDrain, "")
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
