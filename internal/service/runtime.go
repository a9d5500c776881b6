package service

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/obs"
	"repro/internal/service/store"
	"repro/internal/steering"
)

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

// run executes one dispatched job to a terminal state.
func (m *Manager) run(j *Job) {
	defer m.wg.Done()
	cfg, err := j.Spec.coreConfig()
	if err != nil {
		m.finish(j, err, false)
		return
	}
	cfg.Controller = j.ctrl
	cfg.Phases = jobObserver{m: m.metrics, j: j}
	hook := m.opts.StepHook // test-only: a panicking hook is quarantined like a kernel bug
	cfg.OnStep = func(step, total int) {
		j.step.Store(int64(step))
		if hook != nil {
			hook(j.ID, step)
		}
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
		writer = newCkptWriter(m.store, j.ID, m.metrics, j.rec, j.log, m.opts.ChaosHook, m.degrader, m.opts.CheckpointFullEvery, j.Spec.Steps)
		cfg.Checkpoint = writer
	}
	// A recovered job resumes from its journaled checkpoint, re-read
	// and decoded (one full parse, CRC included) now that the job
	// actually dispatches; the run loop validates the decoded state
	// against the domain and counts steps onward. A checkpoint that
	// stopped verifying since recovery degrades to a fresh start,
	// like any other corruption. A recovered job that was paused at the
	// time of death restarts parked: the solver waits in its steering
	// loop for an explicit resume. Steered iolet densities issued since
	// submit are re-applied identically on every rank before the first
	// step.
	j.mu.Lock()
	resumeStep, resumePaused, steer := j.resumeStep, j.resumePaused, j.steer
	j.mu.Unlock()
	if resumeStep > 0 {
		resumeStep = 0
		if st, err := m.store.CheckpointState(j.ID); err == nil {
			cfg.Restore, resumeStep = st, st.Info.Step
		} else {
			m.metrics.CheckpointsInvalid.Add(1)
		}
		j.mu.Lock()
		j.resumeStep = resumeStep
		j.mu.Unlock()
		j.step.Store(int64(resumeStep))
	}
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
		// About to park in the solver's pause loop: a pause, so queued
		// work is not starved by jobs nobody has resumed yet.
		_, _ = m.transition(j, evPause, "recovered paused")
	}
	// The recover wrapper turns a panicking solver — a rank goroutine
	// (surfaced by par.Runtime as a RankPanic), a bad restore — into a
	// failed job instead of a dead daemon: the panic value and stack go
	// to the log and flight recorder, siblings keep stepping.
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

// finish applies the run's outcome. A run that executed every
// requested step counts as done even when a cancel raced its
// completion — the work happened.
func (m *Manager) finish(j *Job, runErr error, completed bool) {
	switch {
	case runErr != nil:
		_, _ = m.transition(j, evFinishError, runErr.Error())
	case !completed:
		_, _ = m.transition(j, evFinishQuit, "")
	default:
		_, _ = m.transition(j, evFinishOK, "")
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
// servicing steering. Pausing a paused job does nothing.
func (m *Manager) Pause(j *Job) error {
	j.lifecycle.Lock()
	defer j.lifecycle.Unlock()
	if _, eff, err := next(j.State(), evPause); err != nil || eff == (effects{}) {
		return err
	}
	if _, err := j.ctrl.Do(steering.ClientMsg{Op: steering.OpPause}); err != nil {
		return err
	}
	// The solver took the pause; a run that ended since has nothing
	// left to pause, and the pause still stands answered.
	if _, err := m.transition(j, evPause, ""); !errors.Is(err, ErrFinished) {
		return err
	}
	return nil
}

// Resume continues a paused job, re-admitting it through the slot
// pool: with every slot busy, Resume blocks until one frees — paused
// time is queue time, not stolen concurrency. The wait aborts when ctx
// ends (client gone, server draining), so a full pool cannot strand
// handler goroutines. Resuming a running job does nothing. A job
// recovered paused that has dispatched but not yet parked answers
// ErrNotRunning: its park would undo the resume, so the client retries.
func (m *Manager) Resume(ctx context.Context, j *Job) error {
	j.lifecycle.Lock()
	defer j.lifecycle.Unlock()
	j.mu.Lock()
	from, parking := j.state, j.resumePaused
	j.mu.Unlock()
	to, _, err := next(from, evResume)
	if err == nil && parking {
		err = ErrNotRunning
	}
	if err != nil || to == from {
		return err
	}
	select {
	case <-m.slots:
	case <-ctx.Done():
		return fmt.Errorf("%w: gave up waiting for a worker slot", ErrResumeAborted)
	}
	var eff effects
	_, err = j.ctrl.Do(steering.ClientMsg{Op: steering.OpResume})
	if err == nil {
		eff, err = m.transition(j, evResume, "")
		if errors.Is(err, ErrFinished) {
			err = nil // the solver resumed, then the run ended
		}
	}
	if eff == (effects{}) { // the job did not move: the slot is not its
		m.slots <- struct{}{}
	}
	return err
}

// Cancel terminates a job in any non-terminal state. This is the
// user-facing path: the cancelled outcome is journaled, overriding a
// concurrent shutdown's intent to keep the job resumable — once the
// caller is told "cancelled", the job must not resurrect.
func (m *Manager) Cancel(j *Job) error {
	_, err := m.transition(j, evCancel, "")
	return err
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
	j.journalMu.Lock()
	defer j.journalMu.Unlock()
	j.mu.Lock()
	// Latest density wins per iolet index.
	if i := slices.IndexFunc(j.steer.Iolets, func(ov store.IoletOver) bool { return ov.Iolet == msg.Iolet }); i >= 0 {
		j.steer.Iolets[i].Density = msg.Density
	} else {
		j.steer.Iolets = append(j.steer.Iolets, store.IoletOver{Iolet: msg.Iolet, Density: msg.Density})
	}
	// Journal the override before replying, unless the job has ended:
	// its terminal transition wrote (or, drained, kept out) the last
	// record.
	ended, rec := j.state.Terminal(), j.recordLocked()
	j.mu.Unlock()
	if !ended {
		m.appendState(j, rec, journalNoWait)
	}
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
