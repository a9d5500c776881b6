package service

import (
	"encoding/json"
	"errors"
	"io/fs"
	"strconv"
	"strings"

	"repro/internal/obs"
	"repro/internal/service/store"
)

// ChaosHook observes named crash points on the durable-job path. The
// chaos harness (internal/chaos) installs one that cuts power at a
// chosen (point, occurrence) pair; production managers leave it nil.
// It runs on whatever goroutine hits the point, so implementations
// must be safe for concurrent use.
type ChaosHook func(point, jobID string)

// Named crash points a ChaosHook can observe.
const (
	// ChaosJournalAppend fires immediately before a spec or lifecycle
	// record is journaled.
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
	jobs := m.jobsInOrder()
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
		if rest, ok := strings.CutPrefix(id, "job-"); ok {
			if n, err := strconv.ParseInt(rest, 10, 64); err == nil && n > m.nextID {
				m.nextID = n
			}
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
		j := m.newJob(id, spec.withDefaults(), rec.Tenant, rec.CreatedAt)
		j.recovered, j.restarts = true, rec.Restarts
		if rec.Steer != nil {
			j.steer = *rec.Steer
		}
		if ev, ok := recoverEvents[JobState(rec.State)]; ok {
			j.step.Store(int64(rec.Step))
			j.errMsg = rec.Error
			j.started = rec.StartedAt
			j.finished = rec.FinishedAt
			_, _ = m.transition(j, ev, rec.State)
		} else {
			j.restarts++
			// A job that was paused when the daemon died comes back
			// paused: its re-run starts parked and waits for an explicit
			// resume, instead of silently burning its remaining steps.
			j.resumePaused = rec.Paused || rec.State == string(StatePaused)
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
			// Journal the re-queued record (restart count, queued state)
			// so a crash during recovery itself still counts the attempt;
			// re-queued work still occupies its tenant's quota.
			_, _ = m.transition(j, evRecoverInterrupted, rec.State)
			m.metrics.JobRestarts.Add(1)
			pending = append(pending, j)
		}
		m.jobs[id] = j
		m.order = append(m.order, j)
		m.metrics.JobsRecovered.Add(1)
	}
	return pending
}

// chaosPoint fires the chaos hook (nil-safe).
func (m *Manager) chaosPoint(point, jobID string) {
	if m.opts.ChaosHook != nil {
		m.opts.ChaosHook(point, jobID)
	}
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
		// A recovered paused job waiting for its park is still paused.
		Paused: j.state == StatePaused || j.resumePaused && !j.state.Terminal(),
	}
	if len(j.steer.Iolets) > 0 {
		rec.Steer = &store.SteerRecord{Iolets: append([]store.IoletOver(nil), j.steer.Iolets...)}
	}
	return rec
}

// appendState journals rec, j's lifecycle record, in the given mode.
// Best-effort: a failed write is counted, not fatal — the run itself
// must not die because the disk hiccuped. The caller holds j.journalMu,
// so records land in the order they were built.
func (m *Manager) appendState(j *Job, rec store.JobRecord, mode journalMode) {
	if m.store == nil || mode == journalNone {
		return
	}
	append := m.store.AppendState
	if mode == journalNoWait {
		append = m.store.AppendStateNoWait
	}
	_, _ = m.journal(j, func() error { return append(j.ID, rec) })
}

// journal runs one journal write for j under the disk-pressure policy.
// While degraded the write is skipped (suppressed): the job's record
// is re-journaled wholesale when the probe restores the disk
// (rejournalAll), so only crash-durability during the episode is lost
// — which the disk couldn't provide anyway. A failed write reaches the
// degrader; one that trips degraded mode counts as suppressed, any
// other failure is returned.
func (m *Manager) journal(j *Job, write func() error) (suppressed bool, err error) {
	if m.degrader.Degraded() {
		m.metrics.StoreWritesSuppressed.Add(1)
		return true, nil
	}
	m.chaosPoint(ChaosJournalAppend, j.ID)
	if err = write(); err == nil {
		m.degrader.WriteOK()
		return false, nil
	}
	m.metrics.StoreErrors.Add(1)
	j.log.Warn("journal write failed", "err", err)
	if m.degrader.WriteFailed(err) {
		m.metrics.StoreWritesSuppressed.Add(1)
		return true, nil
	}
	return false, err
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
	return m.opts.CheckpointEvery
}
