package service

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/obs"
)

// every runs f every d until Close.
func (m *Manager) every(d time.Duration, f func()) {
	defer m.wg.Done()
	t := time.NewTicker(d)
	defer t.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-t.C:
			f()
		}
	}
}

// watchdog sweeps running jobs for step progress: a job whose step
// counter has not moved across a full window takes a strike (event,
// metric, log line). It only flags: a stalled solver does not poll
// steering, so no quit could reach it before the stall ends, and a
// paused job is not expected to step and is not watched.
func (m *Manager) watchdog() {
	for _, j := range m.jobsInOrder() {
		cur := j.step.Load()
		j.mu.Lock()
		// A job that is not running re-primes, so its next running
		// window starts fresh.
		running := j.state == StateRunning
		if !running || !j.wdSeen || cur != j.wdLastStep {
			j.wdSeen, j.wdLastStep, j.wdStrikes = running, cur, 0
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

// gcTerminal applies the retention policy once: terminal jobs older
// than retainAge go, then the oldest-finished beyond retainMax.
func (m *Manager) gcTerminal() {
	type doneJob struct {
		j        *Job
		finished time.Time
	}
	var terminal []doneJob
	for _, j := range m.jobsInOrder() {
		j.mu.Lock()
		if j.state.Terminal() && !j.drainCancelled() {
			terminal = append(terminal, doneJob{j, j.finished})
		}
		j.mu.Unlock()
	}
	sort.Slice(terminal, func(a, b int) bool {
		return terminal[a].finished.Before(terminal[b].finished)
	})
	// Oldest first, so the victims are a prefix: every job past the age
	// cap, then as many more as the count cap needs.
	cutoff := time.Now().Add(-m.opts.StoreRetainAge)
	for i, d := range terminal {
		old := m.opts.StoreRetainAge > 0 && d.finished.Before(cutoff)
		if !old && (m.opts.StoreRetain <= 0 || len(terminal)-i <= m.opts.StoreRetain) {
			break
		}
		if err := m.store.Remove(d.j.ID); err != nil {
			m.metrics.StoreErrors.Add(1)
			d.j.log.Warn("retention sweep: removing job failed", "err", err)
			continue
		}
		m.mu.Lock()
		delete(m.jobs, d.j.ID)
		m.order = slices.DeleteFunc(m.order, func(q *Job) bool { return q == d.j })
		m.mu.Unlock()
		m.metrics.JobsGCed.Add(1)
		d.j.log.Info("retention sweep removed terminal job")
	}
}
