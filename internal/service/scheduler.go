package service

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/lb"
	"repro/internal/obs"
	"repro/internal/steering"
)

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
		// (or the last finished job's populations) would work against
		// each other.
		m.domains.purge()
		lb.DropSpare()
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
	if m.queuedLen >= m.opts.QueueCap {
		m.mu.Unlock()
		m.metrics.SubmitsShed.Add(1)
		m.metrics.JobsRejected.Add(1)
		return nil, ErrQueueFull
	}
	m.nextID++
	j := m.newJob(fmt.Sprintf("job-%04d", m.nextID), spec, tenant, time.Now())
	// Reserve the queue place, then journal outside the lock: the
	// fsync-backed writes must not stall every other API call behind
	// m.mu. A failed journal releases it (the burned job ID just leaves
	// a harmless numbering gap).
	m.queuedLen++
	m.mu.Unlock()
	_, _ = m.transition(j, evSubmit, spec.Preset)
	// Journal before accepting: once Submit returns 201, the job must
	// survive a crash, so a spec that cannot be journaled is rejected.
	// Spec and initial state go as one atomic record; concurrent
	// submits share a journal fsync. Under disk-pressure degradation
	// the job is accepted non-durably instead (and re-journaled when
	// the probe restores the disk) — availability over durability, by
	// design.
	var nonDurable bool
	var err error
	if m.store != nil {
		nonDurable, err = m.journal(j, func() error { return m.store.AppendSubmit(j.ID, j.Spec, j.recordLocked()) })
		if err != nil {
			err = fmt.Errorf("%w: journal submit: %v", ErrInternal, err)
		}
	}
	m.mu.Lock()
	if err == nil && m.closed {
		err = ErrClosed // closed while journaling: the drain has passed
	}
	if err != nil {
		// Give the place back and undo whatever got journaled, best
		// effort, or the next boot would resurrect a job nobody was
		// promised.
		m.queuedLen--
		m.mu.Unlock()
		if m.store != nil {
			_ = m.store.Remove(j.ID)
		}
		m.metrics.JobsRejected.Add(1)
		return nil, err
	}
	m.queue = append(m.queue, j)
	m.jobs[j.ID] = j
	m.order = append(m.order, j)
	m.mu.Unlock()
	select {
	case m.kick <- struct{}{}:
	default:
	}
	m.metrics.JobsSubmitted.Add(1)
	if nonDurable {
		j.rec.Record(obs.EvStoreDegraded, 0, 0, "accepted non-durably")
		j.log.Warn("store degraded: job accepted without durability")
	}
	j.log.Info("job submitted", "preset", spec.Preset, "ranks", spec.Ranks, "steps", spec.Steps, "tenant", tenant)
	return j, nil
}

// newJob builds a job's shell: its controller, flight recorder, logger
// and snapshot box.
func (m *Manager) newJob(id string, spec JobSpec, tenant string, created time.Time) *Job {
	return &Job{ID: id, Spec: spec, tenant: tenant, created: created, ctrl: steering.NewController(),
		rec: obs.NewRecorder(m.opts.EventRing), log: m.log.With("job", id), snapCh: make(chan struct{})}
}

// dispatch starts queued jobs in order, one slot per running job and
// one goroutine per run, so a paused job can hand its slot back
// without giving up its (parked) run loop.
func (m *Manager) dispatch() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		var j *Job
		if len(m.queue) > 0 {
			j = m.queue[0]
		}
		m.mu.Unlock()
		if j == nil {
			select {
			case <-m.kick:
				continue
			case <-m.done:
				return
			}
		}
		select {
		case <-m.slots:
		case <-m.done:
			return
		}
		if _, err := m.transition(j, evDispatch, ""); err != nil {
			m.slots <- struct{}{} // cancelled while it waited
			continue
		}
		m.wg.Add(1)
		go m.run(j)
	}
}
