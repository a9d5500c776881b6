package service

import (
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/steering"
)

// event is one input to the job lifecycle table (next).
type event string

const (
	evSubmit event = "submit"
	// Recovery brings a journaled job back: a terminal record as
	// read-only history, any other (queued, running, paused) re-queued.
	evRecoverDone        event = "recover-done"
	evRecoverFailed      event = "recover-failed"
	evRecoverCancelled   event = "recover-cancelled"
	evRecoverInterrupted event = "recover-interrupted"
	evDispatch           event = "dispatch"
	evPause              event = "pause"
	evResume             event = "resume"
	// A user's cancel, and Close's: the drain keeps the job's
	// interrupted record in the store, so the next boot resumes it.
	evCancel event = "cancel"
	evDrain  event = "drain"
	// The run ended: every step done, an error, or a quit by a user or
	// by the drain.
	evFinishOK    event = "finish-ok"
	evFinishError event = "finish-error"
	evFinishQuit  event = "finish-quit"
	evFinishDrain event = "finish-drain"
)

// recoverEvents maps a terminal journaled state to its recovery event.
var recoverEvents = map[JobState]event{
	StateDone: evRecoverDone, StateFailed: evRecoverFailed, StateCancelled: evRecoverCancelled,
}

// journalMode is how a transition's record reaches the journal: not
// at all, appended with a wait for the fsync covering it, or appended
// on the caller without one (in order with every other append, durable
// at the next fsync or CloseJournal — in the log before the caller
// replies; losing it to a power cut equals crashing a moment earlier).
type journalMode uint8

const (
	journalNone journalMode = iota
	journalWait
	journalNoWait
)

// effects are what a transition makes the manager do, as plain values,
// run by Manager.transition in field order.
type effects struct {
	dequeue bool
	journal journalMode
	// giveSlot gives the job's worker slot back. A job holds a slot
	// exactly while it is running; entering running takes none here:
	// the caller (the dispatcher, Resume) takes it before the move.
	giveSlot bool
	// closeCtrl closes the controller (late steering calls fail instead
	// of blocking); seal wakes stream subscribers to see the end.
	closeCtrl, seal bool
	// quota charges (+1) or releases (-1) the job's tenant quota.
	quota int8
	// count bumps the counter of the terminal state entered.
	count bool
	// record is the flight-recorder event ("" = none).
	record string
	// quit is why the solver is to stop (a user's outranks the
	// drain's); signalQuit sends the quit to the live solver.
	quit       quitReason
	signalQuit bool
}

// outcome is the effects of entering a terminal state from a live one.
func outcome(from JobState, journal journalMode) effects {
	return effects{giveSlot: from == StateRunning, dequeue: from == StateQueued, journal: journal,
		closeCtrl: true, seal: true, quota: -1, count: true, record: obs.EvTerminal}
}

// next is the job lifecycle: the state ev moves a job in state from to,
// and the effects of the move. It does no I/O and takes no locks. An
// event the state does not admit returns the error the HTTP layer maps
// (ErrNotRunning, ErrFinished or ErrClosed) and no effects; a pause of
// a paused job and a resume of a running one are legal and do nothing.
//
//	from       event          to         slot  journal  other
//	—          submit         queued           (1)
//	—          recover-X      X                         close, seal
//	—          recover-int.   queued           wait     charge quota
//	queued     dispatch       running    (4)
//	running    pause          paused     give  no-wait
//	paused     resume         running    (4)   no-wait
//	queued     cancel         cancelled        wait     (2)
//	queued     drain          cancelled                 (2)
//	running,   cancel, drain  unchanged                 quit the solver
//	paused
//	running,   finish-ok      done       (3)   no-wait  (2)
//	paused     finish-error   failed     (3)   no-wait  (2)
//	           finish-quit    cancelled  (3)   no-wait  (2)
//	           finish-drain   cancelled  (3)            (2)
//
// (1) Submit journals the spec and this record itself, waiting, and
// rejects the job if that fails. (2) Close the controller, seal the
// snapshots, release the tenant quota, count the outcome. (3) Give the
// slot back when leaving running. (4) The caller took the slot before
// the move, and gives it back if the move fails. Dispatch is not
// journaled: recovery re-queues queued and running records alike. A
// drained job's record stays what it was, so the next boot re-queues
// it.
func next(from JobState, ev event) (JobState, effects, error) {
	if from == "" { // a job being created
		switch ev {
		case evSubmit:
			return StateQueued, effects{record: obs.EvSubmitted}, nil
		case evRecoverInterrupted:
			return StateQueued, effects{journal: journalWait, quota: +1, record: obs.EvRecovered}, nil
		}
		for to, rev := range recoverEvents {
			if ev == rev {
				return to, effects{closeCtrl: true, seal: true, record: obs.EvRecovered}, nil
			}
		}
		return from, effects{}, ErrClosed
	}
	if from.Terminal() {
		return from, effects{}, ErrFinished
	}
	switch ev {
	case evDispatch:
		if from == StateQueued {
			return StateRunning, effects{dequeue: true}, nil
		}
	case evPause:
		switch from {
		case StateRunning:
			return StatePaused, effects{giveSlot: true, journal: journalNoWait, record: obs.EvPause}, nil
		case StatePaused:
			return from, effects{}, nil
		}
	case evResume:
		switch from {
		case StatePaused:
			return StateRunning, effects{journal: journalNoWait, record: obs.EvResume}, nil
		case StateRunning:
			return from, effects{}, nil
		}
	case evCancel, evDrain:
		why, journal := quitUser, journalWait
		if ev == evDrain {
			why, journal = quitShutdown, journalNone
		}
		if from == StateQueued {
			eff := outcome(from, journal)
			eff.quit = why
			return StateCancelled, eff, nil
		}
		return from, effects{quit: why, signalQuit: true}, nil
	case evFinishOK, evFinishError, evFinishQuit, evFinishDrain:
		if from == StateQueued {
			break
		}
		switch ev {
		case evFinishOK:
			return StateDone, outcome(from, journalNoWait), nil
		case evFinishError:
			return StateFailed, outcome(from, journalNoWait), nil
		case evFinishQuit:
			return StateCancelled, outcome(from, journalNoWait), nil
		}
		return StateCancelled, outcome(from, journalNone), nil
	}
	return from, effects{}, ErrNotRunning
}

// transition applies ev to j through next; it is the only writer of
// j.state. Under j.journalMu (so records reach the journal in the order
// of the states they carry) and j.mu it moves the state and its
// bookkeeping and records the event; then it runs the effects, leaving
// the queue and journaling before it releases j.journalMu. note is the
// event's detail, and for evFinishError the job's error.
func (m *Manager) transition(j *Job, ev event, note string) (effects, error) {
	j.journalMu.Lock()
	j.mu.Lock()
	if ev == evFinishQuit && j.quit == quitShutdown {
		// Read under the lock that publishes the state: a user's cancel
		// either lands first (and is journaled) or finds the job over.
		ev = evFinishDrain
	}
	from := j.state
	to, eff, err := next(from, ev)
	if err != nil {
		j.mu.Unlock()
		j.journalMu.Unlock()
		return eff, err
	}
	j.state = to
	j.quit = max(j.quit, eff.quit)
	switch ev {
	case evDispatch:
		j.started = time.Now()
	case evPause:
		j.resumePaused = false // the park it waited for
	case evFinishError:
		j.errMsg = note
	}
	if eff.count {
		j.finished = time.Now()
		switch to {
		case StateDone:
			m.metrics.JobsDone.Add(1)
		case StateFailed:
			m.metrics.JobsFailed.Add(1)
		default:
			m.metrics.JobsCancelled.Add(1)
		}
	}
	if eff.record == obs.EvTerminal {
		note = string(to)
		if from == StateQueued {
			note += " while queued"
		} else if j.errMsg != "" {
			note += ": " + j.errMsg
		}
	}
	if eff.record != "" {
		j.rec.Record(eff.record, j.Step(), 0, note)
	}
	rec := j.recordLocked()
	j.mu.Unlock()
	if eff.record != "" && ev != evSubmit { // Submit logs once accepted
		if to == StateFailed {
			j.log.Error("job failed", "step", j.Step(), "err", j.errMsg)
		} else {
			j.log.Info("job "+string(ev), "state", to, "step", j.Step(), "detail", note)
		}
	}
	if eff.dequeue {
		m.mu.Lock()
		m.queue = slices.DeleteFunc(m.queue, func(q *Job) bool { return q == j })
		m.queuedLen--
		m.mu.Unlock()
	}
	m.appendState(j, rec, eff.journal)
	j.journalMu.Unlock()
	if eff.giveSlot {
		m.slots <- struct{}{}
	}
	if eff.closeCtrl {
		j.ctrl.Close()
	}
	if eff.seal {
		j.sealSnapshots()
	}
	switch eff.quota {
	case +1:
		m.tenants.charge(j.tenant)
	case -1:
		m.tenants.release(j.tenant)
	}
	if eff.signalQuit {
		// Returns once the solver took the quit; "controller closed"
		// just means the run already ended.
		_, _ = j.ctrl.Do(steering.ClientMsg{Op: steering.OpQuit})
	}
	return eff, nil
}
