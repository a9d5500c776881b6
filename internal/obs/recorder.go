package obs

import (
	"sync"
	"time"
)

// Event is one entry in a job's flight recorder: what happened, when,
// at which solver step, and (for timed phases) how long it took. The
// JSON form is the wire schema of GET /jobs/{id}/events, documented in
// docs/OBSERVABILITY.md.
type Event struct {
	// Seq is the 1-based global sequence number of the event over the
	// job's lifetime; the ring keeps only the most recent ones, so a
	// gap between the first returned Seq and 1 means older events were
	// overwritten.
	Seq  uint64    `json:"seq"`
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	// Step is the solver step the event refers to (0 when the job has
	// not started stepping, or the event is not step-related).
	Step int `json:"step,omitempty"`
	// DurNs carries the measured duration for timed events (phase
	// samples, checkpoint writes).
	DurNs int64 `json:"dur_ns,omitempty"`
	// Detail is a short free-form annotation (terminal state, error
	// text, byte counts).
	Detail string `json:"detail,omitempty"`
}

// Event types every job emits. Phase sample events use
// PhaseEventName(p) ("phase-step", "phase-collective", ...).
const (
	EvSubmitted           = "submitted"
	EvRecovered           = "recovered"
	EvDispatched          = "dispatched"
	EvSnapshotPublish     = "snapshot-publish"
	EvSnapshotSkip        = "snapshot-skip"
	EvCheckpointStart     = "checkpoint-write-start"
	EvCheckpointEnd       = "checkpoint-write-end"
	EvCheckpointCoalesced = "checkpoint-coalesced"
	EvCheckpointSkip      = "checkpoint-skip"
	EvPause               = "pause"
	EvResume              = "resume"
	EvDiverged            = "diverged"
	EvTerminal            = "terminal"
	// EvPanic records a quarantined solver panic: the job failed but
	// the daemon kept serving. Detail carries the panic value; the full
	// stack goes to the structured log.
	EvPanic = "panic"
	// EvWatchdogStall marks a running job the watchdog saw make no step
	// progress for a full stall window; detail is the strike number.
	EvWatchdogStall = "watchdog-stall"
	// EvStoreDegraded marks a job accepted without durability while the
	// store was degraded under disk pressure; EvStoreRestored marks its
	// record becoming durable again via the post-restore re-journal.
	EvStoreDegraded = "store-degraded"
	EvStoreRestored = "store-restored"
)

// Recorder is a fixed-size ring of Events — the per-job flight
// recorder. Record is cheap (one short mutex hold, no allocation: the
// ring is pre-allocated and event strings are expected to be constants
// or already-built values), so it can sit on solver and writer paths.
type Recorder struct {
	mu   sync.Mutex
	seq  uint64
	ring []Event
	next int
}

// DefaultRingSize is the events kept per job unless configured
// otherwise.
const DefaultRingSize = 256

// NewRecorder creates a recorder keeping the last size events
// (DefaultRingSize when size <= 0).
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	return &Recorder{ring: make([]Event, 0, size)}
}

// Record appends one event to the ring, overwriting the oldest once
// full.
func (r *Recorder) Record(typ string, step int, durNs int64, detail string) {
	now := time.Now()
	r.mu.Lock()
	r.seq++
	ev := Event{Seq: r.seq, Time: now, Type: typ, Step: step, DurNs: durNs, Detail: detail}
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, ev)
	} else {
		r.ring[r.next] = ev
		r.next = (r.next + 1) % len(r.ring)
	}
	r.mu.Unlock()
}

// Seq returns the total number of events ever recorded (the ring keeps
// the most recent min(Seq, size)).
func (r *Recorder) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Last returns the most recently recorded event and whether one
// exists.
func (r *Recorder) Last() (Event, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) == 0 {
		return Event{}, false
	}
	idx := r.next - 1
	if idx < 0 {
		idx = len(r.ring) - 1
	}
	if len(r.ring) < cap(r.ring) {
		idx = len(r.ring) - 1
	}
	return r.ring[idx], true
}

// Events returns a chronological copy of the ring.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Event, 0, len(r.ring))
	if len(r.ring) < cap(r.ring) {
		out = append(out, r.ring...)
		return out
	}
	out = append(out, r.ring[r.next:]...)
	out = append(out, r.ring[:r.next]...)
	return out
}
