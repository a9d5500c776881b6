package service

import (
	"bytes"
	"errors"
	"log/slog"
	"sync"
	"time"

	"repro/internal/guard"
	"repro/internal/lb"
	"repro/internal/obs"
)

// checkpointPutter is the slice of the store the writer needs —
// narrowed to an interface so tests can inject slow or failing sinks
// and exercise coalescing deterministically.
type checkpointPutter interface {
	PutCheckpoint(id string, data []byte) error
	PutCheckpointDelta(id string, seq uint64, data []byte) error
	DropCheckpointDeltas(id string) error
}

// ckptWriter implements core.CheckpointSink: it moves checkpoint
// encoding, CRC and the fsync+rename off the solver's critical path
// onto one goroutine per job.
//
// The solver's in-loop cost is a collective state gather into a
// reusable buffer plus two O(1) swaps (TakeBuffer/Deliver). Three
// CheckpointState buffers cycle through four homes — free (ready to
// gather into), pending (gathered, awaiting write), in-flight (being
// encoded/written) and last (the last persisted state, kept as the
// delta base) — so steady-state checkpointing allocates nothing.
// Back-pressure is "latest wins": at most one write is ever in
// flight, and if the solver gathers again before the writer caught
// up, the pending state is overwritten and counted as coalesced — the
// solver never blocks on the disk. Coalescing cannot lose dirty
// information: deltas are diffed against the last *persisted* state,
// not the last gathered one, so a coalesced-away intermediate's
// changes are still in the diff of whatever state finally lands.
//
// Persistence is an incremental chain: a full lbcq checkpoint every
// fullEvery-th write, lbcd delta records (only the dirty site tiles)
// in between. A delta is abandoned for a full when the shape changed
// or the step did not advance; a delta whose every tile is dirty is
// still written, because a delta record skips the data fsync (see
// store.PutCheckpointDelta) and so beats a full even then.
// Every successful full is followed by dropping the superseded delta
// files — mandatory, not just tidy: after a resume the writer restarts
// the chain, and a lingering old delta whose PrevCRC happens to match
// a bit-identical re-written full must never be picked up again.
//
// A state gathered at the job's final step (finalStep) is dropped on
// delivery: a run that executed every step ends done (or failed), and a
// terminal job's checkpoint is never read again — the same reason
// CloseDiscard drops a pending state, applied before the write starts
// rather than racing it.
//
// Close drains: the last delivered state is encoded and written before
// Close returns, so terminal/shutdown recovery semantics are exactly
// those of the old synchronous writes — only a hard kill can lose the
// in-flight tail, which the CRC-checked on-disk format already
// tolerates (the previous checkpoint survives the atomic rename).
type ckptWriter struct {
	store   checkpointPutter
	id      string
	metrics *Metrics
	// rec (optional) receives checkpoint events in the job's flight
	// recorder; log is never nil.
	rec *obs.Recorder
	log *slog.Logger
	// chaos observes the ckpt.swap / ckpt.write crash points (nil in
	// production).
	chaos ChaosHook
	// degrader is the manager's disk-pressure policy (nil-safe):
	// checkpoint writes are skipped while degraded, and write outcomes
	// feed its failure counting.
	degrader *guard.Degrader
	// finalStep is the job's last step; a state gathered there is not
	// written (immutable after construction).
	finalStep int

	mu      sync.Mutex
	cond    *sync.Cond
	pending *lb.CheckpointState
	free    *lb.CheckpointState
	closed  bool
	// takenAt timestamps the TakeBuffer→Deliver window (the gather on
	// the solver loop) for the stall metric; only rank 0's solver
	// goroutine touches the pair, sequentially.
	takenAt time.Time

	// enc is the reusable encode buffer; only the writer goroutine
	// touches it.
	enc  bytes.Buffer
	done chan struct{}

	// Delta-chain state, writer-goroutine-only. last is the last
	// persisted state — it never cycles back through TakeBuffer while it
	// is the chain base. tailCRC is the CRC64 trailer of the last
	// persisted record (full or delta), nextSeq the 1-based sequence of
	// the next delta. fullEvery is the policy knob (<= 1 disables deltas
	// entirely); dirty is the reusable dirty-tile scratch.
	last      *lb.CheckpointState
	tailCRC   uint64
	nextSeq   uint64
	fullEvery int
	dirty     []int
}

// newCkptWriter starts the writer goroutine for one job. rec, log and
// chaos may be nil (no flight recorder / discarded logs / no chaos).
// fullEvery sets the delta-chain policy; fullEvery <= 1 writes only
// full checkpoints. finalStep is the job's last step, whose state is
// never written (0: none — a state is gathered after at least one step).
func newCkptWriter(store checkpointPutter, id string, metrics *Metrics, rec *obs.Recorder, log *slog.Logger, chaos ChaosHook, degrader *guard.Degrader, fullEvery, finalStep int) *ckptWriter {
	if log == nil {
		log = obs.NopLogger()
	}
	w := &ckptWriter{
		store: store, id: id, metrics: metrics, rec: rec, log: log, chaos: chaos,
		degrader: degrader, fullEvery: fullEvery, finalStep: finalStep, done: make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	go w.loop()
	return w
}

// TakeBuffer implements core.CheckpointSink: hand the solver a state
// buffer to gather into. Preference order: a free (already written)
// buffer; else the pending one — overwriting it coalesces two
// checkpoints into the newer (back-pressure, counted); else nil, and
// the gather allocates (happens at most three times per job: one
// buffer gathering, one in flight, one held as the delta base).
func (w *ckptWriter) TakeBuffer() *lb.CheckpointState {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.takenAt = time.Now()
	if st := w.free; st != nil {
		w.free = nil
		return st
	}
	if st := w.pending; st != nil {
		w.pending = nil
		w.metrics.CheckpointsCoalesced.Add(1)
		if w.rec != nil {
			w.rec.Record(obs.EvCheckpointCoalesced, st.Info.Step, 0, "")
		}
		return st
	}
	return nil
}

// Deliver implements core.CheckpointSink: publish the gathered state
// to the writer goroutine and return immediately — or, at the job's
// final step, keep it as the free buffer unwritten.
func (w *ckptWriter) Deliver(st *lb.CheckpointState) {
	if w.chaos != nil {
		w.chaos(ChaosCheckpointSwap, w.id)
	}
	w.mu.Lock()
	if st.Info.Step == w.finalStep {
		w.free = st
	} else {
		w.pending = st
	}
	if !w.takenAt.IsZero() {
		w.metrics.CheckpointStallNs.Add(time.Since(w.takenAt).Nanoseconds())
		w.takenAt = time.Time{}
	}
	w.mu.Unlock()
	w.cond.Signal()
}

// Close stops the writer after draining: a pending state is still
// encoded and written. Idempotent; safe even if the solver never
// delivered anything.
func (w *ckptWriter) Close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Signal()
	<-w.done
}

// CloseDiscard stops the writer without draining: a pending state is
// dropped. For jobs reaching a true terminal state, whose checkpoint
// will never be read again — the in-flight write (if any) still
// completes.
func (w *ckptWriter) CloseDiscard() {
	w.mu.Lock()
	w.closed = true
	w.pending = nil
	w.mu.Unlock()
	w.cond.Signal()
	<-w.done
}

// loop is the writer goroutine: wait for a pending state, write it,
// recycle the buffer. On close it drains the final pending state
// before exiting.
func (w *ckptWriter) loop() {
	defer close(w.done)
	for {
		w.mu.Lock()
		for w.pending == nil && !w.closed {
			w.cond.Wait()
		}
		st := w.pending
		w.pending = nil
		w.mu.Unlock()
		if st == nil {
			return // closed with nothing left to drain
		}
		// write returns the buffer to recycle: the displaced old base on
		// success (st became the new base), st itself on failure or skip.
		// The recover wrapper keeps a panicking write (encoder bug, bad
		// state) from killing the process: the job just loses this
		// checkpoint, like any other failed write.
		recycle := st
		if perr := guard.Capture("checkpoint write", func() error {
			recycle = w.write(st)
			return nil
		}); perr != nil {
			var pe *guard.PanicError
			if errors.As(perr, &pe) {
				w.metrics.StoreErrors.Add(1)
				w.log.Error("checkpoint writer panicked; state dropped",
					"step", st.Info.Step, "panic", pe.Value, "stack", string(pe.Stack))
			}
			recycle = st
		}
		if recycle != nil {
			w.mu.Lock()
			w.free = recycle
			w.mu.Unlock()
		}
	}
}

// write persists one state — as a delta record when the chain policy
// allows, as a full checkpoint otherwise — and returns the buffer to
// recycle. Failures are counted and logged, not fatal: the job keeps
// its previous checkpoint, exactly as the synchronous path behaved.
func (w *ckptWriter) write(st *lb.CheckpointState) *lb.CheckpointState {
	// Under disk-pressure degradation every checkpoint write (drain
	// included — the disk cannot take it) is skipped: the job keeps its
	// previous chain and keeps stepping non-durably.
	if w.degrader.Degraded() {
		w.metrics.CheckpointsSkippedDegraded.Add(1)
		if w.rec != nil {
			w.rec.Record(obs.EvCheckpointSkip, st.Info.Step, 0, "store degraded")
		}
		return st
	}
	start := time.Now()
	if w.rec != nil {
		w.rec.Record(obs.EvCheckpointStart, st.Info.Step, 0, "")
	}
	// The dirty scan picks the tiles a delta carries.
	if w.last != nil && w.fullEvery > 1 && w.nextSeq > 0 && w.nextSeq < uint64(w.fullEvery) &&
		st.Info.Sites == w.last.Info.Sites && st.Info.Q == w.last.Info.Q &&
		st.Info.Iolets == w.last.Info.Iolets && st.Info.Step > w.last.Info.Step {
		dirty, err := st.DirtyTiles(w.last, lb.DefaultDeltaTileSites, w.dirty[:0])
		if err == nil {
			w.dirty = dirty
			tiles := lb.NumDeltaTiles(st.Info.Sites, lb.DefaultDeltaTileSites)
			w.metrics.CheckpointDirtyRatioPermille.Store(int64(1000 * len(dirty) / tiles))
			return w.writeDelta(st, dirty, start)
		}
	} else {
		w.metrics.CheckpointDirtyRatioPermille.Store(1000)
	}
	return w.writeFull(st, start)
}

// writeFull encodes and persists st as a full lbcq checkpoint and
// restarts the delta chain on it: the superseded delta files are
// dropped (the ckpt.compact crash window sits between the two — stale
// survivors fail linkage and are swept at the next open).
func (w *ckptWriter) writeFull(st *lb.CheckpointState, start time.Time) *lb.CheckpointState {
	w.enc.Reset()
	if err := st.EncodeTo(&w.enc); err != nil {
		w.metrics.StoreErrors.Add(1)
		w.log.Warn("checkpoint encode failed", "step", st.Info.Step, "err", err)
		return st
	}
	if w.chaos != nil {
		w.chaos(ChaosCheckpointWrite, w.id)
	}
	if err := w.store.PutCheckpoint(w.id, w.enc.Bytes()); err != nil {
		w.metrics.StoreErrors.Add(1)
		w.log.Warn("checkpoint write failed", "step", st.Info.Step, "err", err)
		w.degrader.WriteFailed(err)
		return st
	}
	w.degrader.WriteOK()
	crc, err := lb.CheckpointCRC(w.enc.Bytes())
	if err != nil {
		// Unreachable for a stream EncodeTo just produced; park the chain
		// so the next write is a full again.
		w.log.Warn("checkpoint CRC readback failed", "step", st.Info.Step, "err", err)
		w.last, w.tailCRC, w.nextSeq = nil, 0, 0
		w.finish(st, start)
		return st
	}
	if w.chaos != nil {
		w.chaos(ChaosCheckpointCompact, w.id)
	}
	if err := w.store.DropCheckpointDeltas(w.id); err != nil {
		w.metrics.StoreErrors.Add(1)
		w.log.Warn("checkpoint delta drop failed", "err", err)
	}
	recycle := w.last
	if w.fullEvery > 1 {
		w.last, w.tailCRC, w.nextSeq = st, crc, 1
	} else {
		// Full-only mode keeps no delta base, so st recycles directly.
		recycle = st
	}
	w.finish(st, start)
	return recycle
}

// writeDelta encodes and persists the dirty tiles of st against the
// last persisted state as one lbcd record, extending the chain.
func (w *ckptWriter) writeDelta(st *lb.CheckpointState, dirty []int, start time.Time) *lb.CheckpointState {
	w.enc.Reset()
	stats, err := st.EncodeDeltaTo(&w.enc, w.last, w.nextSeq, w.tailCRC, lb.DefaultDeltaTileSites, dirty)
	if err != nil {
		w.metrics.StoreErrors.Add(1)
		w.log.Warn("checkpoint delta encode failed", "step", st.Info.Step, "err", err)
		return st
	}
	if w.chaos != nil {
		w.chaos(ChaosCheckpointDelta, w.id)
	}
	if err := w.store.PutCheckpointDelta(w.id, w.nextSeq, w.enc.Bytes()); err != nil {
		w.metrics.StoreErrors.Add(1)
		w.log.Warn("checkpoint delta write failed", "step", st.Info.Step, "seq", w.nextSeq, "err", err)
		w.degrader.WriteFailed(err)
		return st
	}
	w.degrader.WriteOK()
	recycle := w.last
	w.last, w.tailCRC = st, stats.CRC
	w.nextSeq++
	w.metrics.CheckpointDeltasWritten.Add(1)
	w.metrics.CheckpointDeltaBytes.Add(int64(w.enc.Len()))
	w.finish(st, start)
	return recycle
}

// finish records the shared success metrics and flight-recorder event
// for one persisted record (full or delta).
func (w *ckptWriter) finish(st *lb.CheckpointState, start time.Time) {
	dur := time.Since(start).Nanoseconds()
	w.metrics.CheckpointWrite.Observe(dur)
	if w.rec != nil {
		w.rec.Record(obs.EvCheckpointEnd, st.Info.Step, dur, "")
	}
	w.metrics.CheckpointsWritten.Add(1)
	w.metrics.CheckpointBytes.Add(int64(w.enc.Len()))
}
