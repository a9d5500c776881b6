package service

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/guard"
	"repro/internal/insitu"
	"repro/internal/octree"
	"repro/internal/vec"
)

// wantSnapshot registers demand for a fresh snapshot; the solver
// publishes at its next cadence check.
func (j *Job) wantSnapshot() { j.snapWant.Store(true) }

// snapFreshWait bounds how long a frame/data request waits for a
// demand-driven publication before settling for whatever exists.
const snapFreshWait = 10 * time.Second

// freshSnapshot returns the job's latest snapshot for request serving
// — the one source of pixels and octrees — registering demand and
// waiting (bounded) for a publication when there is none yet or the
// newest one lags a running solver by more than one cadence, so
// pollers see ≤one-cadence staleness. Paused and terminal jobs answer
// at once: the solver publishes on entering a pause and at run end.
// ErrNotRunning while queued; ErrNoSnapshot when the spec disabled
// snapshots or the job ended without ever publishing one.
func (m *Manager) freshSnapshot(j *Job) (*core.Snapshot, error) {
	if j.State() == StateQueued {
		return nil, ErrNotRunning
	}
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

// Data fetches the §V reduced octree representation for an ROI from
// the job's latest snapshot through the octree lru — no solver-loop
// collective, and the data plane keeps working while paused and after
// termination. The reply is encoded as it is written, so a query holds
// no buffer of its size.
func (m *Manager) Data(j *Job, roiMin, roiMax [3]float64, detail, context int) (octree.Reply, error) {
	m.metrics.DataRequests.Add(1)
	snap, err := m.freshSnapshot(j)
	if err != nil {
		return octree.Reply{}, err
	}
	tree, _, err := m.octrees.get(snap.Seq, snap.Octree)
	if err != nil {
		return octree.Reply{}, err
	}
	return tree.Answer(snap.Field.Dom.Dims.F(),
		vec.New(roiMin[0], roiMin[1], roiMin[2]),
		vec.New(roiMax[0], roiMax[1], roiMax[2]), detail, context), nil
}

// Frame produces the current frame for a request. Pollers drive
// publication: the request registers demand and waits for a
// ≤one-cadence-fresh snapshot — idle jobs publish nothing between
// requests — and the frame is rendered from it on the request's
// goroutine, outside the solver loop, which is why it also works while
// paused and after termination.
func (m *Manager) Frame(j *Job, req insitu.Request) ([]byte, int, int, error) {
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
// for a set when Workers renders are already running. The cast and the
// encode run as a frame of the snapshot (Snapshot.Frame): the job's
// solver, if still running, steps aside at its next step boundary and
// the frame gets every core; other jobs keep stepping. A panicking
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
	err = guard.Capture("render", func() error {
		return snap.Frame(func() (err error) {
			f.png, f.w, f.h, err = m.framePNG(bufs, snap.Field, req)
			return err
		})
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
