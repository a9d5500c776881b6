package core

import (
	"sync/atomic"
	"time"

	"repro/internal/field"
	"repro/internal/guard"
	"repro/internal/lb"
	"repro/internal/obs"
	"repro/internal/octree"
	"repro/internal/par"
	"repro/internal/vec"
)

// Snapshot is an immutable copy of the macroscopic fields at one time
// step, gathered to rank 0 and published through Config.OnSnapshot.
// The arrays are freshly allocated per snapshot and never written
// again, so any number of goroutines (frame renders, stream
// fan-outs, octree builders) may read them concurrently while the
// solver keeps stepping — this is what moves frame production out of
// the solver loop.
type Snapshot struct {
	// Step is the solver step the fields were captured at.
	Step int
	// Seq numbers every snapshot of the process from 1 in publication
	// order: no two share one, whatever job or run they come from, so it
	// names a snapshot in a cache key without holding its fields alive.
	Seq uint64
	// Field carries full-domain rho/ux/uy/uz/wss indexed by global
	// site id (WSS is zero away from walls), so wall-mode renders work
	// on the offload path too.
	Field *field.Field
	// Diverged reports that the gathered density or velocity contains
	// a non-finite value — the simulation has blown up. The test rides
	// the gather's own writes (Dist.GatherFieldsChecked), so a diverged
	// job is flagged loudly instead of rendering NaN-grey frames at no
	// extra pass over the fields.
	Diverged bool

	// frames are the frames in flight of the simulation that published
	// the snapshot; nil for one built by hand.
	frames *guard.Frames
}

// Frame runs fn as a frame made from sn — a cast and PNG encode a user
// is waiting for. The simulation that published sn yields to it before
// its next step, so the frame gets every core instead of being
// time-sliced against that solver; other simulations keep stepping. fn
// must not wait for that simulation to step. A snapshot built by hand
// has no solver to yield, and fn just runs.
func (sn *Snapshot) Frame(fn func() error) error {
	if sn.frames == nil {
		return fn()
	}
	return sn.frames.Run(fn)
}

// Octree builds the §V multi-resolution tree over the snapshot's
// fields, wall shear stress included. Building costs O(sites) and
// copies no site: the tree's leaves are the snapshot's own arrays, so
// a kept tree keeps them alive. Callers that answer many queries from
// one snapshot should keep the tree per snapshot (the service layer's
// octree lru does, keyed by Seq), turning the data plane into a pure
// snapshot consumer with no solver-loop involvement.
func (sn *Snapshot) Octree() (*octree.Tree, error) {
	f := sn.Field
	return octree.Build(f.Dom, octree.Fields{Rho: f.Rho, Ux: f.Ux, Uy: f.Uy, Uz: f.Uz, WSS: f.WSS})
}

// QueryReduced is a tree's answer to an ROI request
// (octree.Tree.Answer) as one message.
func QueryReduced(tree *octree.Tree, dims vec.V3, roiMin, roiMax vec.V3, detail, ctx int) ([]byte, error) {
	return tree.Answer(dims, roiMin, roiMax, detail, ctx).Bytes(), nil
}

// CheckpointSink receives gathered solver state for durable
// checkpointing. Both methods run on rank 0 inside the solver loop and
// must be O(1) buffer swaps: TakeBuffer hands back a recycled
// CheckpointState to gather into (nil lets the gather allocate a fresh
// one — at most two ever exist per sink), Deliver publishes the filled
// state to the sink's own writer. Everything expensive — encoding,
// CRC, fsync — happens on that writer, concurrently with the next
// solver steps. When the run ends, the sink must drain its pending
// state if that state will ever be read again (a shutdown that
// re-queues the job); it may discard it otherwise.
type CheckpointSink interface {
	TakeBuffer() *lb.CheckpointState
	Deliver(st *lb.CheckpointState)
}

// snapshotSeq is the last Snapshot.Seq handed out.
var snapshotSeq atomic.Uint64

// publishSnapshot gathers the global fields (collective — every rank
// must call it at the same step) and hands rank 0's copy to the
// OnSnapshot hook.
func (s *Simulation) publishSnapshot(c *par.Comm, d *lb.Dist) {
	master := c.Rank() == 0
	var t0 time.Time
	if master && s.Cfg.Phases != nil {
		t0 = time.Now()
	}
	rho, ux, uy, uz, wss, diverged := d.GatherFieldsChecked(0)
	if !master {
		return
	}
	if s.Cfg.Phases != nil {
		s.Cfg.Phases.ObservePhase(obs.PhaseGather, d.StepCount(), time.Since(t0).Nanoseconds())
	}
	s.Cfg.OnSnapshot(&Snapshot{
		Step:     d.StepCount(),
		Seq:      snapshotSeq.Add(1),
		Field:    &field.Field{Dom: s.Dom, Rho: rho, Ux: ux, Uy: uy, Uz: uz, WSS: wss},
		Diverged: diverged,
		frames:   &s.frames,
	})
}

// checkpointDurable gathers the solver state (collective — every rank
// must call it at the same step) into a buffer the sink recycles and
// hands it straight back. No encoding, CRC or I/O happens here: the
// in-loop cost is one memory gather, everything else rides the sink's
// writer goroutine.
func (s *Simulation) checkpointDurable(c *par.Comm, d *lb.Dist) {
	var buf *lb.CheckpointState
	master := c.Rank() == 0
	var t0 time.Time
	if master {
		if s.Cfg.Phases != nil {
			t0 = time.Now()
		}
		buf = s.Cfg.Checkpoint.TakeBuffer()
	}
	st := d.GatherState(buf)
	if master && st != nil {
		s.Cfg.Checkpoint.Deliver(st)
	}
	if master && s.Cfg.Phases != nil {
		s.Cfg.Phases.ObservePhase(obs.PhaseCheckpoint, d.StepCount(), time.Since(t0).Nanoseconds())
	}
}
