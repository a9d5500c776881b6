package obs

// Phase names the timed sections of one solver iteration. The core run
// loop reports them (rank 0 only) through a PhaseObserver so the
// service layer can aggregate where a step's wall time actually goes:
// local compute vs. waiting on collectives vs. feeding observers.
type Phase uint8

const (
	// PhaseStep is one collide+stream advance, halo exchange included
	// — the compute heart of the loop. Sampled every Nth step.
	PhaseStep Phase = iota
	// PhaseCollective is the command-word broadcast wait at a steering
	// boundary: on rank 0 it measures how long the slowest rank made
	// everyone wait.
	PhaseCollective
	// PhaseGather is the collective field gather behind a snapshot
	// publication.
	PhaseGather
	// PhaseCheckpoint is the in-loop checkpoint stall: buffer take,
	// collective state gather, delivery to the async writer.
	PhaseCheckpoint
	// PhaseYield is a solver's wait before a step for the frames in
	// flight made from its snapshots (guard.Frames.Yield): stepping
	// time handed to a user's frame. Observed on every non-zero wait.
	PhaseYield
	numPhases
)

// phaseNames and phaseEventNames are fixed so hot-path lookups return
// constant strings — no formatting, no allocation.
var phaseNames = [numPhases]string{"step", "collective", "gather", "checkpoint", "yield"}
var phaseEventNames = [numPhases]string{"phase-step", "phase-collective", "phase-gather", "phase-checkpoint", "phase-yield"}

// String returns the short phase name.
func (p Phase) String() string {
	if int(p) >= len(phaseNames) {
		return "unknown"
	}
	return phaseNames[p]
}

// PhaseEventName returns the flight-recorder event type for a phase
// sample ("phase-step", ...). Constant-string lookup, never allocates.
func PhaseEventName(p Phase) string {
	if int(p) >= len(phaseEventNames) {
		return "phase-unknown"
	}
	return phaseEventNames[p]
}

// PhaseObserver receives sampled phase timings from the solver loop.
// Implementations must be cheap and allocation-free: the call happens
// on rank 0's stepping goroutine.
type PhaseObserver interface {
	ObservePhase(p Phase, step int, ns int64)
}
