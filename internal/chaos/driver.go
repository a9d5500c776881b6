// Package chaos is the crash-consistency harness for the durable-job
// path: it runs a reference job to completion on a fault-injectable
// in-memory filesystem (internal/faultfs), then re-executes the same
// scenario over and over, cutting power (or injecting transient
// errors, short writes, or silent torn writes) at each counted I/O
// operation of the reference run, restarting the manager on whatever
// survived, and asserting the recovery invariants:
//
//   - the store reopens and replays without error: the recovered
//     checkpoint is the pre-crash one or a complete newer one, never a
//     torn hybrid (crash faults; media-corruption faults are instead
//     required to be *detected* and fallen back from);
//   - a job journaled terminal never regresses to running;
//   - an interrupted job re-runs to completion with final fields
//     bit-exact against the uninterrupted reference;
//   - no orphan temp file survives two recoveries.
//
// Every failure message carries the seed and op index; a failing case
// reproduces with
//
//	go test ./internal/chaos -run TestChaos -chaos-seed=S -chaos-at=K -chaos-kind=crash
//
// alone — all randomness (torn-write bytes, crash tearing) derives
// from the seed, and the op schedule from the scenario.
package chaos

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"runtime"
	"time"

	"repro/internal/faultfs"
	"repro/internal/service"
	"repro/internal/service/store"
)

// Config parameterizes a chaos run.
type Config struct {
	// Seed drives all injected randomness. A failing (seed, op) pair is
	// a complete reproduction recipe.
	Seed int64
	// MaxCases caps how many fault points the sweep injects, spread
	// evenly over the reference run's ops. 0 sweeps every op.
	MaxCases int
	// At pins the sweep to one op index (reproduction mode). 0 = sweep.
	At int64
	// Kind is the injected fault (default FaultCrash).
	Kind faultfs.FaultKind
	// Steps is the scenario length (default 192: six checkpoints at
	// cadence 32, final snapshot at the last step).
	Steps int
	// Logf receives progress lines; nil is silent.
	Logf func(format string, args ...any)
}

// Report summarizes a sweep.
type Report struct {
	RefOps int64 // counted I/O ops in the reference run
	Cases  int   // fault points exercised
	Fired  int   // cases whose fault actually fired
}

const (
	storeRoot = "data"
	pauseAt   = 48 // scenario pauses/resumes once the job passes this step
	waitLimit = 120 * time.Second
	// chainFullEvery makes every other checkpoint write a full one, so
	// each scenario exercises the whole delta-chain lifecycle — base,
	// delta record, compaction — and the op sweep lands power cuts
	// inside delta writes and chain drops, not only full replaces.
	chainFullEvery = 2
)

// managerOptions is the shared manager configuration of every chaos
// run: reference, fault cases and recovery boots must persist (and
// therefore re-read) checkpoints identically.
func managerOptions(st *store.Store, metrics *service.Metrics) service.Options {
	return service.Options{
		Workers: 1, QueueCap: 4, Store: st, Metrics: metrics,
		CheckpointFullEvery: chainFullEvery,
	}
}

func (c *Config) defaults() {
	if c.Kind == faultfs.FaultNone {
		c.Kind = faultfs.FaultCrash
	}
	if c.Steps <= 0 {
		c.Steps = 192
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// spec is the scenario workload: deterministic (no steering beyond the
// scripted pause/resume), several checkpoints, and a snapshot cadence
// that divides Steps so the final fields are captured for the
// bit-exact comparison.
func (c Config) spec() service.JobSpec {
	return service.JobSpec{
		Preset: "pipe", Steps: c.Steps,
		SnapshotEvery: c.Steps / 3, CheckpointEvery: 32,
	}
}

// repro renders the one-line reproduction recipe embedded in every
// failure.
func (c Config) repro(op int64) string {
	return fmt.Sprintf("go test ./internal/chaos -run 'TestChaos$' -chaos-seed=%d -chaos-at=%d -chaos-kind=%s",
		c.Seed, op, c.Kind)
}

// reference holds the uninterrupted run's observables.
type reference struct {
	ops                int64
	id                 string
	step               int
	rho, ux, uy, uz    []float64
	checkpointsWritten int64
}

// Run executes the reference run and the fault sweep, returning on the
// first violated invariant.
func Run(cfg Config) (Report, error) {
	cfg.defaults()
	ref, err := cfg.reference()
	if err != nil {
		return Report{}, fmt.Errorf("chaos: reference run (seed=%d): %w", cfg.Seed, err)
	}
	cfg.Logf("chaos: reference run: %d I/O ops, job %s done at step %d, %d checkpoints",
		ref.ops, ref.id, ref.step, ref.checkpointsWritten)

	ks := cfg.sweepPoints(ref.ops)

	rep := Report{RefOps: ref.ops}
	for i, k := range ks {
		fired, err := cfg.runCase(k, ref)
		if err != nil {
			return rep, fmt.Errorf("chaos: case %s at op %d/%d (seed=%d) failed: %w\nreproduce: %s",
				cfg.Kind, k, ref.ops, cfg.Seed, err, cfg.repro(k))
		}
		rep.Cases++
		if fired {
			rep.Fired++
		}
		if (i+1)%25 == 0 || i == len(ks)-1 {
			cfg.Logf("chaos: %d/%d %s cases passed (%d fired)", i+1, len(ks), cfg.Kind, rep.Fired)
		}
	}
	return rep, nil
}

// sweepPoints picks the op indices a sweep injects at: the pinned -At
// index, the midpoint for MaxCases=1, MaxCases points spread evenly
// across [1, ops], or every op.
func (c Config) sweepPoints(ops int64) []int64 {
	var ks []int64
	switch {
	case c.At > 0:
		ks = []int64{c.At}
	case c.MaxCases == 1:
		ks = []int64{(ops + 1) / 2}
	case c.MaxCases > 1 && int64(c.MaxCases) < ops:
		for i := 0; i < c.MaxCases; i++ {
			k := 1 + int64(i)*(ops-1)/int64(c.MaxCases-1)
			if n := len(ks); n == 0 || ks[n-1] != k {
				ks = append(ks, k)
			}
		}
	default:
		for k := int64(1); k <= ops; k++ {
			ks = append(ks, k)
		}
	}
	return ks
}

// reference runs the scenario with no faults and captures the op count
// and final fields. A qualifying reference needs at least two durable
// checkpoint writes and at least one real pause/resume; the scheduler
// can starve the scripted pause on a loaded box, so non-qualifying
// runs are discarded and retried on a fresh filesystem — the solver
// is deterministic, so every attempt produces bit-identical fields,
// and the op schedule the sweep walks is simply that of the attempt
// that qualified.
func (c Config) reference() (*reference, error) {
	const attempts = 10
	var last error
	for i := 1; i <= attempts; i++ {
		ref, err := c.referenceOnce()
		if err == nil {
			return ref, nil
		}
		last = err
		c.Logf("chaos: reference attempt %d/%d did not qualify: %v", i, attempts, err)
	}
	return nil, last
}

func (c Config) referenceOnce() (*reference, error) {
	fsys := faultfs.NewMem(c.Seed)
	st, err := store.OpenFS(fsys, storeRoot)
	if err != nil {
		return nil, err
	}
	metrics := &service.Metrics{}
	mgr := service.NewManagerOpts(managerOptions(st, metrics))
	defer mgr.Close()
	j, paused, err := runScenario(mgr, fsys, c.spec(), metrics)
	if err != nil {
		return nil, err
	}
	if j == nil || j.State() != service.StateDone {
		return nil, fmt.Errorf("reference job did not finish cleanly")
	}
	snap, _ := j.LatestSnapshot()
	if snap == nil || snap.Step != c.Steps {
		return nil, fmt.Errorf("reference run has no final snapshot at step %d", c.Steps)
	}
	ref := &reference{
		id:   j.ID,
		step: snap.Step,
		rho:  append([]float64(nil), snap.Field.Rho...),
		ux:   append([]float64(nil), snap.Field.Ux...),
		uy:   append([]float64(nil), snap.Field.Uy...),
		uz:   append([]float64(nil), snap.Field.Uz...),
	}
	mgr.Close() // flush the async checkpoint writer before counting ops
	ref.ops = fsys.Ops()
	ref.checkpointsWritten = metrics.CheckpointsWritten.Load()
	if !paused {
		return nil, fmt.Errorf("scripted pause/resume never landed (job outran the monitor)")
	}
	if ref.checkpointsWritten < 2 {
		return nil, fmt.Errorf("scenario wrote %d checkpoints, need >= 2 for a meaningful sweep", ref.checkpointsWritten)
	}
	return ref, nil
}

// runCase injects one fault at op k, runs the scenario on a fresh
// filesystem, then pulls power and verifies recovery. It reports
// whether the fault actually fired (a case beyond this run's op count
// degenerates to a clean power cut, which is still worth verifying).
func (c Config) runCase(k int64, ref *reference) (bool, error) {
	fsys := faultfs.NewMem(c.Seed)
	fsys.Inject(faultfs.Fault{Op: k, Kind: c.Kind})

	var id string
	st, err := store.OpenFS(fsys, storeRoot)
	if err == nil {
		metrics := &service.Metrics{}
		mgr := service.NewManagerOpts(managerOptions(st, metrics))
		j, _, serr := runScenario(mgr, fsys, c.spec(), metrics)
		if j != nil {
			id = j.ID
		}
		if serr != nil && len(fsys.Fired()) == 0 {
			mgr.Close()
			return false, fmt.Errorf("scenario failed with no fault fired: %w", serr)
		}
		// Transient faults (err/short/torn) must never perturb the
		// computation: the store degrades, the job still finishes with
		// reference-exact fields.
		if c.Kind != faultfs.FaultCrash && j != nil && !fsys.Crashed() {
			if j.State() != service.StateDone {
				mgr.Close()
				return false, fmt.Errorf("job ended %s under a %s store fault; store faults must not fail jobs",
					j.State(), c.Kind)
			}
			if err := compareFinal(j, ref); err != nil {
				mgr.Close()
				return false, fmt.Errorf("run under %s fault diverged: %w", c.Kind, err)
			}
		}
		// SIGKILL: no store write issued by Close survives a crashed fs,
		// and for live filesystems the PowerCycle below cuts power on
		// whatever Close did not get to fsync.
		mgr.Close()
	} else if len(fsys.Fired()) == 0 {
		return false, fmt.Errorf("store open failed with no fault fired: %w", err)
	}

	fsys.PowerCycle()
	// A fault that did not fire during the run is still armed and can
	// hit recovery itself (this run's op schedule can be shorter than
	// the reference's). A crash there is the double-crash case: pull
	// power again and re-verify — recovery must be idempotent under
	// repeated interruption. A transient fault there (err/short firing
	// in, say, the recovery-time mkdir) is an ordinary retriable store
	// error, not a failure: the operator restarts, the spent fault
	// cannot fire again, so verify once more on the now-clean store.
	for attempt := 0; ; attempt++ {
		fired := len(fsys.Fired())
		err := c.verifyRecovery(fsys, ref, id)
		if err == nil {
			break
		}
		if attempt < 3 {
			if fsys.Crashed() {
				fsys.PowerCycle()
				continue
			}
			if len(fsys.Fired()) > fired {
				continue
			}
		}
		return len(fsys.Fired()) > 0, err
	}
	return len(fsys.Fired()) > 0, nil
}

// verifyRecovery restarts the service on the surviving tree (twice)
// and asserts every recovery invariant. id may be empty when the fault
// landed before submission completed.
func (c Config) verifyRecovery(fsys *faultfs.Mem, ref *reference, id string) error {
	// What survived the power cut is the journal's intact prefix — the
	// one durable home of a job's lifecycle record. Read it before the
	// store's open compacts it.
	jrec, durable := store.JournalSnapshot(fsys, storeRoot)[id]
	st, err := store.OpenFS(fsys, storeRoot)
	if err != nil {
		return fmt.Errorf("store did not reopen after power cut: %w", err)
	}
	defer st.CloseJournal()
	// Atomicity: a surviving checkpoint either verifies or is
	// *detected* — Checkpoint must never serve bytes alongside a
	// verification error. Detection (not prevention) is the contract
	// for every fault kind, not just torn writes: the store
	// deliberately skips the data fsync on a job's first full
	// checkpoint and on every delta, and a crash-reverted rename can
	// re-expose that never-synced first full even after later durable
	// overwrites — so a clean power cut may legally leave a
	// detectably-invalid file. What recovery owes us instead is
	// asserted below: the job falls back to an older verified point or
	// a fresh start and still re-runs to reference-exact fields.
	if id != "" {
		if got, _, err := st.Checkpoint(id); err != nil && got != nil {
			return fmt.Errorf("checkpoint served %d bytes alongside verification error: %w", len(got), err)
		}
	}
	var preTerminal service.JobState
	if durable && service.JobState(jrec.State).Terminal() {
		preTerminal = service.JobState(jrec.State)
	}

	metrics := &service.Metrics{}
	mgr := service.NewManagerOpts(managerOptions(st, metrics))
	defer mgr.Close()
	// No CheckpointsInvalid assertion here even for pure power cuts:
	// the elided first-full/delta fsyncs mean a clean crash can tear a
	// checkpoint that recovery then rightly flags invalid and falls
	// back from — that flag firing is the detection contract working,
	// not the atomic-write path failing.
	if id == "" {
		return c.verifySecondRecovery(fsys, "")
	}
	j, err := mgr.Get(id)
	if err != nil {
		// The job is allowed to be gone only if it was never durably
		// journaled (crash before the submit response) or its journal
		// record was detectably corrupted by a torn write.
		if c.Kind == faultfs.FaultTornWrite || !durable {
			return c.verifySecondRecovery(fsys, id)
		}
		return fmt.Errorf("durably journaled job %s missing after recovery: %v", id, err)
	}
	if preTerminal != "" {
		// Terminal records never regress.
		if got := j.Info().State; got != preTerminal {
			return fmt.Errorf("job journaled %s came back as %s; terminal states must not regress", preTerminal, got)
		}
		if preTerminal == service.StateDone && j.Info().Step != c.Steps {
			return fmt.Errorf("done job recovered at step %d, want %d", j.Info().Step, c.Steps)
		}
		return c.verifySecondRecovery(fsys, id)
	}
	// Interrupted: the job re-runs (possibly from a checkpoint) and must
	// end bit-exact with the uninterrupted reference.
	resumedFrom := j.Info().ResumedFromStep
	deadline := time.Now().Add(waitLimit)
	for !j.State().Terminal() {
		if time.Now().After(deadline) {
			return fmt.Errorf("recovered job stuck in %s", j.State())
		}
		if j.State() == service.StatePaused {
			// A job journaled paused recovers paused — that persistence
			// is the contract, so resume it to drive the case to its
			// terminal-state invariants.
			_ = mgr.Resume(context.Background(), j)
		}
		time.Sleep(time.Millisecond)
	}
	if j.State() != service.StateDone {
		return fmt.Errorf("recovered job ended %s (%s), resumed from %d", j.State(), j.Info().Error, resumedFrom)
	}
	if err := compareFinal(j, ref); err != nil {
		return fmt.Errorf("resume from step %d diverged: %w", resumedFrom, err)
	}
	return c.verifySecondRecovery(fsys, id)
}

// verifySecondRecovery reopens the store once more (the "two
// recoveries" of the orphan-temp invariant) and checks the tree is
// clean: no orphan temp files, and the job's checkpoint chain — now
// past the open-time stale-delta sweep — still verifies end to end.
func (c Config) verifySecondRecovery(fsys *faultfs.Mem, id string) error {
	st, err := store.OpenFS(fsys, storeRoot)
	if err != nil {
		return fmt.Errorf("second recovery failed to open store: %w", err)
	}
	defer st.CloseJournal()
	stale, err := fsys.Glob(storeRoot + "/jobs/*/*.tmp-*")
	if err != nil {
		return err
	}
	if len(stale) != 0 {
		return fmt.Errorf("orphan temp files survived two recoveries: %v", stale)
	}
	if id != "" {
		// A verification error here is the detection contract, not a
		// failure: the store's elided first-full/delta fsyncs mean a
		// power cut can leave a detectably-torn chain behind (most
		// visibly for a job journaled terminal before the cut, whose
		// checkpoint nothing will ever rewrite). What must hold is that
		// verification stays deterministic across recoveries — the
		// chain cannot flip from invalid to silently served, and an
		// interrupted job's resume path already proved above that it
		// falls back rather than consuming it.
		if _, err := st.VerifyCheckpoint(id); err != nil && !errors.Is(err, fs.ErrNotExist) {
			if _, _, cerr := st.Checkpoint(id); cerr == nil {
				return fmt.Errorf("chain failed verification (%v) but Checkpoint served it anyway", err)
			}
		}
	}
	return nil
}

// compareFinal asserts the job's final snapshot is bit-exact against
// the reference fields.
func compareFinal(j *service.Job, ref *reference) error {
	snap, _ := j.LatestSnapshot()
	if snap == nil {
		return fmt.Errorf("no final snapshot")
	}
	if snap.Step != ref.step {
		return fmt.Errorf("final snapshot at step %d, reference at %d", snap.Step, ref.step)
	}
	if len(snap.Field.Rho) != len(ref.rho) {
		return fmt.Errorf("field size %d, reference %d", len(snap.Field.Rho), len(ref.rho))
	}
	for i := range ref.rho {
		if snap.Field.Rho[i] != ref.rho[i] || snap.Field.Ux[i] != ref.ux[i] ||
			snap.Field.Uy[i] != ref.uy[i] || snap.Field.Uz[i] != ref.uz[i] {
			return fmt.Errorf("fields differ at site %d", i)
		}
	}
	return nil
}

// runScenario submits the workload and drives it to a terminal state,
// guaranteeing at least two durable checkpoint writes and at least one
// pause/resume along the way. The async checkpoint writer coalesces
// under load and a terminal state discards its pending buffer, so
// without scripted drains the number of durable checkpoints would be
// scheduler timing, not scenario structure — and on a single-CPU box
// the monitor goroutine observes the step counter only at preemption
// granularity (jumps of 50+ steps), so step thresholds alone cannot be
// hit. Instead: park the solver once past the first checkpoint
// cadence and drain one write, then advance in pause/resume bursts —
// a queued pause parks the solver at the next steering boundary, at
// most 16 steps away — until a burst crosses the next cadence and its
// deliver drains as the second write. It returns as soon as the
// filesystem crashes (the injected power cut: from that instant the
// process is as good as dead). A nil job with nil error means
// submission itself was broken by a fault — the caller checks Fired.
//
// The scheduler can still defeat the script: on a loaded single-CPU
// box the monitor goroutine may not run even once before the job
// finishes, in which case no pause lands and the writer coalesces
// everything into one write. That is reported, not raced against:
// paused says whether a pause/resume actually happened, and the
// caller decides whether this run qualifies (reference retries until
// one does; fault cases take whatever the scheduler gave them).
func runScenario(mgr *service.Manager, fsys *faultfs.Mem, spec service.JobSpec, metrics *service.Metrics) (j *service.Job, paused bool, err error) {
	j, err = mgr.Submit(spec)
	if err != nil {
		return nil, false, nil // legitimate only when a fault fired; caller verifies
	}
	const cadence = 32 // spec().CheckpointEvery
	deadline := time.Now().Add(waitLimit)
	stuck := func() error {
		return fmt.Errorf("scenario stuck: job %s in %s at step %d", j.ID, j.State(), j.Step())
	}
	done := func() bool { return fsys.Crashed() || j.State().Terminal() }
	// Busy-yield until the condition holds: the whole scenario lasts
	// tens of milliseconds, and timer granularity on a loaded machine
	// is far coarser than that.
	waitFor := func(cond func() bool) error {
		for i := 0; !cond(); i++ {
			if i%1024 == 1023 && time.Now().After(deadline) {
				return stuck()
			}
			runtime.Gosched()
		}
		return nil
	}
	parked := func() bool { return done() || j.State() != service.StateRunning }
	// The writer gets the CPU only while the solver is parked; injected
	// faults can legitimately eat a write, hence the cap.
	drainTo := func(target int64) {
		cap := time.Now().Add(2 * time.Second)
		for metrics.CheckpointsWritten.Load() < target && !fsys.Crashed() && time.Now().Before(cap) {
			runtime.Gosched()
		}
	}

	// Park the solver once it is past the first checkpoint cadence (the
	// first observation of the step counter may already be far past it)
	// and drain the first write: at least one deliver is behind us.
	if err := waitFor(func() bool { return done() || int64(j.Step()) >= pauseAt }); err != nil {
		return j, false, err
	}
	if done() {
		return j, false, nil
	}
	if err := mgr.Pause(j); err == nil {
		paused = true
		if err := waitFor(parked); err != nil {
			return j, paused, err
		}
		drainTo(1)
		prev := int64(j.Step())
		// Burst until a second write lands: each resume advances the
		// solver at most one steering boundary (16 steps) before the
		// queued pause parks it again, so within two bursts the run
		// crosses a checkpoint cadence and the fresh deliver drains
		// while parked. Steps are deterministic, so "did this burst
		// cross a cadence" is computed, not raced.
		for metrics.CheckpointsWritten.Load() < 2 && !done() {
			if time.Now().After(deadline) {
				return j, paused, stuck()
			}
			if err := mgr.Resume(context.Background(), j); err != nil {
				break
			}
			if err := mgr.Pause(j); err != nil {
				break
			}
			if err := waitFor(parked); err != nil {
				return j, paused, err
			}
			cur := int64(j.Step())
			if cur/cadence > prev/cadence {
				drainTo(2)
			}
			prev = cur
		}
		if j.State() == service.StatePaused {
			_ = mgr.Resume(context.Background(), j)
		}
	}
	if err := waitFor(done); err != nil {
		return j, paused, err
	}
	return j, paused, nil
}
