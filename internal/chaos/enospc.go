package chaos

import (
	"fmt"
	"time"

	"repro/internal/faultfs"
	"repro/internal/service"
	"repro/internal/service/store"
)

// enospcWait bounds the degrade-observation, probe-restore and
// re-journal polls of each ENOSPC case. Generous because a loaded box
// schedules the probe goroutine at preemption granularity.
const enospcWait = 30 * time.Second

// RunENOSPC is the disk-full sweep: at each selected op index the
// in-memory disk fills — and stays full, unlike the one-shot fault
// kinds — until the harness frees space. Each case asserts the
// graceful-degradation contract end to end:
//
//   - the job still finishes StateDone with fields bit-exact against
//     the uninterrupted reference (store faults must not fail jobs);
//   - the manager actually entered degraded mode while the disk was
//     full (the fault was felt, not silently swallowed);
//   - after space is freed the probe restores durability on its own,
//     with no operator call into the manager;
//   - the restored store is durable for real: after a power cut and
//     restart the job accepted under disk pressure is still there,
//     terminal at its final step.
func RunENOSPC(cfg Config) (Report, error) {
	cfg.defaults()
	cfg.Kind = faultfs.FaultENOSPC
	ref, err := cfg.reference()
	if err != nil {
		return Report{}, fmt.Errorf("chaos: reference run (seed=%d): %w", cfg.Seed, err)
	}
	cfg.Logf("chaos: reference run: %d I/O ops, job %s done at step %d", ref.ops, ref.id, ref.step)

	ks := cfg.sweepPoints(ref.ops)
	rep := Report{RefOps: ref.ops}
	for i, k := range ks {
		fired, err := cfg.runENOSPCCase(k, ref)
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

// runENOSPCCase fills the disk at op k, runs the scenario through the
// degraded episode, frees space, and verifies the recovery half of the
// contract. Reports whether the fault fired (a k beyond this run's op
// count degenerates to a clean run).
func (c Config) runENOSPCCase(k int64, ref *reference) (bool, error) {
	fsys := faultfs.NewMem(c.Seed)
	fsys.Inject(faultfs.Fault{Op: k, Kind: faultfs.FaultENOSPC})

	st, err := store.OpenFS(fsys, storeRoot)
	if err != nil {
		// The disk filled while the store itself was coming up; the
		// daemon cannot start at all. The only obligation is that
		// freeing space makes the next boot succeed.
		if len(fsys.Fired()) == 0 {
			return false, fmt.Errorf("store open failed with no fault fired: %w", err)
		}
		fsys.SetFull(false)
		st, err := store.OpenFS(fsys, storeRoot)
		if err != nil {
			return true, fmt.Errorf("store open still failing after space was freed: %w", err)
		}
		st.CloseJournal()
		return true, nil
	}
	metrics := &service.Metrics{}
	opts := managerOptions(st, metrics)
	// Probe aggressively: each case waits for the restore transition.
	opts.StoreProbeEvery = 2 * time.Millisecond
	mgr := service.NewManagerOpts(opts)
	closed := false
	defer func() {
		if !closed {
			mgr.Close()
		}
	}()

	j, _, serr := runScenario(mgr, fsys, c.spec(), metrics)
	fired := len(fsys.Fired()) > 0
	if serr != nil {
		return fired, fmt.Errorf("scenario failed under disk-full: %w", serr)
	}
	if j == nil {
		if !fired {
			return false, fmt.Errorf("submission failed with no fault fired")
		}
		return fired, fmt.Errorf("submission rejected under disk-full; degraded mode must accept jobs non-durably")
	}
	// Core invariant: a full disk degrades durability, never the
	// computation.
	if j.State() != service.StateDone {
		return fired, fmt.Errorf("job ended %s under disk-full; store faults must not fail jobs", j.State())
	}
	if err := compareFinal(j, ref); err != nil {
		return fired, fmt.Errorf("run under disk-full diverged: %w", err)
	}
	if !fired {
		// The run issued fewer ops than the reference and the fault
		// never armed: nothing further to verify.
		return false, nil
	}

	// The disk is still full (the fault is sticky) and the terminal
	// persist must have tripped the degrader by now: it is a no-wait
	// journal append, whose failed write returns to the manager like a
	// waited one. Poll briefly, since it runs after the job reads done.
	if err := waitCond(enospcWait, func() bool { return metrics.StoreDegradedTotal.Load() > 0 }); err != nil {
		return true, fmt.Errorf("disk-full fault fired but the store never degraded")
	}

	// Free space: the probe must notice on its own and re-enable
	// durability, then re-journal the episode's survivors.
	fsys.SetFull(false)
	if err := waitCond(enospcWait, func() bool { return metrics.StoreDegraded.Load() == 0 }); err != nil {
		return true, fmt.Errorf("store still degraded %v after space was freed; probe did not restore", enospcWait)
	}
	// The re-journal is done once the journal's record for the job is
	// its terminal one; the submit line journaled before the disk filled
	// does not count.
	if err := waitCond(enospcWait, func() bool {
		rec, ok := store.JournalSnapshot(fsys, storeRoot)[j.ID]
		return ok && service.JobState(rec.State) == service.StateDone
	}); err != nil {
		return true, fmt.Errorf("job %s not re-journaled as done after restore; degraded-era state stayed volatile", j.ID)
	}
	id, wantStep := j.ID, c.Steps
	mgr.Close()
	closed = true

	// Durable means power-cut durable: restart on whatever was synced
	// and the job accepted under disk pressure must come back terminal.
	fsys.PowerCycle()
	st2, err := store.OpenFS(fsys, storeRoot)
	if err != nil {
		return true, fmt.Errorf("store did not reopen after restore + power cut: %w", err)
	}
	mgr2 := service.NewManagerOpts(managerOptions(st2, &service.Metrics{}))
	defer mgr2.Close()
	j2, err := mgr2.Get(id)
	if err != nil {
		return true, fmt.Errorf("job %s accepted under disk-full vanished after restore + restart: %v", id, err)
	}
	if got := j2.Info(); got.State != service.StateDone || got.Step != wantStep {
		return true, fmt.Errorf("job recovered as %s at step %d, want %s at %d",
			got.State, got.Step, service.StateDone, wantStep)
	}
	return true, nil
}

// waitCond polls cond until it holds or the budget expires.
func waitCond(budget time.Duration, cond func() bool) error {
	deadline := time.Now().Add(budget)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", budget)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}
