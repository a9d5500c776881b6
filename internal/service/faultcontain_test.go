package service

import (
	"context"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultfs"
	"repro/internal/obs"
	"repro/internal/service/store"
	"repro/internal/steering"
)

// quarantineSpec is the shared workload of the fault-containment
// suite: deterministic, snapshots on so final fields compare
// bit-exactly, short enough to run many jobs per test.
func quarantineSpec(steps int) JobSpec {
	return JobSpec{Preset: "pipe", Steps: steps, SnapshotEvery: steps}
}

// hasEvent reports whether the job's flight recorder holds an event of
// the given type.
func hasEvent(j *Job, typ string) bool {
	for _, ev := range j.rec.Events() {
		if ev.Type == typ {
			return true
		}
	}
	return false
}

// TestPanicQuarantineE2E is the blast-radius e2e: a solver goroutine
// panics mid-run (injected through the step hook, exactly where a
// kernel bug would fire) and only that job dies. Its sibling — running
// concurrently on the same manager — finishes bit-exact against an
// uninterrupted reference, and the manager keeps accepting work.
func TestPanicQuarantineE2E(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	spec := quarantineSpec(300)
	metrics := &Metrics{}
	mgr := NewManagerOpts(Options{
		Workers: 2, QueueCap: 8, Metrics: metrics,
		StepHook: func(id string, step int) {
			if id == "job-0001" && step == 57 {
				panic("injected kernel fault")
			}
		},
	})
	defer mgr.Close()

	victim, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	sibling, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "victim terminal", func() bool { return victim.State().Terminal() })
	waitFor(t, "sibling terminal", func() bool { return sibling.State().Terminal() })

	if st := victim.State(); st != StateFailed {
		t.Fatalf("panicking job ended %s, want %s", st, StateFailed)
	}
	if msg := victim.Info().Error; !strings.Contains(msg, "injected kernel fault") {
		t.Errorf("victim error %q does not carry the panic value", msg)
	}
	if n := metrics.JobsPanicked.Load(); n != 1 {
		t.Errorf("jobs_panicked_total = %d, want 1", n)
	}
	if !hasEvent(victim, obs.EvPanic) {
		t.Error("victim flight recorder has no panic event")
	}
	if st := sibling.State(); st != StateDone {
		t.Fatalf("sibling ended %s (%s); the panic escaped its job", st, sibling.Info().Error)
	}

	// The sibling's result must be untouched by the neighbour's death.
	ref := NewManagerOpts(Options{Workers: 1, QueueCap: 4})
	defer ref.Close()
	rj, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reference terminal", func() bool { return rj.State().Terminal() })
	got, _ := sibling.LatestSnapshot()
	want, _ := rj.LatestSnapshot()
	if got == nil || want == nil || got.Step != want.Step {
		t.Fatal("missing or mismatched final snapshots")
	}
	for i := range want.Field.Rho {
		if got.Field.Rho[i] != want.Field.Rho[i] || got.Field.Ux[i] != want.Field.Ux[i] ||
			got.Field.Uy[i] != want.Field.Uy[i] || got.Field.Uz[i] != want.Field.Uz[i] {
			t.Fatalf("sibling diverged from reference at site %d", i)
		}
	}

	// The daemon is still open for business after quarantining a panic.
	after, err := mgr.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "post-panic job", func() bool { return after.State().Terminal() })
	if st := after.State(); st != StateDone {
		t.Fatalf("job submitted after the panic ended %s", st)
	}
}

// TestWatchdogFlagsStallWithoutRequeue stalls a job's stepping
// goroutine across several watchdog windows and requires the watchdog
// only to flag it: stall events and the metric fire, but nothing
// unwinds the run — it ends done after exactly its requested steps,
// never re-run from an earlier step, with no restart counted.
func TestWatchdogFlagsStallWithoutRequeue(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	var tripped atomic.Bool
	var callbacks atomic.Int64
	metrics := &Metrics{}
	mgr := NewManagerOpts(Options{
		Workers: 1, QueueCap: 4, Metrics: metrics,
		WatchdogStall: 25 * time.Millisecond,
		StepHook: func(id string, step int) {
			callbacks.Add(1)
			if step == 60 && !tripped.Swap(true) {
				time.Sleep(1200 * time.Millisecond)
			}
		},
	})
	defer mgr.Close()

	j, err := mgr.Submit(quarantineSpec(400))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "stalled job terminal", func() bool { return j.State().Terminal() })
	if st := j.State(); st != StateDone {
		t.Fatalf("job ended %s (%s), want %s", st, j.Info().Error, StateDone)
	}
	if n := callbacks.Load(); n != 400 {
		t.Errorf("step callbacks = %d, want 400 (no re-run)", n)
	}
	if r := j.Info().Restarts; r != 0 {
		t.Errorf("restarts = %d, want 0", r)
	}
	if n := metrics.WatchdogStalls.Load(); n < 2 {
		t.Errorf("watchdog_stalls_total = %d, want >= 2", n)
	}
	stalls := 0
	for _, ev := range j.rec.Events() {
		if ev.Type == obs.EvWatchdogStall {
			stalls++
		}
	}
	if stalls < 2 {
		t.Errorf("flight recorder holds %d watchdog-stall events, want >= 2", stalls)
	}
}

// TestPausedJobSurvivesRestart pauses a durable job, steers an iolet
// while it is parked, restarts the daemon, and requires the job to
// come back *paused* — not silently running — with the steering intact,
// then to finish normally once an operator resumes it.
func TestPausedJobSurvivesRestart(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	dir := t.TempDir()
	spec := durableSpec(8000)

	st1 := openStore(t, dir)
	mgr1 := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: st1})
	j1, err := mgr1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool { return j1.State() == StateRunning })
	if err := mgr1.Pause(j1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job paused", func() bool { return j1.State() == StatePaused })
	if err := mgr1.Steer(j1, steering.ClientMsg{Op: steering.OpSetIolet, Iolet: 0, Density: 1.02}); err != nil {
		t.Fatal(err)
	}
	// The pause and steer records are journaled asynchronously; wait for
	// them to be store-visible before the restart.
	waitFor(t, "paused record durable", func() bool {
		rec, err := st1.State(j1.ID)
		return err == nil && rec.Paused && rec.Steer != nil && len(rec.Steer.Iolets) == 1
	})
	mgr1.Close()

	mgr2 := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: openStore(t, dir)})
	defer mgr2.Close()
	j2, err := mgr2.Get(j1.ID)
	if err != nil {
		t.Fatalf("job not recovered: %v", err)
	}
	waitFor(t, "recovered job paused", func() bool { return j2.State() == StatePaused })
	info := j2.Info()
	if !info.Recovered {
		t.Error("recovered flag not set")
	}
	if rec, err := mgr2.store.State(j2.ID); err != nil || rec.Steer == nil ||
		len(rec.Steer.Iolets) != 1 || rec.Steer.Iolets[0].Density != 1.02 {
		t.Errorf("steering record lost across restart: %+v (err %v)", rec.Steer, err)
	}

	if err := mgr2.Resume(context.Background(), j2); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "resumed job terminal", func() bool { return j2.State().Terminal() })
	if st := j2.State(); st != StateDone {
		t.Fatalf("resumed job ended %s (%s)", st, j2.Info().Error)
	}
	if s := j2.Step(); s != spec.Steps {
		t.Errorf("resumed job finished at step %d, want %d", s, spec.Steps)
	}
}

// TestHealthzDegradedAndRecovers drives the disk-pressure path over
// HTTP: the disk fills, a submit is still accepted (non-durably),
// /healthz flips to "degraded", and once space frees the probe
// restores it to "ok" with no operator intervention.
func TestHealthzDegradedAndRecovers(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	fsys := faultfs.NewMem(1)
	st, err := store.OpenFS(fsys, "data")
	if err != nil {
		t.Fatal(err)
	}
	metrics := &Metrics{}
	mgr := NewManagerOpts(Options{
		Workers: 1, QueueCap: 4, Store: st, Metrics: metrics,
		StoreProbeEvery: 2 * time.Millisecond,
	})
	srv := NewServer(mgr)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	base := "http://" + srv.Addr()

	healthz := func() string {
		_, body := httpGetRaw(t, base+"/healthz")
		return strings.TrimSpace(string(body))
	}
	if got := healthz(); got != "ok" {
		t.Fatalf("healthz = %q before any fault", got)
	}

	fsys.SetFull(true)
	info := submit(t, base, `{"preset":"pipe","steps":96,"viz_every":-1}`)
	if n := metrics.StoreDegradedTotal.Load(); n != 1 {
		t.Fatalf("store_degraded_total = %d after a disk-full submit, want 1", n)
	}
	if got := healthz(); got != "degraded" {
		t.Fatalf("healthz = %q while degraded", got)
	}
	j, err := mgr.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "degraded-era job terminal", func() bool { return j.State().Terminal() })
	if st := j.State(); st != StateDone {
		t.Fatalf("job accepted under disk pressure ended %s", st)
	}

	fsys.SetFull(false)
	waitFor(t, "healthz back to ok", func() bool { return healthz() == "ok" })
	if v := metrics.StoreDegraded.Load(); v != 0 {
		t.Errorf("store_degraded gauge = %d after restore", v)
	}
	// The restore re-journals the episode's jobs; the accepted-blind
	// submit must become durable.
	waitFor(t, "job re-journaled", func() bool {
		rec, err := st.State(info.ID)
		return err == nil && rec.ID == info.ID
	})
}

// TestRejournalFinishesBeforeClose races the disk-pressure restore
// against Close. A job journaled queued finishes while the disk is
// full, so its later records are suppressed; space frees, and Close
// runs the instant the probe restores the store. The restore's
// re-journal of the terminal record must land before Close closes the
// journal: a power cut right after Close still recovers the job done
// at its final step, not re-queued from the queued record journaled
// before the disk filled.
func TestRejournalFinishesBeforeClose(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	spec := JobSpec{Preset: "pipe", Steps: 2000, SnapshotEvery: -1}
	for round := 0; round < 10; round++ {
		fsys := faultfs.NewMem(int64(round))
		st, err := store.OpenFS(fsys, "data")
		if err != nil {
			t.Fatal(err)
		}
		metrics := &Metrics{}
		mgr := NewManagerOpts(Options{
			Workers: 1, QueueCap: 4, Store: st, Metrics: metrics,
			CheckpointEvery: -1, StoreProbeEvery: time.Millisecond,
		})
		j, err := mgr.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		fsys.SetFull(true)
		waitFor(t, "job done", func() bool { return j.State().Terminal() })
		if j.State() != StateDone {
			t.Fatalf("round %d: job ended %s under disk pressure", round, j.State())
		}
		waitFor(t, "store degraded", func() bool { return metrics.StoreDegradedTotal.Load() > 0 })
		fsys.SetFull(false)
		for metrics.StoreDegraded.Load() != 0 {
			runtime.Gosched()
		}
		mgr.Close()

		fsys.PowerCycle()
		st2, err := store.OpenFS(fsys, "data")
		if err != nil {
			t.Fatal(err)
		}
		st2.CloseJournal()
		if rec, err := st2.State(j.ID); err != nil || rec.State != string(StateDone) || rec.Step != spec.Steps {
			t.Fatalf("round %d: journal after restore + Close + power cut holds %+v (%v), want done at step %d",
				round, rec, err, spec.Steps)
		}
	}
}

// TestRetentionGC checks the terminal-job sweeper: with a retention
// cap of one, finished jobs beyond the newest are removed from both
// the job table and the store.
func TestRetentionGC(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	dir := t.TempDir()
	metrics := &Metrics{}
	mgr := NewManagerOpts(Options{
		Workers: 1, QueueCap: 8, Store: openStore(t, dir), Metrics: metrics,
		StoreRetain: 1, GCInterval: 20 * time.Millisecond,
	})
	defer mgr.Close()

	var last *Job
	for i := 0; i < 3; i++ {
		j, err := mgr.Submit(JobSpec{Preset: "pipe", Steps: 64})
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, "job terminal", func() bool { return j.State().Terminal() })
		last = j
	}
	waitFor(t, "retention sweep", func() bool { return len(mgr.List()) == 1 })
	if n := metrics.JobsGCed.Load(); n != 2 {
		t.Errorf("jobs_gced_total = %d, want 2", n)
	}
	if _, err := mgr.Get(last.ID); err != nil {
		t.Errorf("newest job was GCed: %v", err)
	}
	waitFor(t, "store pruned", func() bool { return len(mgr.store.Jobs()) == 1 })
}
