package service

import (
	"context"
	"errors"
	"net/http"
	"testing"
	"time"

	"repro/internal/geometry"
	"repro/internal/lattice"
	"repro/internal/obs"
)

// longSpec is a job that outlives any test body; cleanup cancels it.
const longSpec = `{"preset":"pipe","steps":2000000,"viz_every":-1}`

func jobInfo(t *testing.T, base, id string) JobInfo {
	t.Helper()
	var info JobInfo
	httpJSON(t, "GET", base+"/api/v1/jobs/"+id, "", &info)
	return info
}

func waitState(t *testing.T, base, id string, want JobState) {
	t.Helper()
	waitFor(t, id+" to reach "+string(want), func() bool {
		return jobInfo(t, base, id).State == want
	})
}

// TestPausedJobsDoNotPinWorkers is the regression test for the
// paused-jobs-pin-workers bug: with W workers and W paused jobs, a
// fresh submission must still run, because pausing hands the
// concurrency slot back to the pool.
func TestPausedJobsDoNotPinWorkers(t *testing.T) {
	checkLeaks := goroutineBaseline(t)
	const workers = 2
	srv, base := startServer(t, workers, 8)

	ids := make([]string, workers)
	for i := range ids {
		ids[i] = submit(t, base, longSpec).ID
	}
	for _, id := range ids {
		waitState(t, base, id, StateRunning)
	}
	// Park every worker-slot-holding job.
	for _, id := range ids {
		if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+id+"/pause", "", nil); code != http.StatusOK {
			t.Fatalf("pause %s: status %d", id, code)
		}
	}
	// All slots are free now: a new job must reach running, and not by
	// stealing a paused job's steering loop — the paused jobs stay
	// paused.
	fresh := submit(t, base, longSpec).ID
	waitState(t, base, fresh, StateRunning)
	for _, id := range ids {
		if st := jobInfo(t, base, id).State; st != StatePaused {
			t.Errorf("job %s left paused state: %s", id, st)
		}
	}
	// Resume one: it re-acquires a slot (one is free: workers=2, one
	// running) and steps again.
	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+ids[0]+"/resume", "", nil); code != http.StatusOK {
		t.Fatalf("resume: status %d", code)
	}
	at := jobInfo(t, base, ids[0]).Step
	waitFor(t, "resumed job to advance", func() bool {
		return jobInfo(t, base, ids[0]).Step > at
	})

	ctxShutdown(t, srv)
	checkLeaks()
}

// TestCancelWhileQueued: a job cancelled before a slot frees must
// terminate with zero steps and never transition through running.
func TestCancelWhileQueued(t *testing.T) {
	checkLeaks := goroutineBaseline(t)
	srv, base := startServer(t, 1, 4)

	running := submit(t, base, longSpec).ID
	waitState(t, base, running, StateRunning)
	queued := submit(t, base, longSpec).ID
	if st := jobInfo(t, base, queued).State; st != StateQueued {
		t.Fatalf("second job state %s, want queued", st)
	}
	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+queued+"/cancel", "", nil); code != http.StatusOK {
		t.Fatalf("cancel queued: status %d", code)
	}
	info := jobInfo(t, base, queued)
	if info.State != StateCancelled || info.Step != 0 || info.StartedAt != "" {
		t.Errorf("cancelled-while-queued job: %+v", info)
	}
	// Post-terminal ops are conflicts, not hangs.
	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+queued+"/pause", "", nil); code != http.StatusConflict {
		t.Errorf("pause after cancel: status %d, want 409", code)
	}
	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+queued+"/cancel", "", nil); code != http.StatusConflict {
		t.Errorf("double cancel: status %d, want 409", code)
	}
	// The runner never ran it, and the first job is unaffected.
	if st := jobInfo(t, base, running).State; st != StateRunning {
		t.Errorf("running job disturbed: %s", st)
	}

	ctxShutdown(t, srv)
	checkLeaks()
}

// TestPauseThenCancel: cancelling a paused job must reach cancelled —
// the quit has to wake the parked PollWait loop.
func TestPauseThenCancel(t *testing.T) {
	checkLeaks := goroutineBaseline(t)
	srv, base := startServer(t, 1, 4)

	id := submit(t, base, longSpec).ID
	waitState(t, base, id, StateRunning)
	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+id+"/pause", "", nil); code != http.StatusOK {
		t.Fatalf("pause: status %d", code)
	}
	stepAtPause := jobInfo(t, base, id).Step
	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+id+"/cancel", "", nil); code != http.StatusOK {
		t.Fatalf("cancel paused: status %d", code)
	}
	waitState(t, base, id, StateCancelled)
	// A paused job consumes no steps between pause and cancel.
	if info := jobInfo(t, base, id); info.Step > stepAtPause+1 {
		t.Errorf("paused job stepped from %d to %d before cancel", stepAtPause, info.Step)
	}

	ctxShutdown(t, srv)
	checkLeaks()
}

// TestDoubleResume: a repeated pause or resume is idempotent — the
// second one answers 200, records no second event and moves no second
// worker slot; a doubly-resumed job still steps, and a following
// pause/submit cycle still works.
func TestDoubleResume(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ops   []string
		want  JobState
		event string // recorded exactly once
		free  int    // worker slots free afterwards, of one
	}{
		{"pause×2", []string{"pause", "pause"}, StatePaused, obs.EvPause, 1},
		{"resume×2", []string{"pause", "resume", "resume"}, StateRunning, obs.EvResume, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkLeaks := goroutineBaseline(t)
			// A ring that holds every event of the test, step samples
			// included.
			m := NewManagerOpts(Options{Workers: 1, QueueCap: 4, EventRing: 1 << 16})
			srv := NewServer(m)
			if err := srv.Start("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
			base := "http://" + srv.Addr()
			id := submit(t, base, longSpec).ID
			waitState(t, base, id, StateRunning)
			for i, op := range tc.ops {
				if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+id+"/"+op, "", nil); code != http.StatusOK {
					t.Fatalf("%s (op %d): status %d", op, i+1, code)
				}
			}
			info := jobInfo(t, base, id)
			if info.State != tc.want {
				t.Fatalf("state after %v: %s, want %s", tc.ops, info.State, tc.want)
			}
			if tc.want == StateRunning {
				waitFor(t, "doubly-resumed job to advance", func() bool {
					return jobInfo(t, base, id).Step > info.Step
				})
			}
			j, err := m.Get(id)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, ev := range j.rec.Events() {
				if ev.Type == tc.event {
					n++
				}
			}
			if n != 1 {
				t.Errorf("%d %q events after %v, want 1", n, tc.event, tc.ops)
			}
			if free := len(m.slots); free != tc.free {
				t.Errorf("%d worker slots free after %v, want %d", free, tc.ops, tc.free)
			}
			// A slot leaked or given back twice would show here: the job
			// paused, one fresh job takes the one slot.
			if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+id+"/pause", "", nil); code != http.StatusOK {
				t.Fatalf("pause after %v: status %d", tc.ops, code)
			}
			other := submit(t, base, longSpec).ID
			waitState(t, base, other, StateRunning)
			if free := len(m.slots); free != 0 {
				t.Errorf("%d worker slots free with one job running, want 0", free)
			}
			ctxShutdown(t, srv)
			checkLeaks()
		})
	}
}

// TestResumeBeforeRecoveredPark: a job recovered paused that has
// dispatched but not parked yet refuses a resume (ErrNotRunning, 409)
// rather than acknowledge one its park would undo; once parked, a
// resume takes and the job steps.
func TestResumeBeforeRecoveredPark(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	dir := t.TempDir()
	mgr1 := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: openStore(t, dir)})
	// After the restart, busy holds the one slot and parked waits queued
	// behind it; their domains differ, so parked's can be held back.
	busy, err := mgr1.Submit(JobSpec{Preset: "pipe", Steps: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	parked, err := mgr1.Submit(JobSpec{Preset: "bend", Steps: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "busy running", func() bool { return busy.State() == StateRunning })
	if err := mgr1.Pause(busy); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "parked running", func() bool { return parked.State() == StateRunning && parked.Info().NumSites > 0 })
	if err := mgr1.Pause(parked); err != nil {
		t.Fatal(err)
	}
	if err := mgr1.Resume(context.Background(), busy); err != nil {
		t.Fatal(err)
	}
	mgr1.Close()

	m := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: openStore(t, dir)})
	defer m.Close()
	busy, _ = m.Get(busy.ID)
	j, err := m.Get(parked.ID)
	if err != nil {
		t.Fatalf("job not recovered: %v", err)
	}
	waitFor(t, "busy running again", func() bool { return busy.State() == StateRunning })
	// Hold the parked job's dispatch in its domain build.
	cfg, err := j.Spec.coreConfig()
	if err != nil {
		t.Fatal(err)
	}
	release, built := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(built)
		_, _, _ = m.domains.get(j.Spec.domainKey(), func() (*geometry.Domain, error) {
			<-release
			return geometry.Voxelise(cfg.Vessel, cfg.H, lattice.D3Q19())
		})
	}()
	waitFor(t, "domain build started", func() bool {
		m.domains.mu.Lock()
		defer m.domains.mu.Unlock()
		return m.domains.entries[j.Spec.domainKey()] != nil
	})
	if err := m.Pause(busy); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "recovered paused job dispatched", func() bool { return j.State() == StateRunning })
	if err := m.Resume(context.Background(), j); !errors.Is(err, ErrNotRunning) {
		t.Errorf("resume before the park: %v, want ErrNotRunning", err)
	}
	close(release)
	<-built
	waitFor(t, "recovered job parked", func() bool { return j.State() == StatePaused })
	if err := m.Resume(context.Background(), j); err != nil {
		t.Fatalf("resume after the park: %v", err)
	}
	at := j.Step()
	waitFor(t, "resumed job to advance", func() bool { return j.Step() > at })
	if free := len(m.slots); free != 0 {
		t.Errorf("%d worker slots free with one job running, want 0", free)
	}
}

// TestSubmitAfterShutdown: a closed manager rejects work at both the
// API and HTTP layers instead of accepting jobs that can never run.
func TestSubmitAfterShutdown(t *testing.T) {
	checkLeaks := goroutineBaseline(t)
	mgr := NewManagerOpts(Options{Workers: 1, QueueCap: 4})
	j, err := mgr.Submit(JobSpec{Preset: "pipe", Steps: 2000000})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job running", func() bool { return j.State() == StateRunning })
	mgr.Close()
	if st := j.State(); st != StateCancelled {
		t.Errorf("job state after Close: %s, want cancelled", st)
	}
	if _, err := mgr.Submit(JobSpec{Preset: "pipe", Steps: 100}); err != ErrClosed {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	mgr.Close()
	checkLeaks()
}

// ctxShutdown shuts a server down within the test's patience.
func ctxShutdown(t *testing.T, srv *Server) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(45 * time.Second):
		t.Fatal("shutdown hung")
	}
}
