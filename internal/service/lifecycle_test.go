package service

import (
	"context"
	"net/http"
	"testing"
	"time"
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

// TestDoubleResume: resuming twice is idempotent — the second resume
// must neither error, nor corrupt the state machine, nor leak a
// concurrency slot (a following pause/submit cycle still works).
func TestDoubleResume(t *testing.T) {
	checkLeaks := goroutineBaseline(t)
	srv, base := startServer(t, 1, 4)

	id := submit(t, base, longSpec).ID
	waitState(t, base, id, StateRunning)
	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+id+"/pause", "", nil); code != http.StatusOK {
		t.Fatalf("pause: status %d", code)
	}
	for i := 0; i < 2; i++ {
		if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+id+"/resume", "", nil); code != http.StatusOK {
			t.Fatalf("resume %d: status %d", i+1, code)
		}
	}
	if st := jobInfo(t, base, id).State; st != StateRunning {
		t.Fatalf("state after double resume: %s", st)
	}
	at := jobInfo(t, base, id).Step
	waitFor(t, "doubly-resumed job to advance", func() bool {
		return jobInfo(t, base, id).Step > at
	})
	// If double-resume leaked a slot grant, this pause would free two
	// and a later accounting would wedge; exercise one more cycle.
	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+id+"/pause", "", nil); code != http.StatusOK {
		t.Fatalf("pause after double resume: status %d", code)
	}
	other := submit(t, base, longSpec).ID
	waitState(t, base, other, StateRunning)

	ctxShutdown(t, srv)
	checkLeaks()
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
