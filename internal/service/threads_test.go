package service

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/service/store"
)

// TestSpecWithThreadsStillRuns: job specs no longer carry a solver
// thread count, but one written by an older client or journaled by an
// older daemon still says "threads": 4. Neither the HTTP layer nor the
// journal rejects unknown keys, so both the submission and the
// recovered journal record must decode and run to done.
func TestSpecWithThreadsStillRuns(t *testing.T) {
	const spec = `{"preset":"pipe","steps":64,"threads":4}`
	dir := t.TempDir()
	st := openStore(t, dir)
	if err := st.AppendSubmit("job-0001", json.RawMessage(spec), store.JobRecord{
		ID: "job-0001", State: string(StateQueued), CreatedAt: time.Now(),
	}); err != nil {
		t.Fatal(err)
	}
	st.CloseJournal()

	mgr := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: openStore(t, dir)})
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
	recovered, err := mgr.Get("job-0001")
	if err != nil {
		t.Fatalf("the journaled spec did not come back: %v", err)
	}
	submitted, err := mgr.Get(submit(t, "http://"+srv.Addr(), spec).ID)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{recovered, submitted} {
		waitFor(t, j.ID+" terminal", func() bool { return j.State().Terminal() })
		if info := j.Info(); info.State != StateDone || info.Step != 64 {
			t.Errorf("%s ended %s at step %d, want done at 64 (%s)", j.ID, info.State, info.Step, info.Error)
		}
	}
}

// TestJobDivergedLatch blows up a job mid-run (an absurd
// iolet density is the classic operator fat-finger) and checks the
// whole diagnostics chain the satellite added: JobInfo.Diverged flips,
// hemeserved_jobs_diverged_total increments once, and the flight
// recorder holds a diverged event — instead of the old failure mode of
// silently rendering NaN-grey frames under a reassuring MaxSpeed.
func TestJobDivergedLatch(t *testing.T) {
	// A big flight-recorder ring: the event flood of a fast-stepping
	// job (snapshot-skip every cadence) must not evict the diverged
	// event before the test reads it back.
	mgr := NewManagerOpts(Options{Workers: 1, QueueCap: 4, EventRing: 1 << 16})
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

	// tau near the 0.5 stability limit so the poisoned inlet blows up
	// within a few steps rather than a few thousand.
	j := submit(t, base, `{"preset":"pipe","steps":2000000,"threads":2,"tau":0.51,"viz_every":-1,"snapshot_every":4}`)
	waitFor(t, "job running", func() bool {
		var info JobInfo
		httpJSON(t, "GET", base+"/api/v1/jobs/"+j.ID, "", &info)
		return info.State == StateRunning
	})
	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+j.ID+"/steer",
		`{"op":"set-iolet","iolet":0,"density":1000000}`, nil); code != http.StatusOK {
		t.Fatalf("steer set-iolet: status %d", code)
	}
	// Snapshots are demand-driven, so divergence detection (which rides
	// the snapshot gather) needs a data-plane consumer. A live stream
	// subscriber keeps the interest latch set, making the solver publish
	// at every cadence check — one-shot /data polls would race the
	// tiny freshness window of a microseconds-per-step toy domain.
	streamCtx, stopStream := context.WithCancel(context.Background())
	defer stopStream()
	sreq, err := http.NewRequestWithContext(streamCtx, "GET", base+"/api/v1/jobs/"+j.ID+"/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	srep, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	defer srep.Body.Close()
	go io.Copy(io.Discard, srep.Body)

	waitFor(t, "diverged flag", func() bool {
		var info JobInfo
		httpJSON(t, "GET", base+"/api/v1/jobs/"+j.ID, "", &info)
		return info.Diverged
	})
	if n := metric(t, base, "hemeserved_jobs_diverged_total"); n != 1 {
		t.Errorf("hemeserved_jobs_diverged_total = %d, want 1 (latch must fire once)", n)
	}
	code, body := httpGetRaw(t, base+"/api/v1/jobs/"+j.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("/events status %d", code)
	}
	if !strings.Contains(string(body), `"diverged"`) {
		t.Errorf("flight recorder holds no diverged event: %s", body)
	}
	// Let a few more (still non-finite) snapshots publish: the latch
	// must not double-count.
	time.Sleep(200 * time.Millisecond)
	if n := metric(t, base, "hemeserved_jobs_diverged_total"); n != 1 {
		t.Errorf("hemeserved_jobs_diverged_total = %d after more snapshots, want 1", n)
	}
}

// TestJobStepsOnParticipants: a daemon job's solver claims its site
// parcels on up to GOMAXPROCS participants when its pass can feed
// them, and says how many in its dispatched event. aneurysm@3 (132
// parcels) splits and still ends on the fields of a serial run bit for
// bit; pipe@1 (5 parcels) is below the floor and steps on one.
func TestJobStepsOnParticipants(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("a split needs GOMAXPROCS >= 2")
	}
	t.Cleanup(goroutineBaseline(t))
	m := NewManagerOpts(Options{Workers: 2, QueueCap: 4})
	defer m.Close()
	big := JobSpec{Preset: "aneurysm", Scale: 3, Steps: 120, PulseAmp: 0.01, PulsePeriod: 50}
	small := JobSpec{Preset: "pipe", Steps: 64}
	participants := func(j *Job) int {
		_, rest, _ := strings.Cut(dispatchDetail(t, j), " participants=")
		if end := strings.IndexAny(rest, " ;"); end >= 0 {
			rest = rest[:end]
		}
		n, err := strconv.Atoi(rest)
		if err != nil {
			t.Fatalf("%s: dispatched event %q carries no participant count", j.ID, dispatchDetail(t, j))
		}
		return n
	}
	bj, err := m.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	sj, err := m.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	sameFields(t, bj.ID, finalFields(t, bj), uncachedFields(t, big))
	finalFields(t, sj)
	if n := participants(bj); n < 2 {
		t.Errorf("aneurysm@3 stepped on %d participant(s), want at least 2", n)
	}
	if n := participants(sj); n != 1 {
		t.Errorf("pipe@1 stepped on %d participants, want 1", n)
	}
}
