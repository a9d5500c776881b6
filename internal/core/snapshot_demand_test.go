package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/geometry"
	"repro/internal/steering"
)

// TestDemandDrivenSnapshotsIdleBackoff: with a SnapshotInterest hook
// that never reports demand, the run must publish no in-loop snapshots
// at all (only the unconditional final one) and must back its interest
// polls off — doubling the gap between checks up to 8× the cadence —
// instead of asking every cadence forever.
func TestDemandDrivenSnapshotsIdleBackoff(t *testing.T) {
	var published []int
	polls := 0
	s, err := New(Config{
		Vessel: geometry.Pipe(16, 3), H: 1, Tau: 0.9,
		Ranks: 2, VizEvery: 0,
		SnapshotEvery:    4,
		OnSnapshot:       func(sn *Snapshot) { published = append(published, sn.Step) },
		SnapshotInterest: func() bool { polls++; return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(200); err != nil {
		t.Fatal(err)
	}
	// Checks land at 4, then back off 8, 16, 32, 32, ... steps:
	// 4, 12, 28, 60, 92, 124, 156, 188 — eight polls over 200 steps
	// instead of fifty fixed-cadence gathers.
	if polls != 8 {
		t.Errorf("interest polled %d times, want 8 (back-off schedule)", polls)
	}
	if len(published) != 1 || published[0] != 200 {
		t.Errorf("published snapshots at %v, want only the final one at [200]", published)
	}
}

// TestSnapshotsWaitOutFrames: a solver that has waited for its frames
// longer than it has stepped since its last snapshot leaves standing
// demand latched instead of publishing. Every snapshot here gets a
// frame of 100 ms, which the solver waits out before its next step, and
// demand never lapses; so each in-loop snapshot after the first must
// come at least twice the wait after the one before — the wait, then
// as long again stepping — however fast the pipe steps. Without the
// rule the next check, four steps on, publishes at once.
func TestSnapshotsWaitOutFrames(t *testing.T) {
	const frame, slack = 100 * time.Millisecond, 20 * time.Millisecond
	ctrl := steering.NewController()
	defer ctrl.Close()
	type pub struct {
		step int
		at   time.Time
	}
	var published []pub
	s, err := New(Config{
		Vessel: geometry.Pipe(16, 3), H: 1, Tau: 0.9,
		Ranks: 2, VizEvery: 0,
		Controller:    ctrl,
		SnapshotEvery: 4,
		OnSnapshot: func(sn *Snapshot) {
			published = append(published, pub{sn.Step, time.Now()})
			started := make(chan struct{})
			go sn.Frame(func() error {
				close(started)
				time.Sleep(frame)
				return nil
			})
			<-started
		},
		SnapshotInterest: func() bool { return true },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	// The final snapshot at 100 is unconditional; the in-loop ones
	// start with the step-1 steering boundary's probe.
	if len(published) < 2 || published[0].step != 1 || published[len(published)-1].step != 100 {
		t.Fatalf("published %v, want 1 first and 100 last", published)
	}
	for i := 1; i < len(published)-1; i++ {
		if gap := published[i].at.Sub(published[i-1].at); gap < 2*(frame-slack) {
			t.Errorf("snapshot at step %d came %v after the one at %d, want at least %v: the solver owed steps",
				published[i].step, gap, published[i-1].step, 2*(frame-slack))
		}
	}
}

// TestDemandDrivenSnapshotsPullForwardDuringBackoff: a viewer arriving
// while the job is deep in idle back-off must not wait out the
// backed-off schedule — the per-16-step steering boundary probes the
// interest latch (riding the command broadcast that happens anyway)
// and pulls publication forward.
func TestDemandDrivenSnapshotsPullForwardDuringBackoff(t *testing.T) {
	ctrl := steering.NewController()
	defer ctrl.Close()
	var published []int
	interested := []bool{false, false, false, false, true}
	polls := 0
	s, err := New(Config{
		Vessel: geometry.Pipe(16, 3), H: 1, Tau: 0.9,
		Ranks: 2, VizEvery: 0,
		Controller:    ctrl,
		SnapshotEvery: 8,
		OnSnapshot:    func(sn *Snapshot) { published = append(published, sn.Step) },
		SnapshotInterest: func() bool {
			want := polls < len(interested) && interested[polls]
			polls++
			return want
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(40); err != nil {
		t.Fatal(err)
	}
	// Steering boundaries land at completed-step counts 1, 17, 33, …
	// and, nothing being published yet, each probes the latch: 1 (no),
	// 17 (no). Cadence checks at 8 (no) and 24 (no) push the next check
	// out to 56 — past the run. The step-33 boundary finds the latch set
	// and publishes right there, far before the backed-off check; the
	// final state follows at 40.
	if len(published) == 0 || published[0] != 33 {
		t.Errorf("published at %v, want the back-off pull-forward at step 33 first", published)
	}
	if len(published) != 2 || published[len(published)-1] != 40 {
		t.Errorf("published at %v, want [33 40]", published)
	}
}

// TestDemandDrivenSnapshotsPublishOnInterest: registered interest is
// consumed one publication at a time — a single true answer yields a
// snapshot at the next cadence boundary, and the streak reset means
// the following check happens one cadence later, not deep into
// back-off.
func TestDemandDrivenSnapshotsPublishOnInterest(t *testing.T) {
	var published []int
	interested := []bool{true, true, false, true, false, false, false, false, false, false}
	polls := 0
	s, err := New(Config{
		Vessel: geometry.Pipe(16, 3), H: 1, Tau: 0.9,
		Ranks: 2, VizEvery: 0,
		SnapshotEvery: 10,
		OnSnapshot:    func(sn *Snapshot) { published = append(published, sn.Step) },
		SnapshotInterest: func() bool {
			want := polls < len(interested) && interested[polls]
			polls++
			return want
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	// Polls: 10(yes→publish), 20(yes→publish), 30(no), 50(yes→publish),
	// 60(no), 80(no), then next check would be 120 — plus the
	// unconditional final snapshot at 100.
	want := []int{10, 20, 50, 100}
	if len(published) != len(want) {
		t.Fatalf("published at %v, want %v", published, want)
	}
	for i, step := range want {
		if published[i] != step {
			t.Fatalf("published at %v, want %v", published, want)
		}
	}
	if polls != 6 {
		t.Errorf("interest polled %d times, want 6", polls)
	}
}

// TestStartPausedPublishesStartState: a run that starts parked
// publishes the state it starts from before it waits for a resume —
// nobody's interest is needed, and nothing else is published until the
// run moves on.
func TestStartPausedPublishesStartState(t *testing.T) {
	ctrl := steering.NewController()
	defer ctrl.Close()
	published := make(chan int, 8)
	s, err := New(Config{
		Vessel: geometry.Pipe(16, 3), H: 1, Tau: 0.9,
		Ranks:            2,
		Controller:       ctrl,
		StartPaused:      true,
		SnapshotEvery:    8,
		OnSnapshot:       func(sn *Snapshot) { published <- sn.Step },
		SnapshotInterest: func() bool { return false },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan error, 1)
	go func() { done <- s.Run(20) }()
	if step := <-published; step != 0 {
		t.Errorf("first snapshot of a start-paused run at step %d, want 0", step)
	}
	if rep, err := ctrl.Do(steering.ClientMsg{Op: steering.OpResume}); err != nil || rep.Error != "" {
		t.Fatalf("resume: %v %s", err, rep.Error)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	close(published)
	var rest []int
	for step := range published {
		rest = append(rest, step)
	}
	if len(rest) != 1 || rest[0] != 20 {
		t.Errorf("after the resume published at %v, want only the final one at [20]", rest)
	}
}

// TestFirstViewerPullsFirstSnapshot: a viewer already waiting when the
// run starts gets its first snapshot at the first steering boundary —
// after step 1 — not a whole cadence later, and the cadence restarts
// from there. An unwatched run answers a few more probes, on broadcasts
// it makes anyway, and publishes nothing more for it.
func TestFirstViewerPullsFirstSnapshot(t *testing.T) {
	run := func(interested []bool) (published []int, polls int) {
		ctrl := steering.NewController()
		defer ctrl.Close()
		s, err := New(Config{
			Vessel: geometry.Pipe(16, 3), H: 1, Tau: 0.9,
			Ranks: 2, VizEvery: 0,
			Controller:    ctrl,
			SnapshotEvery: 16,
			OnSnapshot:    func(sn *Snapshot) { published = append(published, sn.Step) },
			SnapshotInterest: func() bool {
				want := polls < len(interested) && interested[polls]
				polls++
				return want
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if err := s.Run(100); err != nil {
			t.Fatal(err)
		}
		return published, polls
	}

	// Watched from before the start, and again at the next two cadence
	// checks (17, 33); then nobody.
	published, _ := run([]bool{true, true, true})
	if want := []int{1, 17, 33, 100}; !slices.Equal(published, want) {
		t.Errorf("watched run published at %v, want %v", published, want)
	}

	// Unwatched: cadence checks at 16 and 48 (the next, 4× later, is
	// past the end) and the boundaries that probe — 1, 17 and 33 because
	// nothing is published yet, 49, 65, 81 and 97 because the checks are
	// backed off. Without the first-viewer probe 1 and 33 would not.
	published, polls := run(nil)
	if want := []int{100}; !slices.Equal(published, want) {
		t.Errorf("unwatched run published at %v, want only the final state %v", published, want)
	}
	if polls != 9 {
		t.Errorf("unwatched run polled interest %d times, want 9", polls)
	}
}
