package service

import (
	"bytes"
	"context"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/service/store"
	"repro/internal/steering"
)

// durableSpec is the shared workload for the durability suite: long
// enough that a kill lands mid-run, deterministic (no steering), with
// snapshots on so final fields can be compared bit-exactly.
func durableSpec(steps int) JobSpec {
	return JobSpec{
		Preset: "pipe", Steps: steps, Ranks: 2,
		SnapshotEvery: 500, CheckpointEvery: 32,
	}
}

func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// waitCheckpoint polls the store until the job has a valid checkpoint,
// returning its step.
func waitCheckpoint(t *testing.T, st *store.Store, id string) int {
	t.Helper()
	var step int
	waitFor(t, "first checkpoint of "+id, func() bool {
		_, s, err := st.Checkpoint(id)
		step = s
		return err == nil && s > 0
	})
	return step
}

// TestKillAndResumeBitExact is the resiliency e2e the ROADMAP asks
// for: a job is interrupted by a SIGKILL-equivalent daemon death
// (store writes cut dead, no graceful journaling), a new daemon on the
// same data dir re-queues it, and it resumes from the latest
// checkpoint — step counter strictly beyond the checkpoint step and
// final fields bit-exact against an uninterrupted run of the same
// spec.
func TestKillAndResumeBitExact(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	dir := t.TempDir()
	spec := durableSpec(8000)

	// Daemon #1: run until the first checkpoint lands, then die.
	st1 := openStore(t, dir)
	mgr1 := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: st1})
	j1, err := mgr1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCheckpoint(t, st1, j1.ID)
	if j1.State().Terminal() {
		t.Fatal("job finished before the kill; raise steps")
	}
	// SIGKILL equivalent: no store write after this instant survives;
	// Close just reaps the orphaned goroutines.
	st1.Freeze()
	mgr1.Close()
	ckptStep := func() int {
		_, s, err := st1.Checkpoint(j1.ID)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}()
	if ckptStep <= 0 || ckptStep >= spec.Steps {
		t.Fatalf("checkpoint step %d out of range", ckptStep)
	}

	// Daemon #2 on the same data dir: the job must come back queued,
	// flagged recovered, and resume from the checkpoint.
	mgr2 := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: openStore(t, dir)})
	defer mgr2.Close()
	j2, err := mgr2.Get(j1.ID)
	if err != nil {
		t.Fatalf("job not recovered: %v", err)
	}
	info := j2.Info()
	if !info.Recovered || info.Restarts != 1 {
		t.Errorf("recovered=%v restarts=%d, want true/1", info.Recovered, info.Restarts)
	}
	if info.ResumedFromStep != ckptStep {
		t.Errorf("resumed_from_step=%d, want checkpoint step %d", info.ResumedFromStep, ckptStep)
	}
	// The step counter must never be seen below the checkpoint: the
	// run continues, it does not start over.
	for !j2.State().Terminal() {
		if s := j2.Step(); s < ckptStep {
			t.Fatalf("resumed job observed at step %d < checkpoint %d", s, ckptStep)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if st := j2.State(); st != StateDone {
		t.Fatalf("resumed job ended %s (%s)", st, j2.Info().Error)
	}
	if s := j2.Step(); s != spec.Steps {
		t.Errorf("resumed job finished at step %d, want %d", s, spec.Steps)
	}

	// Reference: the same spec uninterrupted, no persistence.
	mgr3 := NewManagerOpts(Options{Workers: 1, QueueCap: 4})
	defer mgr3.Close()
	ref, err := mgr3.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reference run", func() bool { return ref.State().Terminal() })
	if ref.State() != StateDone {
		t.Fatalf("reference ended %s", ref.State())
	}
	got, _ := j2.LatestSnapshot()
	want, _ := ref.LatestSnapshot()
	if got == nil || want == nil {
		t.Fatal("missing final snapshots")
	}
	if got.Step != want.Step {
		t.Fatalf("final snapshot steps differ: %d vs %d", got.Step, want.Step)
	}
	for i := range want.Field.Rho {
		if got.Field.Rho[i] != want.Field.Rho[i] ||
			got.Field.Ux[i] != want.Field.Ux[i] ||
			got.Field.Uy[i] != want.Field.Uy[i] ||
			got.Field.Uz[i] != want.Field.Uz[i] {
			t.Fatalf("resumed run diverged from uninterrupted run at site %d", i)
		}
	}
}

// TestCorruptCheckpointFallsBackToStepZero: a valid spec whose
// checkpoint file is garbage must recover as a clean restart from
// step 0 — degraded, never a crash or a failed job.
func TestCorruptCheckpointFallsBackToStepZero(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	dir := t.TempDir()
	// Long enough that the job is still running when the store freezes
	// (the first checkpoint lands at step 32; the D3Q19 kernel steps a
	// pipe in ~30 µs).
	spec := durableSpec(2400)

	st1 := openStore(t, dir)
	mgr1 := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: st1})
	j1, err := mgr1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCheckpoint(t, st1, j1.ID)
	st1.Freeze()
	mgr1.Close()

	// Trash the checkpoint payload on disk.
	path := filepath.Join(dir, "jobs", j1.ID, "checkpoint.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	metrics := &Metrics{}
	mgr2 := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: openStore(t, dir), Metrics: metrics})
	defer mgr2.Close()
	if n := metrics.CheckpointsInvalid.Load(); n != 1 {
		t.Errorf("checkpoints_invalid = %d, want 1", n)
	}
	j2, err := mgr2.Get(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info := j2.Info(); !info.Recovered || info.ResumedFromStep != 0 {
		t.Errorf("recovered=%v resumed_from_step=%d, want true/0", info.Recovered, info.ResumedFromStep)
	}
	waitFor(t, "re-run from scratch", func() bool { return j2.State().Terminal() })
	if st := j2.State(); st != StateDone {
		t.Fatalf("re-run ended %s (%s)", st, j2.Info().Error)
	}
	if s := j2.Step(); s != spec.Steps {
		t.Errorf("re-run finished at step %d, want %d", s, spec.Steps)
	}
}

// TestMissingCheckpointFileRestartsFromZero: a journal whose state
// record says "running, checkpointed" but whose checkpoint.bin is gone
// (crashed mid-first-write, or the file was manually removed) must
// degrade to a restart from step 0 for that job — never fail the whole
// recovery, never poison the other jobs, and never count as a corrupt
// checkpoint (absence is the normal not-yet-checkpointed shape).
func TestMissingCheckpointFileRestartsFromZero(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	dir := t.TempDir()
	// Long enough that neither job finishes before the freeze: B keeps
	// running while the test waits for A's first checkpoint.
	spec := durableSpec(2400)

	// Two concurrent jobs, both checkpointed, then a kill.
	st1 := openStore(t, dir)
	mgr1 := NewManagerOpts(Options{Workers: 2, QueueCap: 4, Store: st1})
	jA, err := mgr1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	jB, err := mgr1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCheckpoint(t, st1, jA.ID)
	waitCheckpoint(t, st1, jB.ID)
	st1.Freeze()
	mgr1.Close()
	// B keeps checkpointing until the freeze cuts its writes, so its
	// last durable step is only known afterwards (reads still work).
	_, stepB, err := st1.Checkpoint(jB.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Job A loses its checkpoint file; job B keeps its tree intact.
	if err := os.Remove(filepath.Join(dir, "jobs", jA.ID, "checkpoint.bin")); err != nil {
		t.Fatal(err)
	}

	metrics := &Metrics{}
	mgr2 := NewManagerOpts(Options{Workers: 2, QueueCap: 4, Store: openStore(t, dir), Metrics: metrics})
	defer mgr2.Close()
	// Missing is not corrupt: no invalid-checkpoint count, no store
	// error — the job simply has nothing to resume from.
	if n := metrics.CheckpointsInvalid.Load(); n != 0 {
		t.Errorf("checkpoints_invalid = %d for a merely missing file, want 0", n)
	}
	if n := metrics.StoreErrors.Load(); n != 0 {
		t.Errorf("store_errors = %d, want 0", n)
	}
	a2, err := mgr2.Get(jA.ID)
	if err != nil {
		t.Fatalf("job with missing checkpoint dropped from recovery: %v", err)
	}
	if info := a2.Info(); !info.Recovered || info.ResumedFromStep != 0 {
		t.Errorf("missing-checkpoint job: recovered=%v resumed_from_step=%d, want true/0",
			info.Recovered, info.ResumedFromStep)
	}
	b2, err := mgr2.Get(jB.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info := b2.Info(); !info.Recovered || info.ResumedFromStep != stepB {
		t.Errorf("intact job: recovered=%v resumed_from_step=%d, want true/%d",
			info.Recovered, info.ResumedFromStep, stepB)
	}
	// Both re-runs complete: A from scratch, B from its checkpoint.
	waitFor(t, "both re-runs done", func() bool {
		return a2.State().Terminal() && b2.State().Terminal()
	})
	if st := a2.State(); st != StateDone {
		t.Errorf("missing-checkpoint job ended %s (%s)", st, a2.Info().Error)
	}
	if st := b2.State(); st != StateDone {
		t.Errorf("intact job ended %s (%s)", st, b2.Info().Error)
	}
	if s := a2.Step(); s != spec.Steps {
		t.Errorf("restarted job finished at step %d, want %d", s, spec.Steps)
	}
}

// TestGracefulShutdownResumesToo: a SIGTERM-style Close must leave the
// store's interrupted record intact (not "cancelled"), so the next
// boot resumes the job exactly like a crash would — restarts lose
// nothing either way. A job the user cancelled stays cancelled.
func TestGracefulShutdownResumesToo(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	dir := t.TempDir()
	spec := durableSpec(8000)

	st1 := openStore(t, dir)
	mgr1 := NewManagerOpts(Options{Workers: 2, QueueCap: 4, Store: st1})
	j1, err := mgr1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, err := mgr1.Submit(durableSpec(50_000))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "victim running", func() bool { return cancelled.State() == StateRunning })
	if err := mgr1.Cancel(cancelled); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "victim cancelled", func() bool { return cancelled.State().Terminal() })
	waitCheckpoint(t, st1, j1.ID)
	if j1.State().Terminal() {
		t.Fatal("job finished before shutdown; raise steps")
	}
	mgr1.Close() // graceful: drains, but must NOT journal j1 as cancelled

	rec, err := st1.State(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if JobState(rec.State).Terminal() {
		t.Fatalf("graceful shutdown journaled terminal state %q; restart would drop the job", rec.State)
	}

	mgr2 := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: openStore(t, dir)})
	defer mgr2.Close()
	j2, err := mgr2.Get(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info := j2.Info(); !info.Recovered || info.ResumedFromStep == 0 {
		t.Errorf("after graceful shutdown: recovered=%v resumed_from_step=%d, want true/>0",
			info.Recovered, info.ResumedFromStep)
	}
	c2, err := mgr2.Get(cancelled.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.State(); st != StateCancelled {
		t.Errorf("user-cancelled job recovered as %s, want cancelled history", st)
	}
	waitFor(t, "resumed job to finish", func() bool { return j2.State().Terminal() })
	if st := j2.State(); st != StateDone {
		t.Fatalf("resumed job ended %s (%s)", st, j2.Info().Error)
	}
}

// TestDoneJobsSurviveAsHistory: finished jobs reload as read-only
// history with their final step, and new submissions continue the ID
// sequence instead of colliding with journaled ones.
func TestDoneJobsSurviveAsHistory(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	dir := t.TempDir()
	spec := durableSpec(400)

	mgr1 := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: openStore(t, dir)})
	j1, err := mgr1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job done", func() bool { return j1.State() == StateDone })
	mgr1.Close()

	mgr2 := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: openStore(t, dir)})
	defer mgr2.Close()
	j2, err := mgr2.Get(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	info := j2.Info()
	if info.State != StateDone || !info.Recovered || info.Step != spec.Steps {
		t.Errorf("history = %+v, want done/recovered at step %d", info, spec.Steps)
	}
	if info.Restarts != 0 {
		t.Errorf("done job counted %d restarts", info.Restarts)
	}
	fresh, err := mgr2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID == j1.ID {
		t.Errorf("new submission reused journaled ID %s", fresh.ID)
	}
}

// copyFixture copies the data dir store/testdata/<name> into a fresh
// temporary directory and returns it.
func copyFixture(t *testing.T, name string) string {
	t.Helper()
	dir := t.TempDir()
	src := filepath.Join("store", "testdata", name)
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(dir, strings.TrimPrefix(path, src))
		if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestParentDataDirUpgrades boots the daemon on data dirs older code
// wrote. The first (store/testdata/parent-journal) is the previous
// on-disk format, spec.json/state.json sidecars plus a newer
// journal.wal: the finished job comes back as history at its final
// step, the paused one paused, the journal-only submission runs; the
// spec-only remnant and the job removed after its tombstone stay gone,
// new IDs continue above every journaled one, and no sidecar is left.
// The second (store/testdata/parent-steered) holds a job paused after
// being steered with set-iolet and with the since-deleted set-roi: it
// comes back paused, its compacted journal keeps the iolet override and
// drops every roi_ key, and once resumed the override reaches the
// solver.
func TestParentDataDirUpgrades(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	dir := copyFixture(t, "parent-journal")
	mgr := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: openStore(t, dir)})
	defer mgr.Close()
	done, err := mgr.Get("job-0001")
	if err != nil {
		t.Fatal(err)
	}
	if info := done.Info(); info.State != StateDone || info.Step != 64 || !info.Recovered {
		t.Errorf("finished job = %+v, want done/recovered at step 64", info)
	}
	for id, want := range map[string]JobState{"job-0002": StatePaused, "job-0005": StateDone} {
		j, err := mgr.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, id+" "+string(want), func() bool { return j.State() == want })
	}
	for _, id := range []string{"job-0003", "job-0004"} {
		if _, err := mgr.Get(id); err == nil {
			t.Errorf("%s came back; it has no live record", id)
		}
	}
	fresh, err := mgr.Submit(JobSpec{Preset: "pipe", Steps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.ID != "job-0006" {
		t.Errorf("new submission got ID %s, want job-0006", fresh.ID)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "jobs", "*", "*.json")); len(left) != 0 {
		t.Errorf("sidecars survived the upgrade: %v", left)
	}

	steered := copyFixture(t, "parent-steered")
	mgr2 := NewManagerOpts(Options{Workers: 2, QueueCap: 4, Store: openStore(t, steered)})
	defer mgr2.Close()
	j, err := mgr2.Get("job-0001")
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "steered job paused", func() bool { return j.State() == StatePaused })
	if rec, err := mgr2.store.State(j.ID); err != nil || rec.Steer == nil ||
		len(rec.Steer.Iolets) != 1 || rec.Steer.Iolets[0] != (store.IoletOver{Iolet: 0, Density: 1.2}) {
		t.Errorf("steering record after the upgrade: %+v (err %v)", rec.Steer, err)
	}
	wal, err := os.ReadFile(filepath.Join(steered, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(wal, []byte(`"roi_`)) {
		t.Errorf("compacted journal still carries roi_ keys:\n%s", wal)
	}
	plain, err := mgr2.Submit(j.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := mgr2.Resume(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	mean := func(j *Job) float64 {
		waitFor(t, j.ID+" done", func() bool { return j.State().Terminal() })
		snap, _ := j.LatestSnapshot()
		if j.State() != StateDone || snap == nil || snap.Step != j.Spec.Steps {
			t.Fatalf("%s ended %s with final snapshot %+v", j.ID, j.State(), snap)
		}
		var sum float64
		for _, rho := range snap.Field.Rho {
			sum += rho
		}
		return sum / float64(len(snap.Field.Rho))
	}
	if got, base := mean(j), mean(plain); got <= base+1e-3 {
		t.Errorf("recovered job's mean rho %v against %v unsteered: the iolet override was not re-applied", got, base)
	}
}

// TestRecoveredPausedJobServesFrames: a job that was paused when the
// daemon stopped comes back parked before its first step, and a parked
// solver publishes nothing on demand — so the run publishes the
// restored state once on the way in, and /frame and /data answer from
// it, at the checkpoint step, without anybody resuming the job.
func TestRecoveredPausedJobServesFrames(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	dir := t.TempDir()
	spec := durableSpec(2_000_000)

	st1 := openStore(t, dir)
	mgr1 := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: st1})
	j1, err := mgr1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitCheckpoint(t, st1, j1.ID)
	if err := mgr1.Pause(j1); err != nil {
		t.Fatal(err)
	}
	mgr1.Close()

	srv := NewServer(NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: openStore(t, dir)}))
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer ctxShutdown(t, srv)
	base := "http://" + srv.Addr() + "/api/v1/jobs/" + j1.ID
	j2, err := srv.mgr.Get(j1.ID)
	if err != nil {
		t.Fatalf("job not recovered: %v", err)
	}
	waitFor(t, "recovered job paused", func() bool { return j2.State() == StatePaused })
	ckptStep := j2.Info().ResumedFromStep
	if ckptStep <= 0 {
		t.Fatalf("recovered job resumed from step %d, want a checkpoint", ckptStep)
	}

	code, png := httpGetRaw(t, base+"/frame?w=48&h=36")
	if code != http.StatusOK || !bytes.HasPrefix(png, []byte{0x89, 'P', 'N', 'G'}) {
		t.Errorf("frame of a recovered paused job: status %d, %d bytes (%.80s)", code, len(png), png)
	}
	code, payload := httpGetRaw(t, base+"/data?min=0,0,0&max=999,999,999")
	if code != http.StatusOK || len(payload) == 0 {
		t.Errorf("data of a recovered paused job: status %d, %d bytes (%.80s)", code, len(payload), payload)
	}
	if snap, _ := j2.LatestSnapshot(); snap == nil || snap.Step != ckptStep {
		t.Errorf("served from snapshot %+v, want the restored state at step %d", snap, ckptStep)
	}
	if st, step := j2.State(), j2.Step(); st != StatePaused || step != ckptStep {
		t.Errorf("job is %s at step %d after serving, want still paused at %d", st, step, ckptStep)
	}
}

// closeRightAfter submits a durable job, waits for its first
// checkpoint, applies act and closes the manager at once, then returns
// the job's record from the reopened store: what a graceful restart
// would recover.
func closeRightAfter(t *testing.T, act func(*Manager, *Job) error) store.JobRecord {
	t.Helper()
	dir := t.TempDir()
	mgr := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: openStore(t, dir)})
	j, err := mgr.Submit(durableSpec(2_000_000))
	if err != nil {
		t.Fatal(err)
	}
	waitCheckpoint(t, mgr.store, j.ID)
	if err := act(mgr, j); err != nil {
		t.Fatal(err)
	}
	mgr.Close()
	st := openStore(t, dir)
	defer st.CloseJournal()
	rec, err := st.State(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestPauseThenCloseKeepsPaused: an acknowledged pause is in the
// journal before Pause returns, so a Close right behind it cannot lose
// it — the job comes back paused, not re-queued to run.
func TestPauseThenCloseKeepsPaused(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	for i := 0; i < 20; i++ {
		rec := closeRightAfter(t, func(m *Manager, j *Job) error { return m.Pause(j) })
		if !rec.Paused {
			t.Fatalf("round %d: record after pause + Close is %+v, want paused", i, rec)
		}
	}
}

// TestSteerThenCloseKeepsOverride: the same for a set-iolet steer —
// the override is journaled before Steer returns, whether the job was
// stepping or paused.
func TestSteerThenCloseKeepsOverride(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	for i := 0; i < 20; i++ {
		rec := closeRightAfter(t, func(m *Manager, j *Job) error {
			if i%2 == 1 {
				if err := m.Pause(j); err != nil {
					return err
				}
			}
			return m.Steer(j, steering.ClientMsg{Op: steering.OpSetIolet, Iolet: 0, Density: 1.05})
		})
		if rec.Steer == nil || len(rec.Steer.Iolets) != 1 || rec.Steer.Iolets[0] != (store.IoletOver{Iolet: 0, Density: 1.05}) {
			t.Fatalf("round %d: record after steer + Close is %+v, want the iolet 0 override", i, rec)
		}
	}
}
