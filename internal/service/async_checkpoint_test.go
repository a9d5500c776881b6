package service

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/lb"
)

// gatedPutter is a checkpointPutter whose writes block until released,
// so tests can hold the writer goroutine "in flight" deterministically
// and exercise the back-pressure path.
type gatedPutter struct {
	entered chan struct{} // one signal per write that started
	release chan struct{} // one token per write allowed to finish

	mu     sync.Mutex
	steps  []int // header step of each completed write
	frames [][]byte
}

func (p *gatedPutter) PutCheckpoint(id string, data []byte) error {
	p.entered <- struct{}{}
	<-p.release
	info, err := lb.VerifyCheckpointBytes(data)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.steps = append(p.steps, info.Step)
	p.frames = append(p.frames, append([]byte(nil), data...))
	p.mu.Unlock()
	return nil
}

func (p *gatedPutter) PutCheckpointDelta(id string, seq uint64, data []byte) error {
	p.entered <- struct{}{}
	<-p.release
	di, err := lb.VerifyDeltaCheckpointBytes(data)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.steps = append(p.steps, di.Info.Step)
	p.frames = append(p.frames, append([]byte(nil), data...))
	p.mu.Unlock()
	return nil
}

func (p *gatedPutter) DropCheckpointDeltas(id string) error { return nil }

func testState(step int) *lb.CheckpointState {
	return &lb.CheckpointState{
		Info:     lb.CheckpointInfo{Step: step, Sites: 4, Q: 3, Iolets: 1},
		IoletRho: []float64{1.01},
		F:        make([]float64, 12),
	}
}

// TestCkptWriterCoalescesUnderBackpressure pins the writer's
// back-pressure contract: at most one write in flight, a second
// gathered state delivered while the first is still writing is
// overwritten by the third (latest wins, counted as coalesced), and
// Close drains whatever is pending. The solver-side calls
// (TakeBuffer/Deliver) never block on the gated store.
func TestCkptWriterCoalescesUnderBackpressure(t *testing.T) {
	metrics := &Metrics{}
	p := &gatedPutter{entered: make(chan struct{}, 4), release: make(chan struct{}, 4)}
	// fullEvery 1 keeps every write a full checkpoint: this test pins
	// the back-pressure contract, not the delta policy.
	w := newCkptWriter(p, "job-test", metrics, nil, nil, nil, nil, 1, 0)

	// First checkpoint: no buffer exists yet, core would allocate.
	if st := w.TakeBuffer(); st != nil {
		t.Fatalf("fresh writer handed out a buffer: %+v", st)
	}
	w.Deliver(testState(10))
	<-p.entered // writer is now mid-write on step 10

	// Second checkpoint while the first is in flight: still no free
	// buffer, so a second state gets allocated and parked as pending.
	if st := w.TakeBuffer(); st != nil {
		t.Fatalf("got a buffer while one write is in flight and none returned: %+v", st)
	}
	w.Deliver(testState(20))

	// Third checkpoint: the pending step-20 state is recycled —
	// coalesced away — and redelivered as step 30.
	st := w.TakeBuffer()
	if st == nil {
		t.Fatal("expected the pending state back for coalescing")
	}
	if st.Info.Step != 20 {
		t.Fatalf("recycled state was step %d, want the pending 20", st.Info.Step)
	}
	if n := metrics.CheckpointsCoalesced.Load(); n != 1 {
		t.Fatalf("coalesced = %d, want 1", n)
	}
	st.Info.Step = 30
	w.Deliver(st)

	// Let the writer finish both the in-flight and the drained write.
	p.release <- struct{}{}
	p.release <- struct{}{}
	w.Close()

	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.steps) != 2 || p.steps[0] != 10 || p.steps[1] != 30 {
		t.Fatalf("written steps %v, want [10 30] (20 coalesced away)", p.steps)
	}
	if n := metrics.CheckpointsWritten.Load(); n != 2 {
		t.Errorf("checkpoints_written = %d, want 2", n)
	}
	if metrics.CheckpointStallNs.Load() <= 0 {
		t.Error("checkpoint stall time was not accounted")
	}
	// The drained frame must be a valid, decodable checkpoint.
	if _, err := lb.DecodeCheckpointBytes(p.frames[1]); err != nil {
		t.Errorf("drained checkpoint does not decode: %v", err)
	}
}

// TestCkptWriterCloseWithoutDeliveries: a job that never checkpoints
// (error before the first cadence, instant cancel) must still shut its
// writer down cleanly.
func TestCkptWriterCloseWithoutDeliveries(t *testing.T) {
	p := &gatedPutter{entered: make(chan struct{}, 1), release: make(chan struct{}, 1)}
	w := newCkptWriter(p, "job-test", &Metrics{}, nil, nil, nil, nil, 8, 0)
	w.Close()
	w.Close() // idempotent
	if len(p.steps) != 0 {
		t.Fatalf("writer wrote %v with nothing delivered", p.steps)
	}
}

// TestCkptWriterDropsFinalStep: the state gathered at the job's final
// step is never written — the run is over and the job terminal — while
// the cadence states before it are.
func TestCkptWriterDropsFinalStep(t *testing.T) {
	p := &chainPutter{}
	w := newCkptWriter(p, "job-test", &Metrics{}, nil, nil, nil, nil, 1, 30)
	w.Deliver(policyState(10))
	waitFor(t, "checkpoint write", func() bool { return p.writes() == 1 })
	w.Deliver(policyState(30))
	w.Close() // drains whatever is pending: nothing
	if n := p.writes(); n != 1 {
		t.Fatalf("%d checkpoints written, want only the step-10 one", n)
	}
}

// TestZeroSubscriberJobSkipsSnapshotGathers is the acceptance check
// for demand-driven publication: a job nobody watches must perform no
// in-loop snapshot gathers — every cadence check is skipped (visible
// in the new counter) and only the unconditional final snapshot is
// published, so post-mortem frames still work.
func TestZeroSubscriberJobSkipsSnapshotGathers(t *testing.T) {
	metrics := &Metrics{}
	mgr := NewManagerOpts(Options{Workers: 1, QueueCap: 2, Metrics: metrics})
	defer mgr.Close()
	j, err := mgr.Submit(JobSpec{Preset: "pipe", Steps: 400, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "unwatched job to finish", func() bool { return j.State().Terminal() })
	if st := j.State(); st != StateDone {
		t.Fatalf("job ended %s (%s)", st, j.Info().Error)
	}
	if n := metrics.SnapshotsTotal.Load(); n != 1 {
		t.Errorf("snapshots_total = %d, want exactly the final publication", n)
	}
	if n := metrics.SnapshotsSkipped.Load(); n == 0 {
		t.Error("snapshots_skipped = 0; idle cadence checks were not skipped")
	}
	snap, _ := j.LatestSnapshot()
	if snap == nil || snap.Step != 400 {
		t.Fatalf("final snapshot missing or wrong step: %+v", snap)
	}
}

// TestDataServedFromSnapshotAfterTermination: the data plane is a
// snapshot consumer now — an ROI query against a finished job answers
// from the final snapshot's octree instead of erroring out, and two
// queries share one memoized tree build.
func TestDataServedFromSnapshotAfterTermination(t *testing.T) {
	mgr := NewManagerOpts(Options{Workers: 1, QueueCap: 2})
	defer mgr.Close()
	j, err := mgr.Submit(JobSpec{Preset: "pipe", Steps: 60, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "job to finish", func() bool { return j.State().Terminal() })
	query := func() []byte {
		t.Helper()
		reply, err := mgr.Data(j, [3]float64{}, [3]float64{}, 0, 3)
		if err != nil {
			t.Fatalf("post-mortem data query failed: %v", err)
		}
		var buf bytes.Buffer
		if n, err := reply.WriteTo(&buf); err != nil || int(n) != reply.Size() || buf.Len() != reply.Size() {
			t.Fatalf("reply of %d bytes wrote %d (%d buffered), err %v", reply.Size(), n, buf.Len(), err)
		}
		return buf.Bytes()
	}
	nodes := query()
	if len(nodes) <= 4 {
		t.Fatal("post-mortem data query returned no nodes")
	}
	if !bytes.Equal(nodes, query()) {
		t.Error("identical queries against one snapshot differ")
	}
}

// TestAsyncCheckpointKillMidWriteResumesBitExact extends the
// durability e2e to the async writer: the daemon dies with a
// checkpoint write torn mid-flight (an orphaned temp file next to the
// last completed atomic rename — exactly what SIGKILL during the
// writer's fsync+rename leaves behind). Recovery must sweep the
// remnant, resume from the intact checkpoint, and finish bit-exact
// against an uninterrupted run.
func TestAsyncCheckpointKillMidWriteResumesBitExact(t *testing.T) {
	dir := t.TempDir()
	spec := durableSpec(8000)

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
	// The kill lands while checkpoints are actively streaming: freeze
	// cuts every store write dead at this instant — any write the
	// async writer has in flight is lost mid-operation.
	st1.Freeze()
	// Plant the torn temp file such a death leaves behind.
	torn := filepath.Join(dir, "jobs", j1.ID, "checkpoint.bin.tmp-dead1")
	if err := os.WriteFile(torn, []byte("half a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	mgr1.Close()
	_, ckptStep, err := st1.Checkpoint(j1.ID)
	if err != nil {
		t.Fatalf("intact checkpoint unreadable after kill: %v", err)
	}

	// Daemon #2: the orphan is swept on store open, the job resumes
	// from the intact checkpoint and runs to completion.
	mgr2 := NewManagerOpts(Options{Workers: 1, QueueCap: 4, Store: openStore(t, dir)})
	defer mgr2.Close()
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Errorf("torn temp file survived recovery: %v", err)
	}
	j2, err := mgr2.Get(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info := j2.Info(); info.ResumedFromStep != ckptStep {
		t.Errorf("resumed_from_step = %d, want %d", info.ResumedFromStep, ckptStep)
	}
	waitFor(t, "resumed job to finish", func() bool { return j2.State().Terminal() })
	if st := j2.State(); st != StateDone {
		t.Fatalf("resumed job ended %s (%s)", st, j2.Info().Error)
	}

	// Reference: same spec, uninterrupted, in-memory.
	mgr3 := NewManagerOpts(Options{Workers: 1, QueueCap: 4})
	defer mgr3.Close()
	ref, err := mgr3.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "reference run", func() bool { return ref.State().Terminal() })
	got, _ := j2.LatestSnapshot()
	want, _ := ref.LatestSnapshot()
	if got == nil || want == nil || got.Step != want.Step {
		t.Fatalf("final snapshots missing or misaligned: %v vs %v", got, want)
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
