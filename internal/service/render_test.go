package service

import (
	"bytes"
	"errors"
	"image/png"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geometry"
	"repro/internal/insitu"
	"repro/internal/lattice"
)

// randomField fills every site of dom with a small random flow.
func randomField(dom *geometry.Domain, seed int64) *field.Field {
	n := dom.NumSites()
	rng := rand.New(rand.NewSource(seed))
	f := &field.Field{Dom: dom, Rho: make([]float64, n), Ux: make([]float64, n), Uy: make([]float64, n), Uz: make([]float64, n)}
	for i := 0; i < n; i++ {
		f.Rho[i], f.Ux[i], f.Uy[i], f.Uz[i] = 1+0.01*rng.Float64(), 0.01*rng.Float64(), 0.01*rng.Float64(), 0.05*rng.Float64()
	}
	return f
}

// TestFrameAllocationBudget guards the frame-path diet on the
// kernel-large domain (tree@3.0, 79 746 sites): a cache-miss 256×192
// volume frame through the manager's frame path allocates the PNG it
// returns and little else — the frame buffers keep their image, scalar
// table, 8-bit image and compressor state (16 KB in 8 objects with this
// field's 11 KB PNG). It took ≈ 4.7 MB per frame, each fresh page a
// first-touch fault on a tight heap; the ceiling leaves room for a
// larger PNG only.
func TestFrameAllocationBudget(t *testing.T) {
	v, err := geometry.VesselByName("tree", 3.0)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := geometry.Voxelise(v, 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	m := NewManagerOpts(Options{Workers: 1, QueueCap: 1})
	defer m.Close()
	snap := &core.Snapshot{Seq: 1, Field: randomField(dom, 4)}
	frame := func(i int) []byte {
		req := insitu.DefaultRequest()
		req.W, req.H, req.Azimuth = 256, 192, 0.5+0.37*float64(i)
		data, w, h, err := m.frameFromSnapshot(snap, req)
		if err != nil || w != 256 || h != 192 {
			t.Fatalf("frame %d: %dx%d, %v", i, w, h, err)
		}
		return data
	}
	img, err := png.Decode(bytes.NewReader(frame(0))) // warm: bricks, frame buffers
	if err != nil || img.Bounds().Dx() != 256 {
		t.Fatalf("warm frame does not decode: %v", err)
	}
	const rounds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pngBytes := 0
	for r := 1; r <= rounds; r++ {
		pngBytes += len(frame(r))
	}
	runtime.ReadMemStats(&after)
	if n := m.metrics.RendersTotal.Load(); n != rounds+1 {
		t.Fatalf("%d distinct views cost %d renders", rounds+1, n)
	}
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	objects := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("one frame of %d sites: %.0f bytes in %.0f objects, of which PNG %d bytes", dom.NumSites(), perFrame, objects, pngBytes/rounds)
	const maxBytes, maxObjects = 0.5e6, 40
	if !raceEnabled && (perFrame > maxBytes || objects > maxObjects) {
		t.Errorf("one frame allocates %.0f bytes in %.0f objects, budget %.0f bytes / %d objects", perFrame, objects, maxBytes, maxObjects)
	}
}

// TestFramePanicReturnsBuffers: a render that panics fails only its own
// frame, with ErrInternal, and gives its frame buffers back. After one
// more panicking render than there are sets, a normal frame on the same
// manager still renders; a set kept by a panic would leave the last
// renders waiting for one forever.
func TestFramePanicReturnsBuffers(t *testing.T) {
	const workers = 2
	m := NewManagerOpts(Options{Workers: workers, QueueCap: 1})
	defer m.Close()
	dom, err := voxelised(t, "pipe")()
	if err != nil {
		t.Fatal(err)
	}
	// A render of a field marked with a negative first density panics
	// on purpose, holding its set of frame buffers.
	m.framePNG = func(b *insitu.FrameBuffers, f *field.Field, req insitu.Request) ([]byte, int, int, error) {
		if f.Rho[0] < 0 {
			panic("deliberate render panic")
		}
		return b.FramePNG(f, req)
	}
	req := insitu.DefaultRequest()
	done := make(chan error, 1)
	go func() {
		for i := range workers + 1 {
			bad := &core.Snapshot{Seq: uint64(i + 1), Field: randomField(dom, 1)}
			bad.Field.Rho[0] = -1
			if _, _, _, err := m.frameFromSnapshot(bad, req); !errors.Is(err, ErrInternal) {
				done <- errors.Join(errors.New("a panicking render did not fail with ErrInternal"), err)
				return
			}
		}
		good := &core.Snapshot{Seq: 100, Field: randomField(dom, 1)}
		data, _, _, err := m.frameFromSnapshot(good, req)
		if err == nil {
			_, err = png.Decode(bytes.NewReader(data))
		}
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("renders after %d panics never got frame buffers", workers+1)
	}
	if n := m.metrics.RenderQueueDepth.Load(); n != 0 {
		t.Errorf("render_queue_depth = %d after every render returned, want 0", n)
	}
}

// TestConcurrentFramesDecode: more distinct views than frame-buffer
// sets, requested at once on one snapshot, each render once and each
// decode to the requested size — the sets are shared between requests
// without two renders ever writing into one.
func TestConcurrentFramesDecode(t *testing.T) {
	const workers, views = 2, 8
	m := NewManagerOpts(Options{Workers: workers, QueueCap: 1})
	defer m.Close()
	dom, err := voxelised(t, "pipe")()
	if err != nil {
		t.Fatal(err)
	}
	snap := &core.Snapshot{Seq: 1, Field: randomField(dom, 2)}
	serial := make([][]byte, views)
	req := func(i int) insitu.Request {
		r := insitu.DefaultRequest()
		r.W, r.H, r.Azimuth = 64+8*i, 48, 0.3*float64(i)
		return r
	}
	// The same views from a fresh manager, one at a time, are the
	// reference pictures.
	ref := NewManagerOpts(Options{Workers: 1, QueueCap: 1})
	defer ref.Close()
	for i := range views {
		if serial[i], _, _, err = ref.frameFromSnapshot(snap, req(i)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, w, h, err := m.frameFromSnapshot(snap, req(i))
			if err != nil {
				t.Errorf("view %d: %v", i, err)
				return
			}
			img, err := png.Decode(bytes.NewReader(data))
			if err != nil || img.Bounds().Dx() != w || w != req(i).W || h != req(i).H {
				t.Errorf("view %d: %dx%d does not decode to %dx%d: %v", i, w, h, req(i).W, req(i).H, err)
			}
			if !bytes.Equal(data, serial[i]) {
				t.Errorf("view %d rendered concurrently differs from the same view rendered alone", i)
			}
		}()
	}
	wg.Wait()
	if n := m.metrics.RendersTotal.Load(); n != views {
		t.Errorf("%d distinct views cost %d renders", views, n)
	}
}

// TestSolverYieldsToFrame: a stepping job beside a frame held open on
// its snapshot (Snapshot.Frame) advances at most one step while the
// frame is held — the step it may have been in when the frame started
// — and steps again once the frame ends, with the wait in the solver
// yield histogram. A second job keeps stepping all the while: a solver
// yields to the frames of its own snapshots only. The second job's
// steps are the clock, not a time bound: a solver that did not yield
// would step about as often as its neighbour, and one that yielded to
// every frame in the process would hold the neighbour too.
func TestSolverYieldsToFrame(t *testing.T) {
	srv, base := startServer(t, 2, 4)
	const spec = `{"preset":"pipe","steps":2000000000,"viz_every":-1}`
	watched, other := submit(t, base, spec), submit(t, base, spec)
	var jobs [2]*Job
	for i, info := range []JobInfo{watched, other} {
		waitState(t, base, info.ID, StateRunning)
		j, err := srv.mgr.Get(info.ID)
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = j
	}
	j, o := jobs[0], jobs[1]
	var snap *core.Snapshot
	waitFor(t, "a snapshot of the job", func() bool {
		j.wantSnapshot()
		snap, _ = j.LatestSnapshot()
		return snap != nil
	})

	held, hold := make(chan int), make(chan struct{})
	release := sync.OnceFunc(func() { close(hold) })
	t.Cleanup(release) // before the server's shutdown, whatever fails
	go snap.Frame(func() error {
		held <- j.Step()
		<-hold
		return nil
	})
	from := <-held
	mark := o.Step()
	waitFor(t, "the other job to step beside the held frame", func() bool { return o.Step() >= mark+100 })
	s := j.Step()
	release()
	if s > from+1 {
		t.Fatalf("the job stepped %d -> %d beside its frame in flight, want at most one step", from, s)
	}
	waitFor(t, "the job to step again after the frame", func() bool { return j.Step() > from+1 })

	if n := srv.mgr.metrics.SolverYield.Count(); n == 0 {
		t.Error("the solver yield histogram has no sample after a yield")
	}
}
