package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/geometry"
	"repro/internal/insitu"
	"repro/internal/octree"
	"repro/internal/steering"
	"repro/internal/vec"
)

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("missing vessel accepted")
	}
	if _, err := New(Config{Vessel: geometry.Pipe(16, 3)}); err == nil {
		t.Error("zero spacing accepted")
	}
	if _, err := New(Config{Vessel: geometry.Pipe(16, 3), H: 1, Tau: 0.5}); err == nil {
		t.Error("bad tau accepted")
	}
}

func TestRunSerialWithViz(t *testing.T) {
	s, err := New(Config{
		Vessel: geometry.Pipe(16, 3), H: 1, Tau: 0.9,
		Ranks: 1, VizEvery: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(60); err != nil {
		t.Fatal(err)
	}
	if s.StepsDone != 60 {
		t.Errorf("steps done = %d", s.StepsDone)
	}
	if s.LastImage == nil || s.LastImage.CoveredFraction() == 0 {
		t.Error("no in situ image captured")
	}
}

func TestRunDistributed(t *testing.T) {
	s, err := New(Config{
		Vessel: geometry.Aneurysm(16, 3, 4), H: 1, Tau: 0.9,
		Ranks: 4, VizEvery: 25,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(50); err != nil {
		t.Fatal(err)
	}
	if s.StepsDone != 50 {
		t.Errorf("steps done = %d", s.StepsDone)
	}
	if s.LastImage == nil {
		t.Error("no distributed in situ image")
	}
	if s.HaloBytes == 0 {
		t.Error("no halo traffic on 4 ranks")
	}
	if s.Imbalance < 1 || s.Imbalance > 1.3 {
		t.Errorf("site imbalance %v out of range", s.Imbalance)
	}
}

func TestRunWithRepartition(t *testing.T) {
	// The user has focused the visualisation on a region of interest
	// (the aneurysm sac); its sites now carry extra post-processing
	// cost, so the balance equation changes and a mid-run repartition
	// must move work (the §IV-B scenario).
	req := insitu.DefaultRequest()
	req.ROI = vec.NewBox(vec.New(8, 8, 8), vec.New(20, 20, 20))
	s, err := New(Config{
		Vessel: geometry.Aneurysm(16, 3, 4), H: 1, Tau: 0.9,
		Ranks: 3, VizEvery: 0,
		VizRequest:     req,
		VizWeightAlpha: 4.0,
		RepartitionAt:  20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(40); err != nil {
		t.Fatal(err)
	}
	if s.Repartition == nil {
		t.Fatal("no repartition report")
	}
	if s.Repartition.Step != 20 {
		t.Errorf("repartitioned at %d", s.Repartition.Step)
	}
	if s.Repartition.Migrated == 0 {
		t.Error("repartition moved nothing despite new viz weights")
	}
	if s.StepsDone != 40 {
		t.Errorf("run did not continue after repartition: %d", s.StepsDone)
	}
}

// TestSteeringEndToEnd drives the full Fig. 2 loop: a client connects,
// fetches status and an image, changes a boundary condition, pauses,
// resumes and quits — all against a live distributed simulation.
func TestSteeringEndToEnd(t *testing.T) {
	s, err := New(Config{
		Vessel: geometry.Pipe(16, 3), H: 1, Tau: 0.9,
		Ranks: 2, VizEvery: 10,
		SteerAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	clientErrs := make(chan error, 16)
	go func() {
		defer wg.Done()
		cl, err := steering.Dial(s.Server.Addr())
		if err != nil {
			clientErrs <- err
			return
		}
		defer cl.Close()
		st, err := cl.Status()
		if err != nil {
			clientErrs <- err
			return
		}
		if st.NumSites != s.Dom.NumSites() {
			clientErrs <- errf("status sites %d, want %d", st.NumSites, s.Dom.NumSites())
		}
		req := insitu.DefaultRequest()
		req.W, req.H = 48, 36
		png, w, h, err := cl.RequestImage(req)
		if err != nil {
			clientErrs <- err
			return
		}
		if w != 48 || h != 36 || len(png) < 8 {
			clientErrs <- errf("bad image reply w=%d h=%d len=%d", w, h, len(png))
		}
		if err := cl.SetIoletDensity(0, 1.02); err != nil {
			clientErrs <- err
		}
		if err := cl.Pause(); err != nil {
			clientErrs <- err
		}
		// While paused the server must still answer status.
		if _, err := cl.Status(); err != nil {
			clientErrs <- err
		}
		if err := cl.Resume(); err != nil {
			clientErrs <- err
		}
		if err := cl.Quit(); err != nil {
			clientErrs <- err
		}
	}()

	if err := s.Run(100000); err != nil { // quit arrives long before
		t.Fatal(err)
	}
	wg.Wait()
	close(clientErrs)
	for err := range clientErrs {
		t.Error(err)
	}
	if s.StepsDone >= 100000 {
		t.Error("quit did not stop the run early")
	}
}

func errf(format string, args ...any) error {
	return fmt.Errorf(format, args...)
}

// TestSnapshotPublication exercises the render-offload hook: snapshots
// arrive at the configured cadence, carry full-domain fields, and each
// one is an independent copy (later solver steps must not mutate an
// already-published snapshot).
func TestSnapshotPublication(t *testing.T) {
	var snaps []*Snapshot
	s, err := New(Config{
		Vessel: geometry.Aneurysm(16, 3, 4), H: 1, Tau: 0.9,
		Ranks: 2, VizEvery: 0,
		SnapshotEvery: 10,
		OnSnapshot:    func(sn *Snapshot) { snaps = append(snaps, sn) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(40); err != nil {
		t.Fatal(err)
	}
	// Steps 10, 20, 30, 40; the final publication is skipped because
	// the cadence already captured step 40.
	if len(snaps) != 4 {
		t.Fatalf("got %d snapshots, want 4", len(snaps))
	}
	wantSteps := []int{10, 20, 30, 40}
	n := s.Dom.NumSites()
	for i, sn := range snaps {
		if sn.Step != wantSteps[i] {
			t.Errorf("snapshot %d at step %d, want %d", i, sn.Step, wantSteps[i])
		}
		if sn.Field == nil || len(sn.Field.Rho) != n || len(sn.Field.Ux) != n {
			t.Fatalf("snapshot %d misses full-domain fields", i)
		}
	}
	// Copies must be independent: distinct publications own distinct
	// arrays (the solver keeps stepping after the hook returns).
	if &snaps[0].Field.Rho[0] == &snaps[1].Field.Rho[0] {
		t.Error("snapshots share a rho buffer; they must be immutable copies")
	}
	// The flow is developing, so fields should actually differ between
	// step 10 and step 30.
	diff := false
	for i := range snaps[0].Field.Ux {
		if snaps[0].Field.Ux[i] != snaps[2].Field.Ux[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("snapshot fields identical across 20 steps of a developing flow")
	}
}

// TestSnapshotFinalPublication: a run whose last step is off-cadence
// still publishes a final snapshot of the end state.
func TestSnapshotFinalPublication(t *testing.T) {
	var steps []int
	s, err := New(Config{
		Vessel: geometry.Pipe(16, 3), H: 1, Tau: 0.9,
		Ranks: 1, VizEvery: 0,
		SnapshotEvery: 10,
		OnSnapshot:    func(sn *Snapshot) { steps = append(steps, sn.Step) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(45); err != nil {
		t.Fatal(err)
	}
	want := []int{10, 20, 30, 40, 45}
	if fmt.Sprint(steps) != fmt.Sprint(want) {
		t.Errorf("snapshot steps %v, want %v", steps, want)
	}
}

// TestSnapshotReducedData drives the §V data path the way the daemon
// does: the final snapshot of a 3-rank run → its octree → a
// context+detail ROI cover, which must cover every fluid site exactly
// once with less data than the raw fields.
func TestSnapshotReducedData(t *testing.T) {
	var last *Snapshot
	s, err := New(Config{
		Vessel: geometry.Aneurysm(16, 3, 4), H: 1, Tau: 0.9,
		Ranks:         3,
		SnapshotEvery: 1000,
		OnSnapshot:    func(sn *Snapshot) { last = sn },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Run(30); err != nil {
		t.Fatal(err)
	}
	if last == nil || last.Step != 30 {
		t.Fatalf("final snapshot %+v, want one at step 30", last)
	}
	tree, err := last.Octree()
	if err != nil {
		t.Fatal(err)
	}
	mid := s.Dom.Sites[s.Dom.NumSites()/2].Pos.F()
	payload, err := QueryReduced(tree, s.Dom.Dims.F(),
		vec.New(mid.X-4, mid.Y-4, mid.Z-4),
		vec.New(mid.X+4, mid.Y+4, mid.Z+4), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := octree.DecodeNodes(payload)
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, n := range nodes {
		covered += n.Count
	}
	if covered != s.Dom.NumSites() {
		t.Errorf("reduced cover %d sites, want %d", covered, s.Dom.NumSites())
	}
	// Reduced must beat the raw field footprint (4 float64/site).
	if raw := s.Dom.NumSites() * 4 * 8; len(payload) >= raw {
		t.Errorf("reduced payload %d not below raw %d", len(payload), raw)
	}
}
