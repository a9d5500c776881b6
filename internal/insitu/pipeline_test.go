package insitu

import (
	"testing"

	"repro/internal/field"
	"repro/internal/geometry"
	"repro/internal/lattice"
	"repro/internal/lb"
	"repro/internal/octree"
	"repro/internal/vec"
)

func liveSolver(t testing.TB, steps int) *lb.Solver {
	t.Helper()
	dom, err := geometry.Voxelise(geometry.Aneurysm(16, 3, 4), 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	s, err := lb.New(dom, lb.Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(steps)
	return s
}

func TestPipelineVolumePass(t *testing.T) {
	s := liveSolver(t, 200)
	p := NewPipeline(s)
	res, err := p.Run(DefaultRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Image == nil || res.Image.CoveredFraction() == 0 {
		t.Error("no image produced")
	}
	if res.Extract <= 0 || res.Filter <= 0 || res.Render <= 0 {
		t.Errorf("stage timings missing: %+v", res)
	}
	if res.Step != s.StepCount() {
		t.Errorf("step %d, want %d", res.Step, s.StepCount())
	}
	if p.Field() == nil {
		t.Error("field not cached")
	}
}

func TestPipelineReductionReported(t *testing.T) {
	s := liveSolver(t, 100)
	p := NewPipeline(s)
	req := DefaultRequest()
	req.ContextLevel = 4
	// Small ROI around the sac.
	mid := s.Dom.Sites[s.Dom.NumSites()/2].Pos.F()
	req.ROI = vec.NewBox(mid.Sub(vec.Splat(3)), mid.Add(vec.Splat(3)))
	res, err := p.Run(req)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReducedNodes >= res.FullNodes {
		t.Errorf("no reduction: %d reduced vs %d full", res.ReducedNodes, res.FullNodes)
	}
	if res.ReducedBytes >= res.FullBytes {
		t.Errorf("no byte reduction: %d vs %d", res.ReducedBytes, res.FullBytes)
	}
}

// TestPipelineFullLevelCounted: the Filter stage counts the finest
// level without making its nodes, and sizes it as the /data reply of
// the whole domain at detail 0: a 4-byte count, then 37 bytes a node.
func TestPipelineFullLevelCounted(t *testing.T) {
	s := liveSolver(t, 20)
	res, err := NewPipeline(s).Run(DefaultRequest())
	if err != nil {
		t.Fatal(err)
	}
	rho, ux, uy, uz, wss := s.Fields(nil, nil, nil, nil, nil)
	tree, err := octree.Build(s.Dom, octree.Fields{Rho: rho, Ux: ux, Uy: uy, Uz: uz, WSS: wss})
	if err != nil {
		t.Fatal(err)
	}
	full, err := octree.DecodeNodes(tree.Answer(s.Dom.Dims.F(), vec.V3{}, vec.V3{}, 0, 0).Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if res.FullNodes != len(full) || res.FullBytes != 4+37*len(full) {
		t.Fatalf("full level: %d nodes, %d bytes; the whole-domain reply has %d nodes, %d bytes",
			res.FullNodes, res.FullBytes, len(full), 4+37*len(full))
	}
	if len(full) != s.Dom.NumSites() {
		t.Fatalf("%d leaves for %d sites", len(full), s.Dom.NumSites())
	}
}

// TestPipelineClampsLevelsLikeData: the Filter stage applies the
// /data route's request rule (octree.Tree.Answer), so a request whose
// levels /data clamps runs here too, and reports that reply's size.
func TestPipelineClampsLevelsLikeData(t *testing.T) {
	s := liveSolver(t, 20)
	p := NewPipeline(s)
	rho, ux, uy, uz, wss := s.Fields(nil, nil, nil, nil, nil)
	tree, err := octree.Build(s.Dom, octree.Fields{Rho: rho, Ux: ux, Uy: uy, Uz: uz, WSS: wss})
	if err != nil {
		t.Fatal(err)
	}
	mid := s.Dom.Sites[s.Dom.NumSites()/2].Pos.F()
	for _, lv := range [][2]int{{5, 2}, {99, 3}, {0, 99}, {-1, -1}} {
		req := DefaultRequest()
		req.W, req.H = 16, 12
		req.ROI = vec.NewBox(mid.Sub(vec.Splat(3)), mid.Add(vec.Splat(3)))
		req.DetailLevel, req.ContextLevel = lv[0], lv[1]
		res, err := p.Run(req)
		if err != nil {
			t.Fatalf("detail %d context %d: %v", lv[0], lv[1], err)
		}
		want := tree.Answer(s.Dom.Dims.F(), req.ROI.Min, req.ROI.Max, lv[0], lv[1])
		if res.ReducedNodes != want.Nodes() || res.ReducedBytes != want.Size() {
			t.Errorf("detail %d context %d: %d nodes / %d bytes, the /data reply %d / %d",
				lv[0], lv[1], res.ReducedNodes, res.ReducedBytes, want.Nodes(), want.Size())
		}
	}
}

func TestPipelineAllModes(t *testing.T) {
	s := liveSolver(t, 300)
	p := NewPipeline(s)
	for _, mode := range []Mode{ModeVolume, ModeStreamlines, ModeParticles, ModeLIC, ModeWall} {
		req := DefaultRequest()
		req.Mode = mode
		req.W, req.H = 48, 48
		res, err := p.Run(req)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.Image == nil {
			t.Fatalf("%v: nil image", mode)
		}
		if mode.String() == "" {
			t.Error("empty mode name")
		}
	}
}

func TestPipelineParticlesAccumulate(t *testing.T) {
	s := liveSolver(t, 300)
	p := NewPipeline(s)
	req := DefaultRequest()
	req.Mode = ModeParticles
	req.W, req.H = 32, 32
	var last *Result
	for i := 0; i < 5; i++ {
		s.Advance(10)
		res, err := p.Run(req)
		if err != nil {
			t.Fatal(err)
		}
		last = res
	}
	if last.Image == nil {
		t.Fatal("no particle image")
	}
	if p.tracer == nil || p.tracer.NumParticles() == 0 {
		t.Error("tracer has no live particles after 5 passes")
	}
}

func TestPipelineValidates(t *testing.T) {
	s := liveSolver(t, 10)
	p := NewPipeline(s)
	req := DefaultRequest()
	req.W = 0
	if _, err := p.Run(req); err == nil {
		t.Error("zero width accepted")
	}
	req = DefaultRequest()
	req.Mode = Mode(99)
	if _, err := p.Run(req); err == nil {
		t.Error("unknown mode accepted")
	}
}

func TestPipelineScalarSelection(t *testing.T) {
	s := liveSolver(t, 200)
	p := NewPipeline(s)
	for _, sc := range []field.Scalar{field.ScalarSpeed, field.ScalarRho, field.ScalarWSS} {
		req := DefaultRequest()
		req.Scalar = sc
		req.W, req.H = 32, 24
		if _, err := p.Run(req); err != nil {
			t.Fatalf("%v: %v", sc, err)
		}
	}
}

func TestPipelineBuffersReused(t *testing.T) {
	s := liveSolver(t, 50)
	p := NewPipeline(s)
	req := DefaultRequest()
	req.W, req.H = 16, 16
	if _, err := p.Run(req); err != nil {
		t.Fatal(err)
	}
	first := &p.rho[0]
	if _, err := p.Run(req); err != nil {
		t.Fatal(err)
	}
	if &p.rho[0] != first {
		t.Error("extract stage reallocated its buffers")
	}
}
