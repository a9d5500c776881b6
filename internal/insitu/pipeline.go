// Package insitu implements the in situ post-processing pipeline of
// Fig. 3: Extract → Filter → Map/Render stages running against the
// live solver state, sharing memory with the simulation ("applying the
// simulation and visualisation processes in parallel in an in situ
// manner allows the sharing of data, hence avoiding unnecessary data
// movement and output"). The Filter stage builds the §V octree over
// the extracted fields and measures the reduction a /data client would
// get: the size of the request's reply against the whole domain's at
// full resolution. Nothing flows from it to rendering — the render
// stage reads the full extracted field.
package insitu

import (
	"fmt"
	"time"

	"repro/internal/field"
	"repro/internal/lb"
	"repro/internal/octree"
	"repro/internal/render"
	"repro/internal/vec"
	"repro/internal/viz"
)

// Mode selects the visualisation algorithm for the render stage.
type Mode int

// Render modes (the four Table I techniques; streaklines ride on the
// particle tracer).
const (
	ModeVolume Mode = iota
	ModeStreamlines
	ModeParticles
	ModeLIC
	// ModeWall renders the vessel wall coloured by wall shear stress —
	// the paper's first-named physiological observable.
	ModeWall
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeVolume:
		return "volume"
	case ModeStreamlines:
		return "streamlines"
	case ModeParticles:
		return "particles"
	case ModeLIC:
		return "lic"
	case ModeWall:
		return "wall-wss"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Request carries the user-adjustable parameters of one pipeline pass —
// exactly the knobs the steering client may change between frames
// (viewpoint, field, ROI, image size, algorithm).
type Request struct {
	Mode   Mode
	Scalar field.Scalar
	W, H   int
	// Camera orbit parameters around the domain centre.
	Azimuth, Elevation, DistFactor float64
	// ROI (lattice coords) refines the filter stage; zero box = whole
	// domain at detail level.
	ROI          vec.Box
	DetailLevel  int
	ContextLevel int
	// Seeds for line-based modes; auto-seeded at the inlet when empty.
	NumSeeds int
}

// DefaultRequest returns a sensible volume-rendering request.
func DefaultRequest() Request {
	return Request{
		Mode: ModeVolume, Scalar: field.ScalarSpeed,
		W: 128, H: 96,
		Azimuth: 0.5, Elevation: 0.3, DistFactor: 1.6,
		DetailLevel: 0, ContextLevel: 3,
		NumSeeds: 12,
	}
}

// Result is the outcome of one pipeline pass with per-stage timings —
// the Fig. 3 loop instrumented.
type Result struct {
	Image *render.Image
	// ReducedNodes / FullNodes measure the filter stage's data
	// reduction: the request's /data reply against the whole domain's
	// at detail 0, in nodes and in wire bytes. They are sizes, not
	// inputs: the Image is rendered from the full field either way.
	ReducedNodes int
	FullNodes    int
	ReducedBytes int
	FullBytes    int
	// Stage durations.
	Extract, Filter, Render time.Duration
	Step                    int
}

// Pipeline owns reusable buffers for repeated in situ passes over one
// solver.
type Pipeline struct {
	solver *lb.Solver
	// cached field buffers, refreshed by extract.
	rho, ux, uy, uz, wss []float64
	f                    *field.Field
	tracer               *viz.Tracer
}

// NewPipeline couples a pipeline to a live solver. The field buffers
// alias nothing in the solver — extraction copies the macroscopic
// moments (small compared to populations), after which rendering works
// entirely on the in-memory snapshot.
func NewPipeline(s *lb.Solver) *Pipeline {
	return &Pipeline{solver: s}
}

// Field returns the most recently extracted snapshot (nil before the
// first Run).
func (p *Pipeline) Field() *field.Field { return p.f }

// Run executes Extract → Filter → Map/Render for one request.
func (p *Pipeline) Run(req Request) (*Result, error) {
	if req.W <= 0 || req.H <= 0 {
		return nil, fmt.Errorf("insitu: image size %dx%d", req.W, req.H)
	}
	res := &Result{Step: p.solver.StepCount()}

	// Stage 1: extract.
	t0 := time.Now()
	p.rho, p.ux, p.uy, p.uz, p.wss = p.solver.Fields(p.rho, p.ux, p.uy, p.uz, p.wss)
	p.f = &field.Field{Dom: p.solver.Dom, Rho: p.rho, Ux: p.ux, Uy: p.uy, Uz: p.uz, WSS: p.wss}
	res.Extract = time.Since(t0)

	// Stage 2: filter (multi-resolution reduction).
	t0 = time.Now()
	tree, err := octree.Build(p.solver.Dom, octree.Fields{
		Rho: p.rho, Ux: p.ux, Uy: p.uy, Uz: p.uz, WSS: p.wss,
	})
	if err != nil {
		return nil, err
	}
	dims := p.solver.Dom.Dims.F()
	res.FullNodes = tree.NodeCount(0)
	res.FullBytes = tree.Answer(dims, vec.V3{}, vec.V3{}, 0, 0).Size()
	reduced := tree.Answer(dims, req.ROI.Min, req.ROI.Max, req.DetailLevel, req.ContextLevel)
	res.ReducedNodes = reduced.Nodes()
	res.ReducedBytes = reduced.Size()
	res.Filter = time.Since(t0)

	// Stage 3: map + render.
	t0 = time.Now()
	img, err := p.render(req)
	if err != nil {
		return nil, err
	}
	res.Image = img
	res.Render = time.Since(t0)
	return res, nil
}

func (p *Pipeline) render(req Request) (*render.Image, error) {
	// ModeParticles is the one algorithm needing state across passes
	// (the tracer); everything else goes through the shared snapshot
	// render path.
	if req.Mode == ModeParticles {
		cam := CameraFor(p.solver.Dom.Dims, req)
		tf := scalarTF(p.f.MaxScalar(req.Scalar))
		if p.tracer == nil {
			seeds := viz.SeedsAcrossInlet(p.solver.Dom, max(req.NumSeeds, 1))
			p.tracer = viz.NewTracer(seeds, 4)
		}
		if err := p.tracer.Step(p.f); err != nil {
			return nil, err
		}
		lines := p.tracer.Pathlines()
		streaks := p.tracer.Streaklines()
		return viz.RenderLines(append(lines, streaks...), cam, req.W, req.H, tf)
	}
	return RenderField(p.f, req)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
