package insitu

import (
	"cmp"
	"fmt"

	"repro/internal/field"
	"repro/internal/render"
	"repro/internal/vec"
	"repro/internal/viz"
)

// CameraFor builds the orbit camera a request implies over a domain of
// the field's dimensions; shared by the pipeline and snapshot renders
// so a view keyed by request parameters is identical on both paths.
func CameraFor(dims vec.I3, req Request) *vec.Camera {
	center := vec.New(float64(dims.X)/2, float64(dims.Y)/2, float64(dims.Z)/2)
	radius := float64(dims.Z) * req.DistFactor
	if radius == 0 {
		radius = 40
	}
	return vec.Orbit(center, radius, req.Azimuth, req.Elevation, 40, float64(req.W)/float64(req.H))
}

// RenderField renders a request against a standalone field snapshot —
// the render-offload entry point. Unlike Pipeline.Run it holds no
// solver reference and no mutable state, so any goroutine (a render
// pool worker, a test) can call it concurrently on an immutable
// snapshot long after the solver has moved on. ModeParticles needs the
// pipeline's stateful tracer and is rejected here.
func RenderField(f *field.Field, req Request) (*render.Image, error) {
	return new(FrameBuffers).render(f, req)
}

// FrameBuffers is what one render worker keeps between frames: the
// volume renderer's image and scalar table and the PNG encoder's state.
// The zero value is ready; one goroutine at a time.
type FrameBuffers struct {
	vol viz.VolumeBuffers
	png render.PNGEncoder
}

// FramePNG is RenderField followed by PNG encoding. Only the returned
// bytes are freshly allocated (for a volume frame; the other modes still
// allocate their image).
func (b *FrameBuffers) FramePNG(f *field.Field, req Request) (png []byte, w, h int, err error) {
	img, err := b.render(f, req)
	if err != nil {
		return nil, 0, 0, err
	}
	png, err = b.png.Encode(img)
	return png, img.W, img.H, err
}

func (b *FrameBuffers) render(f *field.Field, req Request) (*render.Image, error) {
	if f == nil || f.Dom == nil {
		return nil, fmt.Errorf("insitu: nil field snapshot")
	}
	if req.W <= 0 || req.H <= 0 {
		return nil, fmt.Errorf("insitu: image size %dx%d", req.W, req.H)
	}
	if err := f.Validate(); err != nil { // before any mode reads a site
		return nil, err
	}
	cam := CameraFor(f.Dom.Dims, req)
	switch req.Mode {
	case ModeVolume: // the scalar table the rays sample gives the TF's range
		return b.vol.Render(f, viz.VolumeOptions{
			W: req.W, H: req.H, Camera: cam, Scalar: req.Scalar,
		}, scalarTF)
	case ModeStreamlines:
		seeds := viz.SeedsAcrossInlet(f.Dom, max(req.NumSeeds, 1))
		lines, err := viz.TraceStreamlines(f, viz.LineOptions{Seeds: seeds, MaxSteps: 600, Dt: 0.5})
		if err != nil {
			return nil, err
		}
		return viz.RenderLines(lines, cam, req.W, req.H, scalarTF(f.MaxScalar(req.Scalar)))
	case ModeLIC:
		return viz.LIC(f, viz.AxialSlice(f.Dom.Dims), viz.LICOptions{W: req.W, H: req.H})
	case ModeWall:
		wmax := f.MaxScalar(field.ScalarWSS)
		if wmax == 0 {
			wmax = 1e-9
		}
		return viz.RenderWallWSS(f, viz.WallOptions{
			W: req.W, H: req.H, Camera: cam, TF: render.BlueRed(0, wmax),
		})
	case ModeParticles:
		return nil, fmt.Errorf("insitu: particle mode needs a stateful pipeline, not a snapshot render")
	}
	return nil, fmt.Errorf("insitu: unknown mode %v", req.Mode)
}

// scalarTF is the transfer function of a frame coloured by the request's
// scalar, whose largest value over the field is maxS: BlueRed over
// [0, maxS], or over [0, 1e-6] for a field at rest.
func scalarTF(maxS float64) *render.TransferFunction {
	return render.BlueRed(0, cmp.Or(maxS, 1e-6))
}
