package insitu

import (
	"bytes"
	"image"
	"image/png"
	"math"
	"runtime"
	"testing"

	"repro/internal/field"
	"repro/internal/render"
	"repro/internal/viz"
)

// TestFrameBuffersMatchFreshRender: a worker's reused buffers give, for
// every snapshot mode, scalar and a changing image size, the PNG a
// buffer-free RenderField + EncodePNGBytes gives — nothing of the
// previous frame (pixels, depth, scalar table) leaks into the next.
func TestFrameBuffersMatchFreshRender(t *testing.T) {
	p := NewPipeline(liveSolver(t, 120))
	if _, err := p.Run(DefaultRequest()); err != nil {
		t.Fatal(err)
	}
	f := p.Field()
	var bufs FrameBuffers
	i := 0
	for _, mode := range []Mode{ModeVolume, ModeStreamlines, ModeVolume, ModeLIC, ModeWall, ModeVolume} {
		for _, scalar := range []field.Scalar{field.ScalarSpeed, field.ScalarRho, field.ScalarWSS} {
			req := DefaultRequest()
			req.Mode, req.Scalar = mode, scalar
			req.W, req.H = 48-8*(i%3), 36+4*(i%2)
			req.Azimuth += 0.4 * float64(i)
			i++
			got, w, h, err := bufs.FramePNG(f, req)
			if err != nil {
				t.Fatalf("%v/%v: %v", mode, scalar, err)
			}
			img, err := RenderField(f, req)
			if err != nil {
				t.Fatal(err)
			}
			want, err := render.EncodePNGBytes(img)
			if err != nil {
				t.Fatal(err)
			}
			if w != req.W || h != req.H || !bytes.Equal(got, want) {
				t.Errorf("%v/%v %dx%d: reused buffers give a different frame (%dx%d, %d vs %d bytes)",
					mode, scalar, req.W, req.H, w, h, len(got), len(want))
			}
		}
	}
	if _, _, _, err := bufs.FramePNG(f, Request{Mode: ModeParticles, W: 8, H: 8}); err == nil {
		t.Error("particle mode accepted on a snapshot")
	}
	if _, _, _, err := bufs.FramePNG(nil, DefaultRequest()); err == nil {
		t.Error("nil snapshot accepted")
	}
}

// TestFrameRejectsShortField: a snapshot whose arrays are shorter than
// its domain fails Field.Validate in every snapshot mode, before any
// mode reads a site — a wall frame once indexed past a short WSS while
// taking its colour range.
func TestFrameRejectsShortField(t *testing.T) {
	dom := liveSolver(t, 1).Dom
	short := &field.Field{Dom: dom, Rho: []float64{1}, Ux: []float64{0}, Uy: []float64{0}, Uz: []float64{0}, WSS: []float64{0}}
	var bufs FrameBuffers
	for _, mode := range []Mode{ModeVolume, ModeStreamlines, ModeLIC, ModeWall} {
		req := DefaultRequest()
		req.Mode, req.W, req.H = mode, 16, 12
		if _, _, _, err := bufs.FramePNG(short, req); err == nil {
			t.Errorf("%v: a field of 1 site on a domain of %d accepted", mode, dom.NumSites())
		}
	}
}

// TestFramePNGBytesStable: the frame a render worker returns decodes to
// exactly the one-goroutine render flattened pixel by pixel over black
// and quantised — whatever GOMAXPROCS the row parcels were cast on, and
// with the encoder's background shortcuts — and its bytes are the same
// at every GOMAXPROCS.
func TestFramePNGBytesStable(t *testing.T) {
	p := NewPipeline(liveSolver(t, 120))
	if _, err := p.Run(DefaultRequest()); err != nil {
		t.Fatal(err)
	}
	f := p.Field()
	req := DefaultRequest()
	req.W, req.H = 64, 50

	serial, err := viz.RenderVolume(f, viz.VolumeOptions{W: req.W, H: req.H, Camera: CameraFor(f.Dom.Dims, req),
		TF: render.BlueRed(0, f.MaxScalar(req.Scalar)), Scalar: req.Scalar})
	if err != nil {
		t.Fatal(err)
	}
	if serial.CoveredFraction() == 0 {
		t.Fatal("the reference frame is blank")
	}
	ref := image.NewRGBA(image.Rect(0, 0, req.W, req.H))
	q := func(x float64) uint8 { return uint8(math.Min(math.Max(x, 0), 1)*255 + 0.5) }
	for i, px := range serial.Pix {
		c := px.Over(render.RGBA{A: 1})
		ref.Pix[4*i], ref.Pix[4*i+1], ref.Pix[4*i+2], ref.Pix[4*i+3] = q(c.R), q(c.G), q(c.B), 255
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var bufs FrameBuffers
	var first []byte
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		got, _, _, err := bufs.FramePNG(f, req)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := png.Decode(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("GOMAXPROCS %d: %v", procs, err)
		}
		rgba, ok := dec.(*image.RGBA)
		if !ok || rgba.Rect != ref.Rect || !bytes.Equal(rgba.Pix, ref.Pix) {
			t.Errorf("GOMAXPROCS %d: the frame does not decode to the reference's pixels (%T %v)", procs, dec, dec.Bounds())
		}
		if first == nil {
			first = got
		} else if !bytes.Equal(got, first) {
			t.Errorf("GOMAXPROCS %d: %d PNG bytes differ from GOMAXPROCS 1's %d", procs, len(got), len(first))
		}
	}
}
