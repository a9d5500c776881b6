package insitu

import (
	"bytes"
	"testing"

	"repro/internal/field"
	"repro/internal/render"
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
