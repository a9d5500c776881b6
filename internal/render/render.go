// Package render provides the software rendering substrate for the in
// situ visualisation algorithms: RGBA framebuffers with depth,
// front-to-back compositing (the sort-last reduction volume rendering
// needs), scalar transfer functions, and PPM/PNG image encoding. The
// paper's display clients (VR walls, steering GUIs) are replaced by
// image files; everything upstream of the display is implemented.
package render

import (
	"bufio"
	"bytes"
	"fmt"
	"image"
	"image/png"
	"io"
	"math"
)

// RGBA is a straight-alpha colour with float components in [0,1].
type RGBA struct {
	R, G, B, A float64
}

// Over composites src over dst (both straight alpha) and returns the
// result; the standard Porter-Duff operator.
func (dst RGBA) Under(src RGBA) RGBA { return src.Over(dst) }

// Over returns c composited over d.
func (c RGBA) Over(d RGBA) RGBA {
	a := c.A + d.A*(1-c.A)
	if a == 0 {
		return RGBA{}
	}
	return RGBA{
		R: (c.R*c.A + d.R*d.A*(1-c.A)) / a,
		G: (c.G*c.A + d.G*d.A*(1-c.A)) / a,
		B: (c.B*c.A + d.B*d.A*(1-c.A)) / a,
		A: a,
	}
}

// Scale returns the colour with all channels multiplied by s (clamped
// on output elsewhere).
func (c RGBA) Scale(s float64) RGBA {
	return RGBA{c.R * s, c.G * s, c.B * s, c.A * s}
}

// Lerp interpolates between c and d.
func (c RGBA) Lerp(d RGBA, t float64) RGBA {
	return RGBA{
		c.R + (d.R-c.R)*t,
		c.G + (d.G-c.G)*t,
		c.B + (d.B-c.B)*t,
		c.A + (d.A-c.A)*t,
	}
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Image is a W×H framebuffer with per-pixel colour and depth. Depth is
// the distance to the first contribution along the ray, used for
// depth-correct compositing of partial images from different ranks.
type Image struct {
	W, H  int
	Pix   []RGBA
	Depth []float64
}

// NewImage allocates a transparent framebuffer with infinite depth.
func NewImage(w, h int) *Image {
	img := &Image{}
	img.Reset(w, h)
	return img
}

// Reset makes im a transparent w×h framebuffer with infinite depth,
// keeping its storage when that is large enough.
func (im *Image) Reset(w, h int) {
	n := w * h
	if cap(im.Pix) < n || cap(im.Depth) < n {
		im.Pix, im.Depth = make([]RGBA, n), make([]float64, n)
	}
	im.W, im.H, im.Pix, im.Depth = w, h, im.Pix[:n], im.Depth[:n]
	im.Fill(RGBA{})
}

// At returns the pixel at (x, y).
func (im *Image) At(x, y int) RGBA { return im.Pix[y*im.W+x] }

// Set writes the pixel at (x, y) with a depth value.
func (im *Image) Set(x, y int, c RGBA, depth float64) {
	i := y*im.W + x
	im.Pix[i] = c
	im.Depth[i] = depth
}

// Blend composites c over/under the existing pixel according to depth:
// the nearer contribution wins the "over" position.
func (im *Image) Blend(x, y int, c RGBA, depth float64) {
	i := y*im.W + x
	if depth <= im.Depth[i] {
		im.Pix[i] = c.Over(im.Pix[i])
		im.Depth[i] = depth
	} else {
		im.Pix[i] = im.Pix[i].Over(c)
	}
}

// CompositeUnder merges a remote partial image into im assuming the
// remote content lies behind wherever its depth is larger, pixel by
// pixel — the sort-last merge step. Images must match in size.
func (im *Image) CompositeUnder(other *Image) error {
	if other.W != im.W || other.H != im.H {
		return fmt.Errorf("render: size mismatch %dx%d vs %dx%d", other.W, other.H, im.W, im.H)
	}
	for i := range im.Pix {
		if other.Depth[i] < im.Depth[i] {
			im.Pix[i] = other.Pix[i].Over(im.Pix[i])
			im.Depth[i] = other.Depth[i]
		} else {
			im.Pix[i] = im.Pix[i].Over(other.Pix[i])
		}
	}
	return nil
}

// Fill sets every pixel to c at infinite depth (background).
func (im *Image) Fill(c RGBA) {
	for i := range im.Pix {
		im.Pix[i] = c
		im.Depth[i] = math.Inf(1)
	}
}

// Serialize packs the image (colour + depth) into a float64 slice for
// transport over the par runtime: [r g b a depth]*.
func (im *Image) Serialize() []float64 {
	out := make([]float64, 0, len(im.Pix)*5)
	for i, p := range im.Pix {
		out = append(out, p.R, p.G, p.B, p.A, im.Depth[i])
	}
	return out
}

// DeserializeImage unpacks a Serialize payload.
func DeserializeImage(w, h int, data []float64) (*Image, error) {
	if len(data) != w*h*5 {
		return nil, fmt.Errorf("render: payload %d values, want %d", len(data), w*h*5)
	}
	im := NewImage(w, h)
	for i := 0; i < w*h; i++ {
		im.Pix[i] = RGBA{data[5*i], data[5*i+1], data[5*i+2], data[5*i+3]}
		im.Depth[i] = data[5*i+4]
	}
	return im, nil
}

// rgb8 flattens pixel i over opaque black and quantises it.
func (im *Image) rgb8(i int) (r, g, b uint8) {
	p := im.Pix[i].Over(RGBA{0, 0, 0, 1})
	return uint8(clamp01(p.R)*255 + 0.5), uint8(clamp01(p.G)*255 + 0.5), uint8(clamp01(p.B)*255 + 0.5)
}

// EncodePPM writes the image as binary PPM (P6) over an opaque black
// background.
func (im *Image) EncodePPM(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "P6\n%d %d\n255\n", im.W, im.H); err != nil {
		return err
	}
	for i := range im.Pix {
		r, g, b := im.rgb8(i)
		if _, err := bw.Write([]byte{r, g, b}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// PNGEncoder encodes frames over an opaque black background, keeping
// its 8-bit image, compressor state and output buffer between calls: a
// render worker's encoder allocates only the bytes it returns. The zero
// value is ready; it must not be used from two goroutines at once.
type PNGEncoder struct {
	rgba image.RGBA
	enc  png.Encoder
	zbuf pngBufferPool
	out  bytes.Buffer
}

// pngBufferPool is a png.EncoderBufferPool of one.
type pngBufferPool struct{ b *png.EncoderBuffer }

func (p *pngBufferPool) Get() *png.EncoderBuffer  { return p.b }
func (p *pngBufferPool) Put(b *png.EncoderBuffer) { p.b = b }

// encodeTo writes im as PNG, flattening and quantising in one pass.
func (e *PNGEncoder) encodeTo(w io.Writer, im *Image) error {
	if n := 4 * len(im.Pix); cap(e.rgba.Pix) < n {
		e.rgba.Pix = make([]uint8, n)
	}
	e.rgba.Pix, e.rgba.Stride, e.rgba.Rect = e.rgba.Pix[:4*len(im.Pix)], 4*im.W, image.Rect(0, 0, im.W, im.H)
	for i := range im.Pix {
		px := e.rgba.Pix[4*i : 4*i+4 : 4*i+4]
		px[0], px[1], px[2], px[3] = 0, 0, 0, 255
		if im.Pix[i].A != 0 { // most of a frame is untouched background, which is black without the divisions
			px[0], px[1], px[2] = im.rgb8(i)
		}
	}
	e.enc.BufferPool = &e.zbuf
	return e.enc.Encode(w, &e.rgba)
}

// Encode returns im as PNG bytes the caller owns.
func (e *PNGEncoder) Encode(im *Image) ([]byte, error) {
	e.out.Reset()
	if err := e.encodeTo(&e.out, im); err != nil {
		return nil, err
	}
	return append([]byte(nil), e.out.Bytes()...), nil
}

// EncodePNG writes the image as PNG over an opaque black background.
func (im *Image) EncodePNG(w io.Writer) error { return new(PNGEncoder).encodeTo(w, im) }

// EncodePNGBytes encodes the image to an in-memory PNG — the frame
// format every service consumer (poll, stream) shares.
func EncodePNGBytes(im *Image) ([]byte, error) { return new(PNGEncoder).Encode(im) }

// CoveredFraction returns the share of pixels with non-negligible
// alpha, a cheap "did we draw anything" check for tests and steering
// status reports.
func (im *Image) CoveredFraction() float64 {
	n := 0
	for _, p := range im.Pix {
		if p.A > 0.01 {
			n++
		}
	}
	return float64(n) / float64(len(im.Pix))
}

// TransferFunction maps a scalar in [Lo, Hi] to colour and opacity; the
// post-processing "map" stage of Fig. 3.
type TransferFunction struct {
	Lo, Hi float64
	// Stops are sampled uniformly across [Lo, Hi].
	Stops []RGBA
	// OpacityScale multiplies the interpolated alpha (per unit length
	// in volume rendering).
	OpacityScale float64
}

// Map evaluates the transfer function.
func (tf *TransferFunction) Map(v float64) RGBA {
	if len(tf.Stops) == 0 {
		return RGBA{}
	}
	t := 0.0
	if tf.Hi > tf.Lo {
		t = clamp01((v - tf.Lo) / (tf.Hi - tf.Lo))
	}
	scaled := t * float64(len(tf.Stops)-1)
	i := int(scaled)
	if i >= len(tf.Stops)-1 {
		i = len(tf.Stops) - 2
	}
	if i < 0 {
		i = 0
	}
	frac := scaled - float64(i)
	c := tf.Stops[i].Lerp(tf.Stops[i+1], frac)
	if tf.OpacityScale != 0 {
		c.A *= tf.OpacityScale
	}
	c.A = clamp01(c.A)
	return c
}

// BlueRed returns a cool-to-warm transfer function over [lo, hi], the
// conventional CFD colouring for velocity magnitude.
func BlueRed(lo, hi float64) *TransferFunction {
	return &TransferFunction{
		Lo: lo, Hi: hi,
		OpacityScale: 1,
		Stops: []RGBA{
			{0.10, 0.15, 0.60, 0.02},
			{0.20, 0.50, 0.90, 0.10},
			{0.55, 0.80, 0.85, 0.25},
			{0.95, 0.75, 0.30, 0.55},
			{0.90, 0.15, 0.10, 0.90},
		},
	}
}

// Grayscale returns a linear grey ramp over [lo, hi] with constant
// opacity.
func Grayscale(lo, hi float64) *TransferFunction {
	return &TransferFunction{
		Lo: lo, Hi: hi,
		OpacityScale: 1,
		Stops: []RGBA{
			{0, 0, 0, 0.05},
			{1, 1, 1, 0.9},
		},
	}
}
