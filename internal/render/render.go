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
	"compress/zlib"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
	"unsafe"
)

// RGBA is a straight-alpha colour with float components in [0,1].
type RGBA struct {
	R, G, B, A float64
}

// Over returns c composited over d (both straight alpha); the standard
// Porter-Duff operator.
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

// PNGEncoder encodes frames as 8-bit RGB PNG over an opaque black
// background, in the one form every frame takes: each row is quantised
// straight into its scanline under the fixed Up filter (row −1 is
// zeros), and the scanlines are deflated at zlib.BestSpeed into a single
// IDAT chunk. It keeps its scanlines, compressor and output buffer
// between calls: a render worker's encoder allocates only the bytes it
// returns. The zero value is ready; it must not be used from two
// goroutines at once.
type PNGEncoder struct {
	lines []byte    // the filtered scanlines: filter byte, then 3·W samples
	raw   [2][]byte // the quantised current and previous row
	zw    *zlib.Writer
	out   bytes.Buffer
}

// pngUp is the PNG filter type that stores each byte minus the byte
// above it.
const pngUp = 2

// encode builds im's PNG in e.out.
func (e *PNGEncoder) encode(im *Image) error {
	w, h := im.W, im.H
	if w <= 0 || h <= 0 || uint64(w)*3+1 > math.MaxInt32/uint64(h) || len(im.Pix) != w*h {
		return fmt.Errorf("render: cannot encode a %dx%d image of %d pixels as PNG", w, h, len(im.Pix))
	}
	stride := 3*w + 1
	if n := stride * h; cap(e.lines) < n {
		e.lines = make([]byte, n)
	}
	e.lines = e.lines[:stride*h]
	for i := range e.raw {
		if cap(e.raw[i]) < 3*w {
			e.raw[i] = make([]byte, 3*w)
		}
		e.raw[i] = e.raw[i][:3*w]
	}
	clear(e.raw[1]) // row −1 is zeros
	prevBlank := true
	for y := 0; y < h; y++ {
		line := e.lines[y*stride : (y+1)*stride]
		line[0] = pngUp
		up, pix := line[1:], im.Pix[y*w:(y+1)*w]
		cur, prev := e.raw[y&1], e.raw[y&1^1]
		blank := true
		for i := range pix {
			if pix[i].A != 0 {
				blank = false
				break
			}
		}
		if blank && prevBlank { // most rows of a frame: zeros under zeros
			clear(up)
			clear(cur)
		} else {
			for x := range pix {
				c := cur[3*x : 3*x+3 : 3*x+3]
				c[0], c[1], c[2] = 0, 0, 0
				if pix[x].A != 0 { // untouched background is black without the divisions
					c[0], c[1], c[2] = im.rgb8(y*w + x)
				}
			}
			for i, p := range prev {
				up[i] = cur[i] - p
			}
		}
		prevBlank = blank
	}

	e.out.Reset()
	e.out.WriteString("\x89PNG\r\n\x1a\n")
	var ihdr [13]byte
	binary.BigEndian.PutUint32(ihdr[0:], uint32(w))
	binary.BigEndian.PutUint32(ihdr[4:], uint32(h))
	ihdr[8], ihdr[9] = 8, 2 // bit depth 8, colour type RGB; compression, filter method and interlace 0
	e.chunk("IHDR", ihdr[:])
	idat := e.out.Len()
	e.out.WriteString("\x00\x00\x00\x00IDAT") // the length is filled in once deflated
	if e.zw == nil {
		e.zw, _ = zlib.NewWriterLevel(&e.out, zlib.BestSpeed) // a valid level cannot fail
	} else {
		e.zw.Reset(&e.out)
	}
	if _, err := e.zw.Write(e.lines); err != nil {
		return err
	}
	if err := e.zw.Close(); err != nil {
		return err
	}
	b := e.out.Bytes()[idat:]
	binary.BigEndian.PutUint32(b, uint32(len(b)-8))
	e.out.Write(binary.BigEndian.AppendUint32(e.out.AvailableBuffer(), crc32.ChecksumIEEE(b[4:])))
	e.chunk("IEND", nil)
	return nil
}

// chunk appends a PNG chunk: length, type, data and the CRC of type and
// data.
func (e *PNGEncoder) chunk(typ string, data []byte) {
	b := binary.BigEndian.AppendUint32(e.out.AvailableBuffer(), uint32(len(data)))
	b = append(append(b, typ...), data...)
	e.out.Write(binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[4:])))
}

// encodeTo writes im as PNG to w.
func (e *PNGEncoder) encodeTo(w io.Writer, im *Image) error {
	if err := e.encode(im); err != nil {
		return err
	}
	_, err := w.Write(e.out.Bytes())
	return err
}

// Encode returns im as PNG bytes the caller owns.
func (e *PNGEncoder) Encode(im *Image) ([]byte, error) {
	if err := e.encode(im); err != nil {
		return nil, err
	}
	return append([]byte(nil), e.out.Bytes()...), nil
}

// pngEncoders keeps the encoders of EncodePNG and EncodePNGBytes, so a
// call reuses a compressor and scanline buffers instead of allocating
// them (a fresh zlib writer alone is ≈ 1.7 MB). It holds them as
// unsafe.Pointer: boxing a *PNGEncoder in an interface would make the
// linker keep compress/flate methods it otherwise drops, and that code
// is laid out ahead of internal/lb, whose every function would then sit
// 32 bytes off its 64-byte phase (docs/TESTING.md §Conventions).
var pngEncoders = sync.Pool{New: func() any { return unsafe.Pointer(new(PNGEncoder)) }}

func getPNGEncoder() *PNGEncoder { return (*PNGEncoder)(pngEncoders.Get().(unsafe.Pointer)) }

func putPNGEncoder(e *PNGEncoder) { pngEncoders.Put(unsafe.Pointer(e)) }

// EncodePNG writes the image as PNG over an opaque black background.
func (im *Image) EncodePNG(w io.Writer) error {
	e := getPNGEncoder()
	defer putPNGEncoder(e)
	return e.encodeTo(w, im)
}

// EncodePNGBytes encodes the image to an in-memory PNG — the frame
// format every service consumer (poll, stream) shares.
func EncodePNGBytes(im *Image) ([]byte, error) {
	e := getPNGEncoder()
	defer putPNGEncoder(e)
	return e.Encode(im)
}

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
