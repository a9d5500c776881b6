package render

import (
	"bytes"
	"image"
	"image/png"
	"io"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestOverOperator(t *testing.T) {
	opaque := RGBA{1, 0, 0, 1}
	clear := RGBA{0, 1, 0, 0}
	// Opaque over anything is itself.
	got := opaque.Over(RGBA{0, 0, 1, 1})
	if got != opaque {
		t.Errorf("opaque over = %+v", got)
	}
	// Transparent over x is x.
	base := RGBA{0, 0, 1, 0.5}
	got = clear.Over(base)
	if math.Abs(got.B-base.B) > 1e-12 || math.Abs(got.A-base.A) > 1e-12 {
		t.Errorf("clear over = %+v", got)
	}
}

// TestOverAssociativityProperty: compositing must be associative —
// required for the pairwise sort-last merge to be order-independent.
func TestOverAssociativityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := func() RGBA {
			return RGBA{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		}
		a, b, cc := c(), c(), c()
		l := a.Over(b).Over(cc)
		r := a.Over(b.Over(cc))
		near := func(x, y float64) bool { return math.Abs(x-y) < 1e-9 }
		return near(l.A, r.A) && near(l.R*l.A, r.R*r.A) && near(l.G*l.A, r.G*r.A) && near(l.B*l.A, r.B*r.A)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestImageBlendDepthOrder(t *testing.T) {
	img := NewImage(2, 1)
	red := RGBA{1, 0, 0, 0.5}
	blue := RGBA{0, 0, 1, 0.5}
	// Draw red at depth 5, then blue nearer at depth 2: blue must end
	// up in front.
	img.Blend(0, 0, red, 5)
	img.Blend(0, 0, blue, 2)
	a := img.At(0, 0)
	// Front-weighted blue: B channel should dominate R.
	if a.B <= a.R {
		t.Errorf("nearer blue should dominate: %+v", a)
	}
	// Same colours, reversed call order, must give the same pixel.
	img2 := NewImage(2, 1)
	img2.Blend(0, 0, blue, 2)
	img2.Blend(0, 0, red, 5)
	b := img2.At(0, 0)
	if math.Abs(a.R-b.R) > 1e-12 || math.Abs(a.B-b.B) > 1e-12 || math.Abs(a.A-b.A) > 1e-12 {
		t.Errorf("blend order dependence: %+v vs %+v", a, b)
	}
}

func TestCompositeUnder(t *testing.T) {
	near := NewImage(1, 1)
	far := NewImage(1, 1)
	near.Set(0, 0, RGBA{1, 0, 0, 0.5}, 1)
	far.Set(0, 0, RGBA{0, 0, 1, 1}, 10)
	if err := near.CompositeUnder(far); err != nil {
		t.Fatal(err)
	}
	p := near.At(0, 0)
	if p.A < 0.99 {
		t.Errorf("alpha should saturate against opaque background: %+v", p)
	}
	if p.R <= p.B*0.5 {
		t.Errorf("near red should be visible over far blue: %+v", p)
	}
	// Size mismatch errors.
	if err := near.CompositeUnder(NewImage(2, 2)); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestEncodePPM(t *testing.T) {
	img := NewImage(4, 3)
	img.Set(0, 0, RGBA{1, 1, 1, 1}, 0)
	var buf bytes.Buffer
	if err := img.EncodePPM(&buf); err != nil {
		t.Fatal(err)
	}
	head := buf.Bytes()[:2]
	if string(head) != "P6" {
		t.Errorf("not a P6 ppm: %q", head)
	}
	// 4*3 pixels * 3 bytes after the header.
	if buf.Len() < 36 {
		t.Errorf("ppm too short: %d", buf.Len())
	}
}

func TestEncodePNG(t *testing.T) {
	img := NewImage(4, 4)
	img.Set(1, 2, RGBA{0.2, 0.4, 0.9, 1}, 0)
	var buf bytes.Buffer
	if err := img.EncodePNG(&buf); err != nil {
		t.Fatal(err)
	}
	sig := buf.Bytes()[:8]
	want := []byte{0x89, 'P', 'N', 'G', '\r', '\n', 0x1a, '\n'}
	for i := range want {
		if sig[i] != want[i] {
			t.Fatalf("bad png signature: % x", sig)
		}
	}
}

// TestEncodePNGBytesAllocatesItsResult: a warm EncodePNGBytes takes an
// encoder from the package's pool, so it allocates only the PNG it
// returns; EncodePNG into a writer that keeps nothing allocates
// nothing.
func TestEncodePNGBytesAllocatesItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled encoders at random")
	}
	img := NewImage(64, 48)
	for i := 0; i < 64; i++ {
		img.Set(i, i*3/4, RGBA{0.2, 0.4, 0.9, 1}, 0)
	}
	if _, err := EncodePNGBytes(img); err != nil { // warm the pool
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := EncodePNGBytes(img); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("a warm EncodePNGBytes allocates %.0f objects, want 1 (the returned PNG)", n)
	}
	if n := testing.AllocsPerRun(50, func() {
		if err := img.EncodePNG(io.Discard); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("a warm EncodePNG allocates %.0f objects, want 0", n)
	}
}

// TestPNGEncoderReuse: one encoder across frames of changing size gives
// the bytes a fresh encoder gives, the pixels survive a decode, and a
// returned frame is not overwritten by the next one.
func TestPNGEncoderReuse(t *testing.T) {
	var enc PNGEncoder
	var kept, keptWant []byte
	for i, size := range [][2]int{{4, 4}, {9, 3}, {2, 2}, {9, 3}} {
		img := NewImage(size[0], size[1])
		img.Set(i%size[0], 1, RGBA{0.2, 0.4, 0.9, 1}, 0)
		img.Reset(size[0], size[1]) // a reused image starts transparent again
		img.Set(1, i%size[1], RGBA{1, 1, 1, 0.5}, 0)
		got, err := enc.Encode(img)
		if err != nil {
			t.Fatal(err)
		}
		want, err := new(PNGEncoder).Encode(img)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: reused encoder and fresh encoder disagree", i)
		}
		pooled, err := EncodePNGBytes(img)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pooled, want) {
			t.Fatalf("frame %d: pooled encoder and fresh encoder disagree", i)
		}
		dec, err := png.Decode(bytes.NewReader(got))
		if err != nil {
			t.Fatal(err)
		}
		if b := dec.Bounds(); b.Dx() != size[0] || b.Dy() != size[1] {
			t.Fatalf("frame %d decodes to %v", i, b)
		}
		if r, g, b, a := dec.At(1, i%size[1]).RGBA(); r>>8 != 128 || g>>8 != 128 || b>>8 != 128 || a>>8 != 255 {
			t.Errorf("frame %d: drawn pixel decodes to %d %d %d %d", i, r>>8, g>>8, b>>8, a>>8)
		}
		if r, g, b, _ := dec.At(0, (i+1)%size[1]).RGBA(); r|g|b != 0 {
			t.Errorf("frame %d: background pixel not black", i)
		}
		if i == 0 {
			kept, keptWant = got, append([]byte(nil), got...)
		}
	}
	if !bytes.Equal(kept, keptWant) {
		t.Error("a later frame overwrote the first frame's bytes")
	}
}

func TestTransferFunctionMapping(t *testing.T) {
	tf := BlueRed(0, 1)
	lo := tf.Map(0)
	hi := tf.Map(1)
	if lo.B <= lo.R {
		t.Errorf("low end should be blue-ish: %+v", lo)
	}
	if hi.R <= hi.B {
		t.Errorf("high end should be red-ish: %+v", hi)
	}
	// Out-of-range values clamp.
	below := tf.Map(-5)
	if below != lo {
		t.Errorf("below-range not clamped: %+v vs %+v", below, lo)
	}
	above := tf.Map(99)
	if above != hi {
		t.Errorf("above-range not clamped: %+v vs %+v", above, hi)
	}
	// Alpha increases with value for BlueRed (denser = more opaque).
	if !(tf.Map(0.9).A > tf.Map(0.1).A) {
		t.Error("opacity should grow with the scalar")
	}
}

func TestTransferFunctionDegenerate(t *testing.T) {
	empty := &TransferFunction{}
	if c := empty.Map(0.5); c != (RGBA{}) {
		t.Errorf("empty TF returned %+v", c)
	}
	flat := &TransferFunction{Lo: 1, Hi: 1, Stops: []RGBA{{1, 0, 0, 1}, {0, 1, 0, 1}}, OpacityScale: 1}
	_ = flat.Map(1) // must not panic on zero range
}

func TestCoveredFraction(t *testing.T) {
	img := NewImage(10, 10)
	if f := img.CoveredFraction(); f != 0 {
		t.Errorf("empty image covered %v", f)
	}
	for i := 0; i < 10; i++ {
		img.Set(i, 0, RGBA{1, 1, 1, 1}, 0)
	}
	if f := img.CoveredFraction(); math.Abs(f-0.1) > 1e-12 {
		t.Errorf("covered = %v, want 0.1", f)
	}
}

func TestFillAndFlatten(t *testing.T) {
	img := NewImage(2, 2)
	img.Fill(RGBA{0.5, 0.5, 0.5, 1})
	img.Pix[1] = RGBA{1, 2, -1, 0.5} // half-covered, out-of-range channels
	if r, g, b := img.rgb8(0); r != 128 || g != 128 || b != 128 {
		t.Errorf("opaque grey flattens to %d %d %d", r, g, b)
	}
	if r, g, b := img.rgb8(1); r != 128 || g != 255 || b != 0 {
		t.Errorf("half-covered pixel over black = %d %d %d, want 128 255 0", r, g, b)
	}
}

func TestGrayscaleTF(t *testing.T) {
	tf := Grayscale(0, 10)
	mid := tf.Map(5)
	if math.Abs(mid.R-mid.G) > 1e-12 || math.Abs(mid.G-mid.B) > 1e-12 {
		t.Errorf("grayscale not grey: %+v", mid)
	}
}

// fuzzEncoder is one encoder kept across FuzzPNGEncoder's inputs, so
// every input is also encoded after frames of other sizes and content.
var fuzzEncoder struct {
	sync.Mutex
	PNGEncoder
}

// FuzzPNGEncoder: a generated W×H image — odd widths, single rows and
// columns, background rows, A = 0 and A = 1 pixels, out-of-range and
// extreme finite components — encodes to a PNG that image/png decodes
// (chunk CRCs and the zlib Adler-32 included) to exactly the image
// flattened over black and quantised, and a reused encoder gives the
// bytes a fresh one gives.
func FuzzPNGEncoder(f *testing.F) {
	for i, size := range [][2]uint8{{4, 4}, {9, 3}, {2, 2}, {9, 3}, {1, 1}, {1, 17}, {17, 1}} {
		f.Add(int64(i), size[0], size[1])
	}
	extremes := []float64{0, math.Copysign(0, -1), 1, -1, 2, 0.5 / 255, math.SmallestNonzeroFloat64,
		-math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1e-300, 1e300}
	f.Fuzz(func(t *testing.T, seed int64, wb, hb uint8) {
		w, h := 1+int(wb)%64, 1+int(hb)%64
		rng := rand.New(rand.NewSource(seed))
		img := NewImage(w, h)
		for y := 0; y < h; y++ {
			if rng.Intn(3) == 0 {
				continue // a background row
			}
			for x := 0; x < w; x++ {
				var c [4]float64
				for k := range c {
					switch rng.Intn(4) {
					case 0:
						c[k] = rng.Float64()
					case 1:
						c[k] = 4*rng.Float64() - 2
					default:
						c[k] = extremes[rng.Intn(len(extremes))]
					}
				}
				switch rng.Intn(4) {
				case 0:
					c[3] = 0
				case 1:
					c[3] = 1
				}
				img.Set(x, y, RGBA{c[0], c[1], c[2], c[3]}, 0)
			}
		}
		fresh, err := new(PNGEncoder).Encode(img)
		if err != nil {
			t.Fatal(err)
		}
		fuzzEncoder.Lock()
		reused, err := fuzzEncoder.Encode(img)
		fuzzEncoder.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(reused, fresh) {
			t.Fatalf("%dx%d: a reused encoder gives %d bytes, a fresh one %d", w, h, len(reused), len(fresh))
		}
		dec, err := png.Decode(bytes.NewReader(fresh))
		if err != nil {
			t.Fatalf("%dx%d: %v", w, h, err)
		}
		if b := dec.Bounds(); b != image.Rect(0, 0, w, h) {
			t.Fatalf("%dx%d decodes to %v", w, h, b)
		}
		q := func(x float64) uint32 { return uint32(uint8(math.Min(math.Max(x, 0), 1)*255 + 0.5)) }
		for i, p := range img.Pix {
			c := p.Over(RGBA{A: 1})
			want := [4]uint32{q(c.R), q(c.G), q(c.B), 255}
			r, g, b, a := dec.At(i%w, i/w).RGBA()
			if got := [4]uint32{r >> 8, g >> 8, b >> 8, a >> 8}; got != want {
				t.Fatalf("%dx%d pixel (%d,%d) %+v decodes to %v, want %v", w, h, i%w, i/w, p, got, want)
			}
		}
	})
}
