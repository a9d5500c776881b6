// Package viz implements the four visualisation algorithms of the
// paper's Table I — volume rendering, line integrals (stream-, path-
// and streak-lines), particle tracing and line integral convolution —
// in both serial and distributed (rank-parallel) forms, so the table's
// qualitative claims (communication cost, load balance, ease of
// parallelisation) can be measured rather than asserted.
package viz

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/field"
	"repro/internal/geometry"
	"repro/internal/guard"
	"repro/internal/par"
	"repro/internal/render"
	"repro/internal/vec"
)

// Message tags used by the distributed visualisation algorithms.
const (
	tagImage = par.TagUser + 301
	tagPart  = par.TagUser + 302
	tagLine  = par.TagUser + 303
)

// VolumeOptions configures the ray-casting volume renderer.
type VolumeOptions struct {
	W, H   int
	Camera *vec.Camera
	TF     *render.TransferFunction
	Scalar field.Scalar
	// Step is the ray-march step in lattice units (default 0.5).
	Step float64
	// MaxAlpha terminates rays early once opacity saturates
	// (default 0.98).
	MaxAlpha float64
}

func (o VolumeOptions) withDefaults() VolumeOptions {
	if o.Step == 0 {
		o.Step = 0.5
	}
	if o.MaxAlpha == 0 {
		o.MaxAlpha = 0.98
	}
	return o
}

// validate checks the options; the transfer function is checked once
// the render has made it.
func (o VolumeOptions) validate() error {
	if o.W <= 0 || o.H <= 0 {
		return fmt.Errorf("viz: image size %dx%d", o.W, o.H)
	}
	if o.Camera == nil {
		return fmt.Errorf("viz: camera and transfer function required")
	}
	return nil
}

// RenderVolume ray-casts the scalar field through the sparse domain
// with front-to-back compositing. With a partial field (Owned mask
// set), only owned samples contribute — each rank renders its own
// subdomain "without any data exchange with the neighbours" (section
// IV-D), which is exactly why the paper rates volume rendering easy to
// parallelise. The per-pixel depth of the first contribution supports
// the later sort-last merge.
func RenderVolume(f *field.Field, opt VolumeOptions) (*render.Image, error) {
	return new(VolumeBuffers).render(f, opt, fixedTF(opt.TF), 1)
}

// fixedTF is the transfer-function rule that gives tf whatever the
// field's range.
func fixedTF(tf *render.TransferFunction) func(float64) *render.TransferFunction {
	return func(float64) *render.TransferFunction { return tf }
}

// VolumeBuffers is the storage one volume render needs — the image it
// draws and the per-site scalar it samples — kept by a render worker so
// that a frame allocates nothing. The zero value is ready; it must not
// be used from two goroutines at once.
type VolumeBuffers struct {
	img    render.Image
	scalar []float64
	// Samples the last render evaluated and how many of them found
	// fluid: the wasted-work ratio of the brick walk.
	evaluated, fluid int
}

// Render is RenderVolume into b's own image, which is valid until the
// next call, cast by up to GOMAXPROCS participants (the caller and
// guard's idle helpers): a render worker's
// frame is the whole product, where RenderVolume's caller is one rank
// of several that already share the machine. The image does not depend
// on how many (see render). The transfer function is tf(m), where m is
// the largest scalar of the field's valid sites (field.MaxScalar's
// value); opt.TF is not used. m is read off the per-site table the rays
// sample, so a frame computes each site's scalar once.
func (b *VolumeBuffers) Render(f *field.Field, opt VolumeOptions, tf func(m float64) *render.TransferFunction) (*render.Image, error) {
	return b.render(f, opt, tf, runtime.GOMAXPROCS(0))
}

// parcelRows is how many image rows a participant claims at a time. Most
// rows of a frame are background and cost next to nothing, so the rows
// are handed out in small parcels rather than split in equal shares.
const parcelRows = 4

// render casts the image with the transfer function tf(m) (see Render)
// in parcels of rows claimed by up to workers participants. Every pixel
// is its own ray and a parcel writes only its own rows, so the image is
// the same, bit for bit, for any worker count.
func (b *VolumeBuffers) render(f *field.Field, opt VolumeOptions, tf func(m float64) *render.TransferFunction, workers int) (*render.Image, error) {
	opt = opt.withDefaults()
	if err := opt.validate(); err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	shared := newCaster(f, opt, &b.scalar)
	if shared.opt.TF = tf(shared.scalarMax); shared.opt.TF == nil {
		return nil, fmt.Errorf("viz: camera and transfer function required")
	}
	b.img.Reset(opt.W, opt.H)
	var sum struct{ rows, evaluated, fluid atomic.Int64 } // over the parcels cast
	guard.ForChunks((opt.H+parcelRows-1)/parcelRows, workers, func(parcel int) {
		c := *shared // the sample counters are this parcel's own
		first, end := parcel*parcelRows, min((parcel+1)*parcelRows, opt.H)
		for py := first; py < end; py++ {
			v := (float64(py) + 0.5) / float64(opt.H)
			for px := 0; px < opt.W; px++ {
				u := (float64(px) + 0.5) / float64(opt.W)
				if acc, depth := c.cast(opt.Camera.Ray(u, v)); acc.A > 0 {
					b.img.Set(px, py, acc, depth)
				}
			}
		}
		sum.rows.Add(int64(end - first))
		sum.evaluated.Add(int64(c.evaluated))
		sum.fluid.Add(int64(c.fluid))
	})
	if got := int(sum.rows.Load()); got != opt.H {
		panic(fmt.Sprintf("viz: the row parcels cast %d of %d rows", got, opt.H))
	}
	b.evaluated, b.fluid = int(sum.evaluated.Load()), int(sum.fluid.Load())
	return &b.img, nil
}

// caster holds what every ray of one render shares.
type caster struct {
	dom    *geometry.Domain
	bricks *geometry.Bricks
	owned  []bool
	scalar []float64 // ScalarAtSite of every site
	// scalarMax is the table's largest value, f.MaxScalar(opt.Scalar).
	scalarMax float64
	opt       VolumeOptions
	bounds    vec.Box
	// maxSpan bounds the samples of one ray: the box diagonal in steps.
	maxSpan          float64
	evaluated, fluid int
}

// newCaster tabulates the scalar per site (one sqrt per site for speed,
// not eight per sample), into *buf unless the field's own array serves.
func newCaster(f *field.Field, opt VolumeOptions, buf *[]float64) *caster {
	dims := f.Dom.Dims.F()
	c := &caster{
		dom: f.Dom, bricks: f.Dom.Bricks(), owned: f.Owned, opt: opt,
		bounds:  vec.NewBox(vec.V3{}, dims),
		maxSpan: dims.Len()/opt.Step + 2,
	}
	c.scalar, c.scalarMax = f.ScalarTable(opt.Scalar, buf)
	return c
}

// samples clips a ray to the bounding lattice: sample k of n sits at
// t0 + k·step, below the exit. Positions are a function of the index,
// not a running sum, so the brick walk can enter any interval without
// marching up to it. A ray with no finite interval (zero or non-finite
// direction, eye out of float range) has no samples.
func (c *caster) samples(origin, dir vec.V3) (t0 float64, n int) {
	t0, t1, hit := c.bounds.IntersectRay(origin, dir)
	if !hit {
		return 0, 0
	}
	if t0 < 0 {
		t0 = 0
	}
	step := c.opt.Step
	span := (t1 - t0) / step
	if !(span >= 0 && span <= c.maxSpan) {
		return 0, 0
	}
	n = int(span)
	if sampleT(t0, n, step) < t1 {
		n++
	} else if n > 0 && !(sampleT(t0, n-1, step) < t1) {
		n--
	}
	return t0, n
}

// sampleT and rayPoint round their product before the sum on every
// platform (no fused multiply-add), so the walk and the reference march
// agree bit for bit.
func sampleT(t0 float64, k int, step float64) float64 { return t0 + float64(float64(k)*step) }

func rayPoint(origin, dir vec.V3, t float64) vec.V3 {
	return vec.V3{X: origin.X + float64(dir.X*t), Y: origin.Y + float64(dir.Y*t), Z: origin.Z + float64(dir.Z*t)}
}

// cast composites one ray front to back. A 3-D DDA walks the ray through
// the domain's occupancy bricks and only the samples inside occupied
// bricks are evaluated. Every evaluated sample still runs the full fluid
// test, so the grid needs only to be conservative: a sample the walk
// skips is one the full march would have discarded, and the image is
// identical to marching every sample. The DDA's own rounding (far below
// one cell) is covered by the one-cell dilation of the grid.
func (c *caster) cast(origin, dir vec.V3) (acc render.RGBA, depth float64) {
	depth = math.Inf(1)
	t0, n := c.samples(origin, dir)
	if n == 0 {
		return acc, depth
	}
	const brick = geometry.BrickCells
	step := c.opt.Step
	g := rayPoint(origin, dir, t0)
	pos := [3]float64{g.X + geometry.BrickMargin, g.Y + geometry.BrickMargin, g.Z + geometry.BrickMargin}
	d := [3]float64{dir.X, dir.Y, dir.Z}
	dims := [3]int{c.bricks.Dims.X, c.bricks.Dims.Y, c.bricks.Dims.Z}
	var ix, inc [3]int
	var tMax, tDelta [3]float64 // next boundary crossing per axis, and their spacing
	for a := range pos {
		ix[a] = int(pos[a] / brick)
		if ix[a] < 0 {
			ix[a] = 0
		} else if ix[a] >= dims[a] {
			ix[a] = dims[a] - 1
		}
		tMax[a] = math.Inf(1)
		if d[a] > 0 {
			inc[a], tDelta[a] = 1, brick/d[a]
			tMax[a] = t0 + (float64(ix[a]+1)*brick-pos[a])/d[a]
		} else if d[a] < 0 {
			inc[a], tDelta[a] = -1, -brick/d[a]
			tMax[a] = t0 + (float64(ix[a])*brick-pos[a])/d[a]
		}
	}
	next, tIn := 0, t0 // first sample not yet evaluated; entry into the current brick
	// Each step moves one index one way, so a ray visits at most the sum
	// of the grid's extents; the count also ends a walk whose crossings
	// are NaN.
	for left := dims[0] + dims[1] + dims[2]; left > 0 && next < n; left-- {
		a := 0
		if tMax[1] < tMax[a] {
			a = 1
		}
		if tMax[2] < tMax[a] {
			a = 2
		}
		tOut := tMax[a]
		if c.bricks.Occupied[(ix[2]*dims[1]+ix[1])*dims[0]+ix[0]] {
			// Samples with t in [tIn, tOut], one more at the far end for
			// the rounding of the division.
			lo, hi := int((tIn-t0)/step), n-1
			if lo < next {
				lo = next
			}
			if x := (tOut - t0) / step; x < float64(hi) {
				hi = int(x) + 1
			}
			for k := lo; k <= hi; k++ {
				t := sampleT(t0, k, step)
				s, ok := c.sample(rayPoint(origin, dir, t))
				if !ok {
					continue
				}
				col := c.opt.TF.Map(s)
				if col.A <= 0 {
					continue
				}
				// Opacity correction for step length.
				col.A = 1 - math.Pow(1-col.A, step)
				acc = acc.Over(col) // front-to-back: acc stays in front
				if math.IsInf(depth, 1) {
					depth = t
				}
				if acc.A >= c.opt.MaxAlpha {
					return acc, depth
				}
			}
			if hi >= next {
				next = hi + 1
			}
		}
		ix[a] += inc[a]
		if ix[a] < 0 || ix[a] >= dims[a] {
			break
		}
		tMax[a] += tDelta[a]
		tIn = tOut
	}
	return acc, depth
}

// sample is field.ScalarAt over the tabulated scalar: same corner order,
// zero-weight skip and Owned test, so the sum is the same to the bit.
func (c *caster) sample(p vec.V3) (float64, bool) {
	c.evaluated++
	bx, by, bz := math.Floor(p.X), math.Floor(p.Y), math.Floor(p.Z)
	var ids [8]int32
	if !c.dom.CellSites(vec.I3{X: int(bx), Y: int(by), Z: int(bz)}, &ids) {
		return 0, false
	}
	fx, fy, fz := p.X-bx, p.Y-by, p.Z-bz
	wx, wy, wz := [2]float64{1 - fx, fx}, [2]float64{1 - fy, fy}, [2]float64{1 - fz, fz}
	acc, found := 0.0, false
	for i, id := range ids {
		w := wx[i&1] * wy[i>>1&1] * wz[i>>2]
		if w == 0 || id < 0 || (c.owned != nil && !c.owned[id]) {
			continue
		}
		found = true
		acc += float64(c.scalar[id] * w)
	}
	if found {
		c.fluid++
	}
	return acc, found
}

// RenderVolumeDist renders each rank's owned sites locally and merges
// the partial images with a binary-swap-style pairwise reduction to
// rank 0 (depth-aware compositing). Communication volume is O(image ×
// log ranks), independent of the data size — the "low" communication
// cost row of Table I. Returns the full image at rank 0 and nil
// elsewhere.
func RenderVolumeDist(comm *par.Comm, f *field.Field, opt VolumeOptions) (*render.Image, error) {
	img, err := RenderVolume(f, opt)
	if err != nil {
		return nil, err
	}
	// Pairwise tree merge: at each round, odd-indexed survivors send
	// their image to the even partner, which composites.
	rank, size := comm.Rank(), comm.Size()
	for step := 1; step < size; step <<= 1 {
		if rank&step != 0 {
			comm.SendBytes(rank-step, tagImage, img.SerializeCompact())
			return nil, nil
		}
		if rank+step < size {
			data, _ := comm.RecvBytes(rank+step, tagImage)
			other, err := render.DeserializeCompact(data)
			if err != nil {
				return nil, err
			}
			if err := img.CompositeUnder(other); err != nil {
				return nil, err
			}
		}
	}
	return img, nil
}
