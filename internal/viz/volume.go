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
	"math/bits"
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
// draws, the per-site scalar table and the scalar at every corner of
// the domain's corner blocks it samples — kept by a render worker so
// that a frame allocates nothing. The zero value is ready; it must not
// be used from two goroutines at once, nor copied after its first use.
type VolumeBuffers struct {
	img    render.Image
	scalar []float64
	// corners holds the frame's scalar at each corner slot of the
	// domain's geometry.CornerBlocks; masks their cell masks with the
	// corners of sites the field does not own cleared (a partial field
	// only: a whole field samples the table's own masks).
	corners []float64
	masks   []uint8
	// c is what every ray of the frame shares; table, vals and owned
	// are the domain's corner blocks and the field's per-site table and
	// Owned mask while the blocks fill.
	c     caster
	table *geometry.CornerBlocks
	vals  []float64
	owned []bool
	// One runner for both passes of a frame, with its two parcel
	// functions kept, so that neither pass allocates.
	parcels    guard.Parcels
	fill, cast func(slot, i int)
	// What the passes' parcels did, checked against what they were
	// given; the sample counters are summed over the row parcels.
	filled, rows, evaluatedSum, fluidSum atomic.Int64
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
// value); opt.TF is not used. m is read off the per-site table the
// corner blocks are filled from, so a frame computes each site's scalar
// once.
func (b *VolumeBuffers) Render(f *field.Field, opt VolumeOptions, tf func(m float64) *render.TransferFunction) (*render.Image, error) {
	return b.render(f, opt, tf, runtime.GOMAXPROCS(0))
}

// parcelRows is how many image rows a participant claims at a time. Most
// rows of a frame are background and cost next to nothing, so the rows
// are handed out in small parcels rather than split in equal shares.
const parcelRows = 4

// parcelBlocks is how many corner blocks a participant fills at a time.
const parcelBlocks = 64

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
	c := b.prepare(f, opt, workers)
	defer func() { b.c = caster{} }() // keeps nothing of the domain past the frame
	if c.opt.TF = tf(c.scalarMax); c.opt.TF == nil {
		return nil, fmt.Errorf("viz: camera and transfer function required")
	}
	b.img.Reset(opt.W, opt.H)
	b.rows.Store(0)
	b.evaluatedSum.Store(0)
	b.fluidSum.Store(0)
	b.parcels.Run((opt.H+parcelRows-1)/parcelRows, workers, b.cast)
	if got := int(b.rows.Load()); got != opt.H {
		panic(fmt.Sprintf("viz: the row parcels cast %d of %d rows", got, opt.H))
	}
	b.evaluated, b.fluid = int(b.evaluatedSum.Load()), int(b.fluidSum.Load())
	return &b.img, nil
}

// prepare makes b.c the caster of a frame of f: the scalar tabulated per
// site (one sqrt per site for speed, not eight per sample), into
// b.scalar unless the field's own array serves, then copied into the
// corner blocks on up to workers participants.
func (b *VolumeBuffers) prepare(f *field.Field, opt VolumeOptions, workers int) *caster {
	t := f.Dom.CornerBlocks()
	dims := f.Dom.Dims.F()
	b.c = caster{
		block:   t.Block,
		masks:   t.Mask,
		cells:   [3]uint{uint(t.Dims.X * geometry.BrickCells), uint(t.Dims.Y * geometry.BrickCells), uint(t.Dims.Z * geometry.BrickCells)},
		bricks:  [3]uint{uint(t.Dims.X), uint(t.Dims.Y), uint(t.Dims.Z)},
		opt:     opt,
		bounds:  vec.NewBox(vec.V3{}, dims),
		maxSpan: dims.Len()/opt.Step + 2,
	}
	b.table = t
	b.vals, b.c.scalarMax = f.ScalarTable(opt.Scalar, &b.scalar)
	b.corners = grow(b.corners, len(t.Sites))
	b.c.corners = b.corners
	if b.owned = f.Owned; b.owned != nil {
		b.masks = grow(b.masks, len(t.Mask))
		b.c.masks = b.masks
	}
	if b.fill == nil {
		b.fill, b.cast = b.fillParcel, b.castParcel
	}
	b.filled.Store(0)
	nb := t.NumBlocks()
	b.parcels.Run((nb+parcelBlocks-1)/parcelBlocks, workers, b.fill)
	if got := int(b.filled.Load()); got != nb {
		panic(fmt.Sprintf("viz: the block parcels filled %d of %d blocks", got, nb))
	}
	b.table, b.vals, b.owned = nil, nil, nil
	return &b.c
}

// grow returns buf resized to n, reallocated only when it is too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// fillParcel copies the per-site scalar into the corner slots of blocks
// [parcel·parcelBlocks, +parcelBlocks) and, for a partial field, clears
// the mask bits of the corners it does not own: a skipped corner stays
// skipped, never added as zero.
func (b *VolumeBuffers) fillParcel(_, parcel int) {
	const corners, cells = geometry.BlockCorners, geometry.BlockCells
	first := parcel * parcelBlocks
	end := min(first+parcelBlocks, b.table.NumBlocks())
	ids := b.table.Sites[first*corners : end*corners]
	dst := b.corners[first*corners : end*corners]
	vals := b.vals
	for i, id := range ids {
		if id >= 0 {
			dst[i] = vals[id]
		}
	}
	if owned := b.owned; owned != nil {
		masks := b.masks[first*cells : end*cells]
		copy(masks, b.table.Mask[first*cells:end*cells])
		for i, id := range ids {
			if id >= 0 && !owned[id] {
				clearCorner(masks[i/corners*cells:][:cells], i%corners)
			}
		}
	}
	b.filled.Add(int64(end - first))
}

// clearCorner clears corner slot s of a block in the masks of the ≤ 8
// cells it is a corner of.
func clearCorner(masks []uint8, s int) {
	const side, bc = geometry.BlockSide, geometry.BrickCells
	x, y, z := s%side, s/side%side, s/(side*side)
	for cz := max(z-1, 0); cz <= min(z, bc-1); cz++ {
		for cy := max(y-1, 0); cy <= min(y, bc-1); cy++ {
			for cx := max(x-1, 0); cx <= min(x, bc-1); cx++ {
				masks[(cz*bc+cy)*bc+cx] &^= 1 << ((x - cx) | (y-cy)<<1 | (z-cz)<<2)
			}
		}
	}
}

// castParcel casts the rows [parcel·parcelRows, +parcelRows) with its
// own copy of the frame's caster, whose sample counters are the
// parcel's own.
func (b *VolumeBuffers) castParcel(_, parcel int) {
	c := b.c
	opt := &c.opt
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
	b.rows.Add(int64(end - first))
	b.evaluatedSum.Add(int64(c.evaluated))
	b.fluidSum.Add(int64(c.fluid))
}

// caster holds what every ray of one render shares.
type caster struct {
	// block, bricks and cells are the corner-block table's brick grid
	// and its extent in bricks and in cells; corners and masks the
	// frame's filled blocks.
	block         []int32
	bricks, cells [3]uint
	corners       []float64
	masks         []uint8
	// scalarMax is the largest scalar of the field's valid sites,
	// f.MaxScalar(opt.Scalar).
	scalarMax float64
	opt       VolumeOptions
	bounds    vec.Box
	// maxSpan bounds the samples of one ray: the box diagonal in steps.
	maxSpan          float64
	evaluated, fluid int
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
// the domain's bricks and only the samples inside walk-occupied bricks
// are evaluated. Every evaluated sample still reads its own cell's mask,
// so the occupancy needs only to be conservative: a sample the walk
// skips is one the full march would have discarded, and the image is
// identical to marching every sample. The DDA's own rounding (far below
// one cell) is covered by the one-cell dilation of the occupancy.
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
	dims := [3]int{int(c.bricks[0]), int(c.bricks[1]), int(c.bricks[2])}
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
		if c.block[(ix[2]*dims[1]+ix[1])*dims[0]+ix[0]] != geometry.BrickEmpty {
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

// sample is field.ScalarAt over the filled corner blocks: the same
// corners in the same order, the same zero-weight skip, and a corner
// skipped when it is solid or not owned, so the sum is the same to the
// bit. The cell is floor(p)'s, never the walk's brick, which can be one
// off (see cast).
func (c *caster) sample(p vec.V3) (float64, bool) {
	c.evaluated++
	const bc, side = geometry.BrickCells, geometry.BlockSide
	bx, by, bz := math.Floor(p.X), math.Floor(p.Y), math.Floor(p.Z)
	// The cell on the brick grid. One off the grid, below it or beyond
	// int range included, compares above it as unsigned: no fluid.
	gx, gy, gz := uint(int(bx)+geometry.BrickMargin), uint(int(by)+geometry.BrickMargin), uint(int(bz)+geometry.BrickMargin)
	if gx >= c.cells[0] || gy >= c.cells[1] || gz >= c.cells[2] {
		return 0, false
	}
	blk := int(c.block[(gz/bc*c.bricks[1]+gy/bc)*c.bricks[0]+gx/bc])
	if blk < 0 {
		return 0, false
	}
	lx, ly, lz := int(gx%bc), int(gy%bc), int(gz%bc)
	mask := c.masks[blk*geometry.BlockCells+(lz*bc+ly)*bc+lx]
	if mask == 0 {
		return 0, false
	}
	v := c.corners[blk*geometry.BlockCorners+(lz*side+ly)*side+lx:]
	v = v[:side*side+side+2] // corners 0..7 at 0, 1, side, side+1, side², …
	fx, fy, fz := p.X-bx, p.Y-by, p.Z-bz
	// Corner i's weight is (wx·wy)·wz, as field.ScalarAt makes it.
	x0, x1, y0, y1, z0, z1 := 1-fx, fx, 1-fy, fy, 1-fz, fz
	w00, w10, w01, w11 := x0*y0, x1*y0, x0*y1, x1*y1
	acc := 0.0
	if mask == 0xFF {
		// Every corner fluid. fx, fy, fz lie in [0, 1) (or are NaN), so
		// corner 0's weight is above zero (or NaN) and the sample is
		// found.
		if w := w00 * z0; w != 0 {
			acc += float64(v[0] * w)
		}
		if w := w10 * z0; w != 0 {
			acc += float64(v[1] * w)
		}
		if w := w01 * z0; w != 0 {
			acc += float64(v[side] * w)
		}
		if w := w11 * z0; w != 0 {
			acc += float64(v[side+1] * w)
		}
		if w := w00 * z1; w != 0 {
			acc += float64(v[side*side] * w)
		}
		if w := w10 * z1; w != 0 {
			acc += float64(v[side*side+1] * w)
		}
		if w := w01 * z1; w != 0 {
			acc += float64(v[side*side+side] * w)
		}
		if w := w11 * z1; w != 0 {
			acc += float64(v[side*side+side+1] * w)
		}
		c.fluid++
		return acc, true
	}
	wxy, wz := [4]float64{w00, w10, w01, w11}, [2]float64{z0, z1}
	found := false
	for m := mask; m != 0; m &= m - 1 { // the fluid corners, in order
		i := bits.TrailingZeros8(m)
		w := wxy[i&3] * wz[i>>2]
		if w == 0 {
			continue
		}
		found = true
		acc += float64(v[cornerSlots[i]] * w)
	}
	if found {
		c.fluid++
	}
	return acc, found
}

// cornerSlots is the slot of corner i of a cell relative to the cell's
// base corner in its block.
var cornerSlots = [8]int{0, 1, geometry.BlockSide, geometry.BlockSide + 1,
	geometry.BlockSide * geometry.BlockSide, geometry.BlockSide*geometry.BlockSide + 1,
	geometry.BlockSide*geometry.BlockSide + geometry.BlockSide, geometry.BlockSide*geometry.BlockSide + geometry.BlockSide + 1}

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
	return compositeToRoot(comm, img)
}

// compositeToRoot merges every rank's partial image into rank 0's, in
// a pairwise tree: at each round, odd-indexed survivors send their
// image to the even partner, which composites it under its own. It
// returns the full image at rank 0 and nil elsewhere.
func compositeToRoot(comm *par.Comm, img *render.Image) (*render.Image, error) {
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
