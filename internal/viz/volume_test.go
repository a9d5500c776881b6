package viz

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/field"
	"repro/internal/geometry"
	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/leaktest"
	"repro/internal/partition"
	"repro/internal/render"
	"repro/internal/vec"
)

// renderVolumeBrute is the reference RenderVolume is held to: every
// sample of every ray through the whole bounding lattice, each read
// with the generic field.ScalarAt. It shares only the definition of the
// sample train (samples, sampleT, rayPoint) with the brick walk.
func renderVolumeBrute(f *field.Field, opt VolumeOptions) *render.Image {
	opt = opt.withDefaults()
	img := render.NewImage(opt.W, opt.H)
	c := newCaster(f, opt, new([]float64))
	for py := 0; py < opt.H; py++ {
		v := (float64(py) + 0.5) / float64(opt.H)
		for px := 0; px < opt.W; px++ {
			u := (float64(px) + 0.5) / float64(opt.W)
			origin, dir := opt.Camera.Ray(u, v)
			if acc, depth := c.bruteCast(f, origin, dir); acc.A > 0 {
				img.Set(px, py, acc, depth)
			}
		}
	}
	return img
}

// newCaster is the caster of a serial render of f with options opt
// (defaults applied), its blocks filled from a scalar table in *buf.
func newCaster(f *field.Field, opt VolumeOptions, buf *[]float64) *caster {
	b := &VolumeBuffers{scalar: *buf}
	return b.prepare(f, opt, 1)
}

// bruteCast is cast without the bricks: the full march of one ray.
func (c *caster) bruteCast(f *field.Field, origin, dir vec.V3) (acc render.RGBA, depth float64) {
	return c.march(func(p vec.V3) (float64, bool) { return f.ScalarAt(p, c.opt.Scalar) }, origin, dir)
}

// march is the full march of one ray through c's sample train, each
// sample read with sample.
func (c *caster) march(sample func(vec.V3) (float64, bool), origin, dir vec.V3) (acc render.RGBA, depth float64) {
	depth = math.Inf(1)
	t0, n := c.samples(origin, dir)
	for k := 0; k < n; k++ {
		t := sampleT(t0, k, c.opt.Step)
		s, ok := sample(rayPoint(origin, dir, t))
		if !ok {
			continue
		}
		col := c.opt.TF.Map(s)
		if col.A <= 0 {
			continue
		}
		col.A = 1 - math.Pow(1-col.A, c.opt.Step)
		acc = acc.Over(col)
		if math.IsInf(depth, 1) {
			depth = t
		}
		if acc.A >= c.opt.MaxAlpha {
			break
		}
	}
	return acc, depth
}

// siteSampler is the sampler the corner blocks replaced, kept as their
// oracle: the eight corner ids of floor(p)'s cell from the id grid,
// then the per-site scalar of each fluid, owned corner with a weight
// other than zero, in corner order.
type siteSampler struct {
	dom    *geometry.Domain
	scalar []float64 // field.ScalarTable's, by site id
	owned  []bool
}

func (s *siteSampler) sample(p vec.V3) (float64, bool) {
	bx, by, bz := math.Floor(p.X), math.Floor(p.Y), math.Floor(p.Z)
	var ids [8]int32
	if !cellSites(s.dom, vec.I3{X: int(bx), Y: int(by), Z: int(bz)}, &ids) {
		return 0, false
	}
	fx, fy, fz := p.X-bx, p.Y-by, p.Z-bz
	wx, wy, wz := [2]float64{1 - fx, fx}, [2]float64{1 - fy, fy}, [2]float64{1 - fz, fz}
	acc, found := 0.0, false
	for i, id := range ids {
		w := wx[i&1] * wy[i>>1&1] * wz[i>>2]
		if w == 0 || id < 0 || (s.owned != nil && !s.owned[id]) {
			continue
		}
		found = true
		acc += float64(s.scalar[id] * w)
	}
	return acc, found
}

// cellSites fills ids with the site ids (-1: solid or outside) of the
// eight corners base+{0,1}³ of a sample cell, x fastest, then y, then z,
// and reports whether any corner is fluid.
func cellSites(d *geometry.Domain, base vec.I3, ids *[8]int32) bool {
	for i := range ids {
		ids[i] = int32(d.SiteAt(base.Add(vec.I3{X: i & 1, Y: i >> 1 & 1, Z: i >> 2})))
	}
	return ids[0]&ids[1]&ids[2]&ids[3]&ids[4]&ids[5]&ids[6]&ids[7] >= 0
}

// firstDiff returns the first pixel whose colour or depth differs in any
// bit (NaN payloads included), or "".
func firstDiff(got, want *render.Image) string {
	if got.W != want.W || got.H != want.H {
		return fmt.Sprintf("size %dx%d, want %dx%d", got.W, got.H, want.W, want.H)
	}
	bits := math.Float64bits
	for i := range want.Pix {
		g, w := got.Pix[i], want.Pix[i]
		if bits(g.R) != bits(w.R) || bits(g.G) != bits(w.G) || bits(g.B) != bits(w.B) ||
			bits(g.A) != bits(w.A) || bits(got.Depth[i]) != bits(want.Depth[i]) {
			return fmt.Sprintf("pixel (%d,%d): got %+v depth %v, want %+v depth %v",
				i%want.W, i/want.W, g, got.Depth[i], w, want.Depth[i])
		}
	}
	return ""
}

// noiseField fills a domain with seeded values: the renderer's contract
// is about which sites it reads and in what order, not about physics.
func noiseField(dom *geometry.Domain, rng *rand.Rand) *field.Field {
	n := dom.NumSites()
	f := &field.Field{Dom: dom, Rho: make([]float64, n), Ux: make([]float64, n),
		Uy: make([]float64, n), Uz: make([]float64, n), WSS: make([]float64, n)}
	for i := 0; i < n; i++ {
		f.Rho[i] = 1 + 0.1*rng.Float64()
		f.Ux[i], f.Uy[i], f.Uz[i] = 0.1*rng.NormFloat64(), 0.1*rng.NormFloat64(), 0.1*rng.NormFloat64()
		f.WSS[i] = 0.01 * rng.Float64()
	}
	return f
}

// sweepCamera draws view i: orbits at seeded angles from inside the
// lattice to far outside, and every fourth view looks straight down a
// lattice axis so the centre ray of the (odd-sized) image has two zero
// direction components.
func sweepCamera(dims vec.I3, i int, rng *rand.Rand, aspect float64) *vec.Camera {
	center := dims.F().Mul(0.5)
	if i%4 == 3 {
		axis := [...]vec.V3{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {Z: 1}, {Z: -1}}[i/4%6]
		eye := center.Sub(axis.Mul(dims.F().Len() * rng.Float64()))
		return vec.NewCamera(eye, eye.Add(axis), vec.New(0, 0, 1), 40, aspect)
	}
	dist := [...]float64{0.05, 0.4, 1.6, 4}[rng.Intn(4)]
	return vec.Orbit(center, float64(dims.Z)*dist, 2*math.Pi*rng.Float64(), 3*rng.Float64()-1.5, 40, aspect)
}

// TestVolumeSkipMatchesBruteForce is the renderer's exactness contract:
// over seeded views × the six presets × the three scalars × odd image
// sizes × whole fields and the Owned masks of a 2- and a 3-way
// partition, the brick walk's image equals the full march in every bit
// of Pix and Depth.
func TestVolumeSkipMatchesBruteForce(t *testing.T) {
	const seed = 20261001
	sizes := [...][2]int{{37, 29}, {31, 41}, {45, 27}}
	scalars := [...]field.Scalar{field.ScalarSpeed, field.ScalarRho, field.ScalarWSS}
	for _, preset := range []string{"pipe", "bend", "bifurcation", "aneurysm", "tree", "stenosis"} {
		v, err := geometry.VesselByName(preset, 1)
		if err != nil {
			t.Fatal(err)
		}
		dom, err := geometry.Voxelise(v, 1, lattice.D3Q19())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		full := noiseField(dom, rng)
		// Mask 0 is the whole field; 1-2 and 3-5 are the ranks of a 2-
		// and a 3-way partition.
		masks := [][]bool{nil}
		for _, k := range []int{2, 3} {
			p, err := partition.MultilevelKWay(partition.FromDomain(dom), k, partition.MLOptions{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < k; r++ {
				masks = append(masks, field.OwnedMask(p.Parts, r))
			}
		}
		var bufs VolumeBuffers // reused across views, as a render worker does
		for i := 0; i < 3*len(scalars)*len(masks); i++ {
			f := *full
			f.Owned = masks[i/len(scalars)%len(masks)]
			if i%5 == 4 {
				f.WSS = nil // ScalarWSS then reads as zero everywhere
			}
			size := sizes[i%len(sizes)]
			opt := VolumeOptions{W: size[0], H: size[1], Scalar: scalars[i%len(scalars)],
				Camera: sweepCamera(dom.Dims, i, rng, float64(size[0])/float64(size[1]))}
			opt.TF = render.BlueRed(0, f.MaxScalar(opt.Scalar))
			if i%2 == 1 {
				opt.TF = render.Grayscale(0, f.MaxScalar(opt.Scalar))
			}
			var m float64 // the maximum the render read off its own table
			got, err := bufs.Render(&f, VolumeOptions{W: opt.W, H: opt.H, Scalar: opt.Scalar, Camera: opt.Camera},
				func(top float64) *render.TransferFunction { m = top; return opt.TF })
			if err != nil {
				t.Fatal(err)
			}
			if want := f.MaxScalar(opt.Scalar); m != want {
				t.Fatalf("%s view %d (%v, mask %d): render's maximum %v, MaxScalar %v", preset, i, opt.Scalar,
					i/len(scalars)%len(masks), m, want)
			}
			want := renderVolumeBrute(&f, opt)
			if d := firstDiff(got, want); d != "" {
				t.Fatalf("%s seed %d view %d (%dx%d %v, mask %d, eye %+v): %s", preset, seed, i,
					opt.W, opt.H, opt.Scalar, i/len(scalars)%len(masks), opt.Camera.Eye, d)
			}
			if i%4 != 3 && i/len(scalars)%len(masks) == 0 && want.CoveredFraction() == 0 && opt.Camera.Eye.Dist(dom.Dims.F().Mul(0.5)) > float64(dom.Dims.Z) {
				t.Errorf("%s view %d: reference image is blank, the comparison proves nothing", preset, i)
			}
		}
	}
}

// TestVolumeParallelMatchesSerial: the row-parcel fan-out changes who
// casts a row, never what is cast. Over worker counts up to four times
// the core count × image sizes with fewer rows than one parcel, rows
// that are no multiple of it and the bench frame × three presets × the
// whole field and a seeded random Owned mask, Pix, Depth and both sample
// counters equal the one-goroutine render's — which
// TestVolumeSkipMatchesBruteForce ties to the full march.
func TestVolumeParallelMatchesSerial(t *testing.T) {
	const seed = 20261003
	sizes := [...][2]int{{256, 192}, {9, 7}, {1, 1}, {5, 3}, {64, 50}}
	for _, preset := range []string{"tree", "aneurysm", "pipe"} {
		v, err := geometry.VesselByName(preset, 1)
		if err != nil {
			t.Fatal(err)
		}
		dom, err := geometry.Voxelise(v, 1, lattice.D3Q19())
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		full := noiseField(dom, rng)
		masked := *full
		masked.Owned = make([]bool, dom.NumSites())
		for i := range masked.Owned {
			masked.Owned[i] = rng.Intn(3) > 0
		}
		for _, f := range []*field.Field{full, &masked} {
			for _, size := range sizes {
				opt := VolumeOptions{W: size[0], H: size[1], Scalar: field.ScalarSpeed,
					Camera: testCamera(f, size[0], size[1]), TF: render.BlueRed(0, f.MaxScalar(field.ScalarSpeed))}
				var serial, bufs VolumeBuffers
				want, err := serial.render(f, opt, fixedTF(opt.TF), 1)
				if err != nil {
					t.Fatal(err)
				}
				if size[0] >= 64 && want.CoveredFraction() == 0 {
					t.Fatalf("%s %dx%d: the serial image is blank, the comparison proves nothing", preset, opt.W, opt.H)
				}
				for _, workers := range []int{1, 2, 3, 8} {
					got, err := bufs.render(f, opt, fixedTF(opt.TF), workers)
					if err != nil {
						t.Fatal(err)
					}
					if d := firstDiff(got, want); d != "" {
						t.Fatalf("%s seed %d %dx%d masked=%v, %d workers: %s", preset, seed, opt.W, opt.H, f.Owned != nil, workers, d)
					}
					if bufs.evaluated != serial.evaluated || bufs.fluid != serial.fluid {
						t.Fatalf("%s %dx%d masked=%v, %d workers: %d samples (%d fluid), serial %d (%d)", preset, opt.W, opt.H,
							f.Owned != nil, workers, bufs.evaluated, bufs.fluid, serial.evaluated, serial.fluid)
					}
				}
			}
		}
	}
}

// TestRenderPanicFailsOneFrame: a transfer function with one stop makes
// Map index out of range at the first fluid sample, on whichever
// goroutine casts that row. The render worker's guard.Capture must get
// it as a *guard.PanicError — a panic left on a helper goroutine ends
// the process, and with it this test binary.
func TestRenderPanicFailsOneFrame(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer leaktest.Check(t)()
	f := developedField(t, 10)
	opt := VolumeOptions{W: 64, H: 48, Camera: testCamera(f, 64, 48), Scalar: field.ScalarSpeed,
		TF: &render.TransferFunction{Hi: 1, Stops: []render.RGBA{{R: 1, A: 1}}}}
	var bufs VolumeBuffers
	for round := 0; round < 20; round++ { // either goroutine may reach the fluid first
		err := guard.Capture("render", func() error {
			_, err := bufs.Render(f, opt, fixedTF(opt.TF))
			return err
		})
		var pe *guard.PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("round %d: got %v, want a *guard.PanicError", round, err)
		}
		if _, ok := pe.Value.(runtime.Error); !ok {
			t.Fatalf("round %d: recovered %v (%T), want the index-out-of-range runtime error", round, pe.Value, pe.Value)
		}
	}
	// The same buffers serve the next frame.
	opt.TF = render.BlueRed(0, f.MaxScalar(field.ScalarSpeed))
	if img, err := bufs.Render(f, opt, fixedTF(opt.TF)); err != nil || img.CoveredFraction() == 0 {
		t.Fatalf("frame after the panics: err %v", err)
	}
}

// TestVolumeWalkDegenerateRays: the brick walk ends, indexes nothing out
// of range and still equals the reference for the rays a DDA is known to
// mishandle. Before the walk a zero direction inside the box marched
// for ever.
func TestVolumeWalkDegenerateRays(t *testing.T) {
	dom, err := geometry.Voxelise(geometry.Aneurysm(16, 3, 4), 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	f := noiseField(dom, rand.New(rand.NewSource(7)))
	center := dom.Dims.F().Mul(0.5)
	opt := VolumeOptions{W: 9, H: 7, Scalar: field.ScalarSpeed, TF: render.BlueRed(0, f.MaxScalar(field.ScalarSpeed))}.withDefaults()
	nan, inf := math.NaN(), math.Inf(1)
	nanField := *f
	nanField.Ux = make([]float64, len(f.Ux))
	for i := range nanField.Ux {
		nanField.Ux[i] = nan
	}

	t.Run("views", func(t *testing.T) {
		for name, tc := range map[string]struct {
			f   *field.Field
			cam *vec.Camera
		}{
			"eye inside the lattice":      {f, vec.NewCamera(center, center.Add(vec.New(1, 0.3, 0.2)), vec.New(0, 0, 1), 40, 9.0/7)},
			"eye on a face, looking in":   {f, vec.NewCamera(vec.New(0, center.Y, center.Z), center, vec.New(0, 0, 1), 40, 9.0/7)},
			"eye on a face, looking out":  {f, vec.NewCamera(vec.New(0, center.Y, center.Z), vec.New(-9, center.Y, center.Z), vec.New(0, 0, 1), 40, 9.0/7)},
			"eye == target (zero dir)":    {f, vec.NewCamera(center, center, vec.New(0, 0, 1), 40, 9.0/7)},
			"eye out of float range":      {f, vec.NewCamera(vec.New(1e300, 0, 0), center, vec.New(0, 0, 1), 40, 9.0/7)},
			"non-finite eye":              {f, vec.NewCamera(vec.New(inf, nan, 0), center, vec.New(0, 0, 1), 40, 9.0/7)},
			"diverged (NaN) velocity":     {&nanField, testCamera(f, 9, 7)},
			"diverged field, eye inside":  {&nanField, vec.NewCamera(center, center.Add(vec.New(0, 0, 1)), vec.New(0, 1, 0), 40, 9.0/7)},
			"axis-aligned through centre": {f, vec.NewCamera(vec.New(-20, center.Y, center.Z), center, vec.New(0, 0, 1), 40, 9.0/7)},
		} {
			o := opt
			o.Camera = tc.cam
			got, err := RenderVolume(tc.f, o)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if d := firstDiff(got, renderVolumeBrute(tc.f, o)); d != "" {
				t.Errorf("%s: %s", name, d)
			}
		}
	})

	t.Run("rays", func(t *testing.T) {
		c := newCaster(f, opt, new([]float64))
		dx, dy := float64(dom.Dims.X), float64(dom.Dims.Y)
		for name, ray := range map[string][2]vec.V3{
			"t0 == t1: grazes the x=0,y=0 edge": {vec.New(-1, 1, center.Z), vec.New(1, -1, 0).Norm()},
			"t0 == t1: leaves through a corner": {vec.New(dx, dy, 0), vec.New(1, 1, -1).Norm()},
			"in the x=0 face, zero x direction": {vec.New(0, -3, center.Z), vec.New(0, 1, 0)},
			"in the far face":                   {vec.New(dx, -3, center.Z), vec.New(0, 1, 0)},
			"on a brick boundary plane":         {vec.New(geometry.BrickCells-geometry.BrickMargin, -3, center.Z), vec.New(0, 1, 0)},
			"tiny direction component":          {vec.New(center.X, -3, center.Z), vec.New(1e-300, 1, -1e-300)},
			"NaN direction":                     {center, vec.New(nan, 1, 0)},
			"Inf direction":                     {center, vec.New(inf, 0, 0)},
			"NaN origin":                        {vec.New(nan, 0, 0), vec.New(1, 0, 0)},
			"zero direction":                    {center, vec.V3{}},
		} {
			acc, depth := c.cast(ray[0], ray[1])
			if wantAcc, wantDepth := c.bruteCast(f, ray[0], ray[1]); acc != wantAcc || depth != wantDepth {
				t.Errorf("%s: acc %+v depth %v, want %+v depth %v", name, acc, depth, wantAcc, wantDepth)
			}
		}
	})

	// A ray one ulp below a brick boundary plane: the walk adds the grid
	// margin to the coordinate, the sum rounds onto the plane, and the
	// walk is in the brick above the one floor(p) of its samples names.
	// With a lone fluid site just below the plane, only the
	// neighbour-cell dilation of the grid keeps those samples.
	t.Run("one ulp below a brick plane", func(t *testing.T) {
		model := lattice.D3Q19()
		const plane = geometry.BrickCells - geometry.BrickMargin // 2: plane-ulp and plane-ulp+margin lie in different binades
		lone := geometry.Site{Pos: vec.NewI(plane-1, plane-1, plane-1), Links: make([]geometry.Link, model.Q-1)}
		dom, err := geometry.Reassemble(model, vec.NewI(16, 16, 16), vec.V3{}, 1, nil, []geometry.Site{lone}, make([]float64, model.Q-1))
		if err != nil {
			t.Fatal(err)
		}
		f := &field.Field{Dom: dom, Rho: []float64{1}, Ux: []float64{0.1}, Uy: []float64{0}, Uz: []float64{0}}
		c := newCaster(f, opt, new([]float64))
		for a := 0; a < 3; a++ {
			var o, d [3]float64
			o[a], o[(a+1)%3], o[(a+2)%3] = math.Nextafter(plane, 0), plane-0.75, -2
			d[(a+2)%3] = 1
			origin, dir := vec.New(o[0], o[1], o[2]), vec.New(d[0], d[1], d[2])
			acc, depth := c.cast(origin, dir)
			wantAcc, wantDepth := c.bruteCast(f, origin, dir)
			if wantAcc.A == 0 {
				t.Fatalf("axis %d: the reference march misses the lone site", a)
			}
			if acc != wantAcc || depth != wantDepth {
				t.Errorf("axis %d: acc %+v depth %v, want %+v depth %v", a, acc, depth, wantAcc, wantDepth)
			}
		}
	})
}

// FuzzCastMatchesOracle holds the corner-block sampler to the kept
// oracle, bit for bit, on fuzzed rays, steps and transfer-function
// ranges through a small domain: every sample of the ray's full march
// and the fuzzed origin itself (any position, non-finite and far beyond
// int range included) read the same from both, and cast's image of the
// ray equals the full march with the oracle's samples. The fields are
// whole or under a seeded Owned mask, and carry NaN, ±Inf, −0 and
// negative values at seeded sites. The seeds are the rays of
// TestVolumeWalkDegenerateRays.
func FuzzCastMatchesOracle(f *testing.F) {
	dom, err := geometry.Voxelise(geometry.Aneurysm(16, 3, 4), 1.0, lattice.D3Q19())
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20261018))
	plain := noiseField(dom, rng)
	special := noiseField(dom, rng)
	for _, vals := range [][]float64{special.Rho, special.Ux, special.WSS} {
		for i := 0; i < 12; i++ {
			vals[rng.Intn(len(vals))] = [...]float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), -0.5, 1e300}[i%6]
		}
	}
	owned := make([]bool, dom.NumSites())
	for i := range owned {
		owned[i] = rng.Intn(3) > 0
	}
	var fields []*field.Field
	for _, fl := range []*field.Field{plain, special} {
		masked := *fl
		masked.Owned = owned
		fields = append(fields, fl, &masked)
	}
	scalars := [...]field.Scalar{field.ScalarSpeed, field.ScalarRho, field.ScalarWSS}

	center := dom.Dims.F().Mul(0.5)
	dx, dy := float64(dom.Dims.X), float64(dom.Dims.Y)
	nan, inf := math.NaN(), math.Inf(1)
	for i, ray := range [][2]vec.V3{
		{vec.New(-1, 1, center.Z), vec.New(1, -1, 0).Norm()},
		{vec.New(dx, dy, 0), vec.New(1, 1, -1).Norm()},
		{vec.New(0, -3, center.Z), vec.New(0, 1, 0)},
		{vec.New(dx, -3, center.Z), vec.New(0, 1, 0)},
		{vec.New(geometry.BrickCells-geometry.BrickMargin, -3, center.Z), vec.New(0, 1, 0)},
		{vec.New(math.Nextafter(geometry.BrickCells-geometry.BrickMargin, 0), -3, center.Z), vec.New(0, 1, 0)},
		{vec.New(center.X, -3, center.Z), vec.New(1e-300, 1, -1e-300)},
		{center, vec.New(nan, 1, 0)},
		{center, vec.New(inf, 0, 0)},
		{vec.New(nan, 0, 0), vec.New(1, 0, 0)},
		{center, vec.V3{}},
		{vec.New(1e300, 0, 0), center.Sub(vec.New(1e300, 0, 0)).Norm()},
		{vec.New(-20, center.Y, center.Z), vec.New(1, 0, 0)},
	} {
		o, d := ray[0], ray[1]
		f.Add(o.X, o.Y, o.Z, d.X, d.Y, d.Z, 0.5, 0.0, 0.2, uint8(i))
	}
	f.Add(center.X, center.Y, -5.0, 0.3, 0.2, 1.0, 0.25, -1.0, 2.0, uint8(5))
	// Samples in the plane x = 6 next to a NaN speed: only the
	// zero-weight skip keeps the NaN out of the sum.
	f.Add(25.0, -0.16666666666666666, 7.777777777777778, -3.0, 1.0, 2.333333333333333, 0.08333333333333333, -37.0, 0.2, uint8(98))
	f.Fuzz(func(t *testing.T, ox, oy, oz, dx, dy, dz, step, lo, hi float64, variant uint8) {
		if !(step >= 1.0/16 && step <= 8) {
			t.Skip("step outside 1/16..8: the march would be empty or unbounded")
		}
		fl := fields[int(variant)%len(fields)]
		opt := VolumeOptions{W: 1, H: 1, Step: step, Scalar: scalars[int(variant)/len(fields)%len(scalars)],
			TF: render.BlueRed(lo, hi)}.withDefaults()
		var buf []float64
		c := newCaster(fl, opt, &buf)
		table, _ := fl.ScalarTable(opt.Scalar, new([]float64))
		oracle := &siteSampler{dom: dom, scalar: table, owned: fl.Owned}
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		origin, dir := vec.New(ox, oy, oz), vec.New(dx, dy, dz)
		check := func(p vec.V3) {
			got, gotOK := c.sample(p)
			want, wantOK := oracle.sample(p)
			if gotOK != wantOK || !same(got, want) {
				t.Fatalf("sample at %+v: %v (%v), oracle %v (%v)", p, got, gotOK, want, wantOK)
			}
		}
		check(origin)
		t0, n := c.samples(origin, dir)
		for k := 0; k < n; k++ {
			check(rayPoint(origin, dir, sampleT(t0, k, step)))
		}
		acc, depth := c.cast(origin, dir)
		wantAcc, wantDepth := c.march(oracle.sample, origin, dir)
		if !same(acc.R, wantAcc.R) || !same(acc.G, wantAcc.G) || !same(acc.B, wantAcc.B) || !same(acc.A, wantAcc.A) || !same(depth, wantDepth) {
			t.Fatalf("ray %+v %+v: acc %+v depth %v, oracle march %+v depth %v", origin, dir, acc, depth, wantAcc, wantDepth)
		}
	})
}

// BenchmarkRenderVolume renders the frame bench/ asks hemeserved for —
// 256×192, default view, speed — on its two domains, with a worker's
// reused buffers. samples/frame is what the brick walk evaluated,
// fluid-share the part of it that found fluid: the walk's wasted work.
// table-bytes is the domain's corner-block table, buffer-bytes the
// worker's filled blocks, fill-share the fill's part of a frame.
func BenchmarkRenderVolume(b *testing.B) {
	for _, d := range []struct {
		preset string
		scale  float64
	}{{"tree", 3}, {"aneurysm", 2}} {
		b.Run(fmt.Sprintf("%s@%.1f", d.preset, d.scale), func(b *testing.B) {
			v, err := geometry.VesselByName(d.preset, d.scale)
			if err != nil {
				b.Fatal(err)
			}
			f := flowField(b, v, 40)
			const w, h = 256, 192
			opt := VolumeOptions{W: w, H: h, Camera: testCamera(f, w, h),
				TF: render.BlueRed(0, f.MaxScalar(field.ScalarSpeed)), Scalar: field.ScalarSpeed}
			var bufs VolumeBuffers
			if _, err := bufs.Render(f, opt, fixedTF(opt.TF)); err != nil { // builds the domain's bricks
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := bufs.Render(f, opt, fixedTF(opt.TF)); err != nil {
					b.Fatal(err)
				}
			}
			frame := b.Elapsed()
			b.ReportMetric(float64(bufs.evaluated), "samples/frame")
			b.ReportMetric(float64(bufs.fluid)/float64(bufs.evaluated), "fluid-share")
			// The blocks' share of the frame: the shared table, the
			// worker's buffers that keep the frame's corner scalars, and
			// the fill's time (a frame's prepare less its scalar table).
			b.StopTimer()
			var buf []float64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				bufs.prepare(f, opt.withDefaults(), runtime.GOMAXPROCS(0))
			}
			prepare := time.Since(start)
			start = time.Now()
			for i := 0; i < b.N; i++ {
				f.ScalarTable(opt.Scalar, &buf)
			}
			fill := prepare - time.Since(start)
			b.ReportMetric(float64(f.Dom.CornerBlocks().Bytes()), "table-bytes")
			b.ReportMetric(float64(8*cap(bufs.corners)+cap(bufs.masks)), "buffer-bytes")
			b.ReportMetric(float64(fill)/float64(frame), "fill-share")
		})
	}
}

// BenchmarkFramePNG times the PNG encode of a 256×192 frame of both
// bench/ domains with a kept encoder, the serial step after the cast:
// the volume frame bench/ asks for, and a wall, a streamline and a LIC
// frame of the same field and view, rendered as the service renders
// them.
func BenchmarkFramePNG(b *testing.B) {
	for _, d := range []struct {
		preset string
		scale  float64
	}{{"tree", 3}, {"aneurysm", 2}} {
		v, err := geometry.VesselByName(d.preset, d.scale)
		if err != nil {
			b.Fatal(err)
		}
		f := flowField(b, v, 40)
		const w, h = 256, 192
		cam := testCamera(f, w, h)
		speedTF := render.BlueRed(0, f.MaxScalar(field.ScalarSpeed))
		for _, mode := range []struct {
			name   string
			render func() (*render.Image, error)
		}{
			{"volume", func() (*render.Image, error) {
				return RenderVolume(f, VolumeOptions{W: w, H: h, Camera: cam, TF: speedTF, Scalar: field.ScalarSpeed})
			}},
			{"wall", func() (*render.Image, error) {
				return RenderWallWSS(f, WallOptions{W: w, H: h, Camera: cam, TF: render.BlueRed(0, f.MaxScalar(field.ScalarWSS))})
			}},
			{"streamlines", func() (*render.Image, error) {
				lines, err := TraceStreamlines(f, LineOptions{Seeds: SeedsAcrossInlet(f.Dom, 12), MaxSteps: 600, Dt: 0.5})
				if err != nil {
					return nil, err
				}
				return RenderLines(lines, cam, w, h, speedTF)
			}},
			{"lic", func() (*render.Image, error) { return LIC(f, AxialSlice(f.Dom.Dims), LICOptions{W: w, H: h}) }},
		} {
			b.Run(fmt.Sprintf("%s@%.1f/%s", d.preset, d.scale, mode.name), func(b *testing.B) {
				img, err := mode.render()
				if err != nil {
					b.Fatal(err)
				}
				var enc render.PNGEncoder
				png, err := enc.Encode(img)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if png, err = enc.Encode(img); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(len(png)), "bytes/frame")
			})
		}
	}
}
