package geometry

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"
	"unsafe"

	"repro/internal/lattice"
	"repro/internal/vec"
)

// voxeliseOracle is the voxeliser as it was before the sign-only
// parallel one replaced it: one goroutine, the full Union SDF at every
// point, one Links allocation per site, and every crossing distance
// computed as the links are classified (returned beside the domain, in
// the layout of Domain.LinkDists). It is the reference
// TestVoxeliseMatchesOracle holds Voxelise and the distance table to,
// bit for bit.
func voxeliseOracle(v *Vessel, h float64, model *lattice.Model) (*Domain, []float64, error) {
	if h <= 0 {
		return nil, nil, fmt.Errorf("geometry: lattice spacing must be positive, got %g", h)
	}
	b := v.Bounds()
	size := b.Size()
	nx := int(math.Ceil(size.X/h)) + 1
	ny := int(math.Ceil(size.Y/h)) + 1
	nz := int(math.Ceil(size.Z/h)) + 1
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, nil, fmt.Errorf("geometry: empty bounds %+v", b)
	}
	const maxSites = 1 << 28
	if nx*ny*nz > maxSites {
		return nil, nil, fmt.Errorf("geometry: lattice %dx%dx%d too large; increase spacing", nx, ny, nz)
	}
	d := &Domain{
		Model:  model,
		Dims:   vec.I3{X: nx, Y: ny, Z: nz},
		Origin: b.Min,
		H:      h,
		Iolets: append([]Iolet(nil), v.Iolets...),
		index:  make([]int32, nx*ny*nz),
	}
	d.BlockDims = vec.I3{
		X: (nx + BlockSize - 1) / BlockSize,
		Y: (ny + BlockSize - 1) / BlockSize,
		Z: (nz + BlockSize - 1) / BlockSize,
	}
	d.BlockFluidCount = make([]int32, d.NumBlocks())

	// Pass 1: classify fluid sites.
	for i := range d.index {
		d.index[i] = -1
	}
	var sites []Site
	for z := 0; z < nz; z++ {
		for y := 0; y < ny; y++ {
			for x := 0; x < nx; x++ {
				p := vec.I3{X: x, Y: y, Z: z}
				if !v.Inside(d.World(p)) {
					continue
				}
				d.index[d.offset(p)] = int32(len(sites))
				sites = append(sites, Site{Pos: p})
				d.BlockFluidCount[d.BlockID(BlockOf(p))]++
			}
		}
	}
	if len(sites) == 0 {
		return nil, nil, fmt.Errorf("geometry: vessel %q produced no fluid sites at spacing %g", v.Name, h)
	}
	d.Sites = sites

	// Pass 2: link classification.
	dists := make([]float64, len(sites)*(model.Q-1))
	for si := range d.Sites {
		s := &d.Sites[si]
		s.Links = make([]Link, model.Q-1)
		wp := d.World(s.Pos)
		for q := 1; q < model.Q; q++ {
			c := model.C[q]
			np := s.Pos.Add(vec.I3{X: c[0], Y: c[1], Z: c[2]})
			link := &s.Links[q-1]
			link.Iolet = -1
			if d.SiteAt(np) >= 0 {
				link.Type = LinkFluid
				continue
			}
			// The link leaves the fluid. Decide whether it crosses an
			// iolet disk or the vessel wall, and where.
			wn := d.World(np)
			if idx, t := d.ioletCrossing(wp, wn); idx >= 0 {
				if v.Iolets[idx].IsInlet {
					link.Type = LinkInlet
					s.Flags |= FlagInlet
				} else {
					link.Type = LinkOutlet
					s.Flags |= FlagOutlet
				}
				link.Iolet = idx
				dists[si*(model.Q-1)+q-1] = t
				continue
			}
			link.Type = LinkWall
			dists[si*(model.Q-1)+q-1] = wallCrossingOracle(v.Shape, wp, wn)
			s.Flags |= FlagWall
		}
		if s.Flags&FlagWall != 0 {
			s.WallNormal = sdfGradient(v.Shape, wp, d.H*0.5)
		}
	}
	return d, dists, nil
}

// Neighbour returns the site id of the neighbour of site si in model
// direction q (1-based), or -1 when the link is not a fluid link: the
// one-link lookup Neighbours replaced in the voxeliser, the plan and
// the site graph, kept as its oracle.
func (d *Domain) Neighbour(si, q int) int {
	s := &d.Sites[si]
	if s.Links[q-1].Type != LinkFluid {
		return -1
	}
	c := d.Model.C[q]
	return d.SiteAt(s.Pos.Add(vec.I3{X: c[0], Y: c[1], Z: c[2]}))
}

// wallCrossingOracle is wallCrossing on the full SDF.
func wallCrossingOracle(s Shape, a, b vec.V3) float64 {
	fb := s.SDF(b)
	if fb < 0 {
		return 1.0
	}
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 20; iter++ {
		mid := (lo + hi) / 2
		if s.SDF(a.Lerp(b, mid)) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (lo + hi) / 2
	if t <= 0 {
		t = 1e-9
	}
	return t
}

var presetNames = []string{"pipe", "bend", "bifurcation", "aneurysm", "tree", "stenosis"}

// TestVoxeliseMatchesOracle: on every preset at several scales and
// spacings, at worker counts below, at and above the core count, the
// voxeliser builds exactly the oracle's domain — same sites in the same
// order with the same links and normals, same dense index, same block
// counts — and its distance table, built on as many workers and through
// LinkDists, holds the oracle's crossing distances bit for bit.
// Checkpoints and TestGoldenStateHash rest on that numbering, the
// geometry file on those distances.
func TestVoxeliseMatchesOracle(t *testing.T) {
	type sizing struct{ scale, h float64 }
	sizings := []sizing{{1, 1}, {1.3, 1}, {1.6, 0.8}}
	for _, name := range presetNames {
		cases := sizings
		switch name {
		case "tree":
			cases = append(cases, sizing{3, 1}) // bench/ kernel-large
		case "aneurysm":
			cases = append(cases, sizing{2, 1}) // bench/ kernel-small
		}
		for _, sz := range cases {
			v, err := VesselByName(name, sz.scale)
			if err != nil {
				t.Fatal(err)
			}
			refused, err := matchesOracle(v, sz.h, oracleWorkers)
			if err == nil && refused != nil {
				err = fmt.Errorf("both refused to build it: %v", refused)
			}
			if err != nil {
				t.Fatalf("%s@%g h=%g: %v", name, sz.scale, sz.h, err)
			}
		}
	}
}

// oracleWorkers are the worker counts matchesOracle voxelises at:
// below, at and above the core count.
var oracleWorkers = []int{1, 2, 3, 7}

// matchesOracle voxelises v at spacing h on each of workers and reports
// the first way a result differs from voxeliseOracle's: the lattice,
// the sites in order with their links, flags and normals, the dense
// index, the block counts, the iolets and the distance table, bit for
// bit. A vessel the oracle refuses must be refused with its error, and
// refused is then that error, so that a caller which expects a domain
// can tell a shared refusal from a match.
func matchesOracle(v *Vessel, h float64, workers []int) (refused, err error) {
	want, wantDists, wantErr := voxeliseOracle(v, h, lattice.D3Q19())
	for _, w := range workers {
		got, err := voxelise(v, h, lattice.D3Q19(), w)
		if wantErr != nil || err != nil {
			if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
				return nil, fmt.Errorf("%d workers: error %v, oracle %v", w, err, wantErr)
			}
			continue
		}
		if got.Dims != want.Dims || got.Origin != want.Origin || got.H != want.H || got.BlockDims != want.BlockDims {
			return nil, fmt.Errorf("%d workers: lattice %+v %+v %g %+v, oracle %+v %+v %g %+v", w,
				got.Dims, got.Origin, got.H, got.BlockDims, want.Dims, want.Origin, want.H, want.BlockDims)
		}
		if len(got.Sites) != len(want.Sites) {
			return nil, fmt.Errorf("%d workers: %d sites, oracle %d", w, len(got.Sites), len(want.Sites))
		}
		for i := range want.Sites {
			g, o := &got.Sites[i], &want.Sites[i]
			if g.Pos != o.Pos || g.Flags != o.Flags || g.WallNormal != o.WallNormal || !slices.Equal(g.Links, o.Links) {
				return nil, fmt.Errorf("%d workers: site %d is %+v, oracle %+v", w, i, *g, *o)
			}
		}
		if !slices.Equal(got.index, want.index) {
			return nil, fmt.Errorf("%d workers: dense index differs from the oracle's", w)
		}
		if !slices.Equal(got.BlockFluidCount, want.BlockFluidCount) {
			return nil, fmt.Errorf("%d workers: BlockFluidCount differs from the oracle's", w)
		}
		if !slices.Equal(got.Iolets, want.Iolets) {
			return nil, fmt.Errorf("%d workers: iolets differ from the oracle's", w)
		}
		if err := sameDists(got.linkDists(w), wantDists, got.Model.Q); err != nil {
			return nil, fmt.Errorf("%d workers: %v", w, err)
		}
		if w == 1 {
			if err := sameDists(got.LinkDists(), wantDists, got.Model.Q); err != nil {
				return nil, fmt.Errorf("LinkDists: %v", err)
			}
		}
	}
	return wantErr, nil
}

// sameDists reports the first link whose distance differs in its bits
// from the oracle's.
func sameDists(got, want []float64, Q int) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d link distances, oracle %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("site %d dir %d: distance %v, oracle %v", i/(Q-1), i%(Q-1)+1, got[i], want[i])
		}
	}
	return nil
}

// TestVoxeliseLinksShareOneSlab: the per-site Links are windows of one
// allocation, capped so that appending to one cannot reach the next.
func TestVoxeliseLinksShareOneSlab(t *testing.T) {
	d := voxelPipe(t)
	for i := range d.Sites {
		l := d.Sites[i].Links
		if len(l) != d.Model.Q-1 || cap(l) != len(l) {
			t.Fatalf("site %d: len %d cap %d links, want %d/%d", i, len(l), cap(l), d.Model.Q-1, d.Model.Q-1)
		}
		if i > 0 && uintptr(unsafe.Pointer(&l[0])) != uintptr(unsafe.Pointer(&d.Sites[i-1].Links[len(l)-1]))+unsafe.Sizeof(Link{}) {
			t.Fatalf("site %d's links do not follow site %d's in memory", i, i-1)
		}
	}
}

// TestBoundsContainNegativeSDF is the invariant the sign test's culling
// rests on: a primitive is negative only inside its own Bounds(). Random
// instances of every primitive, and the members of every preset, are
// sampled over their box and a margin around it.
func TestBoundsContainNegativeSDF(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	rv := func(s float64) vec.V3 {
		return vec.New((rng.Float64()*2-1)*s, (rng.Float64()*2-1)*s, (rng.Float64()*2-1)*s)
	}
	var shapes []Shape
	for i := 0; i < 40; i++ {
		u := rv(1).Norm()
		w := u.Cross(rv(1)).Norm()
		shapes = append(shapes,
			Sphere{Center: rv(20), Radius: 0.5 + 6*rng.Float64()},
			Capsule{A: rv(20), B: rv(20), Radius: 0.5 + 5*rng.Float64()},
			TaperedCapsule{A: rv(20), B: rv(20), RA: 0.5 + 5*rng.Float64(), RB: 0.5 + 5*rng.Float64()},
			TorusArc{Center: rv(20), U: u, V: w, Major: 4 + 10*rng.Float64(), Tube: 0.5 + 3*rng.Float64(),
				Angle: 0.1 + rng.Float64()*(2*math.Pi-0.1)},
		)
	}
	for _, name := range presetNames {
		v, err := VesselByName(name, 1.7)
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range newSignField(v.Shape).leaves {
			shapes = append(shapes, l.shape)
		}
	}
	for _, s := range shapes {
		b := s.Bounds()
		wide := b.Expand(b.Size().Len() / 10)
		inside := 0
		for i := 0; i < 20000; i++ {
			sz := wide.Size()
			p := wide.Min.Add(vec.New(rng.Float64()*sz.X, rng.Float64()*sz.Y, rng.Float64()*sz.Z))
			if s.SDF(p) >= 0 {
				continue
			}
			inside++
			if p.X < b.Min.X || p.X > b.Max.X || p.Y < b.Min.Y || p.Y > b.Max.Y || p.Z < b.Min.Z || p.Z > b.Max.Z {
				t.Fatalf("%T %+v: SDF(%v) = %g < 0 outside Bounds() %+v", s, s, p, s.SDF(p), b)
			}
		}
		if inside == 0 {
			t.Errorf("%T %+v: no sample fell inside the shape", s, s)
		}
	}
}

// TestSignFieldMatchesSDF: on every preset the flattened, culled sign
// test agrees with the sign of the full SDF, also for a Union nested in
// a Union.
func TestSignFieldMatchesSDF(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	check := func(name string, s Shape) {
		f := newSignField(s)
		b := s.Bounds().Expand(2)
		sz := b.Size()
		for i := 0; i < 20000; i++ {
			p := b.Min.Add(vec.New(rng.Float64()*sz.X, rng.Float64()*sz.Y, rng.Float64()*sz.Z))
			if got, want := f.negative(p), s.SDF(p) < 0; got != want {
				t.Fatalf("%s: negative(%v) = %v, SDF = %g", name, p, got, s.SDF(p))
			}
		}
	}
	var all Union
	for _, name := range presetNames {
		v, err := VesselByName(name, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		check(name, v.Shape)
		all = append(all, v.Shape)
	}
	check("nested", all)
	if n := len(newSignField(all).leaves); n != 1+1+3+2+4+4 {
		t.Errorf("nested union flattened to %d leaves, want 15", n)
	}
}

// countedShape counts SDF evaluations of a primitive.
type countedShape struct {
	Shape
	n *atomic.Int64
}

func (c countedShape) SDF(p vec.V3) float64 {
	c.n.Add(1)
	return c.Shape.SDF(p)
}

// counted wraps every primitive of s, keeping Unions visible to the
// sign field's flattening.
func counted(s Shape, n *atomic.Int64) Shape {
	if u, ok := s.(Union); ok {
		out := make(Union, len(u))
		for i, m := range u {
			out[i] = counted(m, n)
		}
		return out
	}
	return countedShape{s, n}
}

var benchDomain *Domain

// BenchmarkVoxelise times the voxeliser against its oracle on the two
// domains bench/ runs and reports how many primitive SDF evaluations
// each spends per fluid site (counted in a separate, untimed build) and
// tested/point, the share of lattice points pass 1 asks about: all of
// them for the oracle, those of the row spans (rowSpan) for Voxelise.
//
//	go test -run '^$' -bench Voxelise -benchtime 3x ./internal/geometry
func BenchmarkVoxelise(b *testing.B) {
	for _, dc := range []struct {
		preset string
		scale  float64
	}{{"aneurysm", 2.0}, {"tree", 3.0}} {
		for _, impl := range []struct {
			name   string
			build  func(*Vessel) (*Domain, error)
			tested func(*Domain) int
		}{
			{"oracle", func(v *Vessel) (*Domain, error) {
				d, _, err := voxeliseOracle(v, 1, lattice.D3Q19())
				return d, err
			}, func(d *Domain) int { return len(d.index) }},
			{"new", func(v *Vessel) (*Domain, error) { return Voxelise(v, 1, lattice.D3Q19()) }, func(d *Domain) (n int) {
				boxes := d.leafBoxes()
				for z := 0; z < d.Dims.Z; z++ {
					for y := 0; y < d.Dims.Y; y++ {
						lo, hi := rowSpan(boxes, y, z)
						n += hi - lo
					}
				}
				return n
			}},
		} {
			b.Run(fmt.Sprintf("%s@%g/%s", dc.preset, dc.scale, impl.name), func(b *testing.B) {
				v, err := VesselByName(dc.preset, dc.scale)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if benchDomain, err = impl.build(v); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				var n atomic.Int64
				cv := *v
				cv.Shape = counted(v.Shape, &n)
				d, err := impl.build(&cv)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(n.Load())/float64(d.NumSites()), "sdf-evals/site")
				b.ReportMetric(float64(impl.tested(d))/float64(len(d.index)), "tested/point")
			})
		}
	}
}
