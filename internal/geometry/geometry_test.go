package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lattice"
	"repro/internal/vec"
)

func TestSphereSDF(t *testing.T) {
	s := Sphere{Center: vec.New(1, 2, 3), Radius: 2}
	if d := s.SDF(vec.New(1, 2, 3)); math.Abs(d+2) > 1e-12 {
		t.Errorf("centre SDF = %v, want -2", d)
	}
	if d := s.SDF(vec.New(4, 2, 3)); math.Abs(d-1) > 1e-12 {
		t.Errorf("outside SDF = %v, want 1", d)
	}
	if d := s.SDF(vec.New(3, 2, 3)); math.Abs(d) > 1e-12 {
		t.Errorf("surface SDF = %v, want 0", d)
	}
}

func TestCapsuleSDF(t *testing.T) {
	c := Capsule{A: vec.New(0, 0, 0), B: vec.New(0, 0, 10), Radius: 1}
	// On the axis, mid-segment.
	if d := c.SDF(vec.New(0, 0, 5)); math.Abs(d+1) > 1e-12 {
		t.Errorf("axis SDF = %v, want -1", d)
	}
	// Radially out at mid-height.
	if d := c.SDF(vec.New(2, 0, 5)); math.Abs(d-1) > 1e-12 {
		t.Errorf("radial SDF = %v, want 1", d)
	}
	// Beyond the cap: spherical distance.
	if d := c.SDF(vec.New(0, 0, 12)); math.Abs(d-1) > 1e-12 {
		t.Errorf("cap SDF = %v, want 1", d)
	}
}

func TestTaperedCapsuleRadiusInterpolates(t *testing.T) {
	c := TaperedCapsule{A: vec.New(0, 0, 0), B: vec.New(0, 0, 10), RA: 2, RB: 1}
	// At z=0 radius 2: point at x=2 is on surface.
	if d := c.SDF(vec.New(2, 0, 0)); math.Abs(d) > 1e-9 {
		t.Errorf("SDF at A-surface = %v", d)
	}
	// At z=10 radius 1.
	if d := c.SDF(vec.New(1, 0, 10)); math.Abs(d) > 1e-9 {
		t.Errorf("SDF at B-surface = %v", d)
	}
	// Mid: radius 1.5.
	if d := c.SDF(vec.New(1.5, 0, 5)); math.Abs(d) > 1e-9 {
		t.Errorf("SDF at mid-surface = %v", d)
	}
}

func TestTorusArcQuarter(t *testing.T) {
	// Quarter torus in the XZ plane, centred at origin, major 5, tube 1.
	arc := TorusArc{
		Center: vec.New(0, 0, 0),
		U:      vec.New(1, 0, 0),
		V:      vec.New(0, 0, 1),
		Major:  5,
		Tube:   1,
		Angle:  math.Pi / 2,
	}
	// Point on the ring at 45 degrees is inside.
	p := vec.New(5*math.Cos(math.Pi/4), 0, 5*math.Sin(math.Pi/4))
	if d := arc.SDF(p); math.Abs(d+1) > 1e-9 {
		t.Errorf("ring SDF = %v, want -1", d)
	}
	// Point at angle beyond the arc (180 degrees) is far outside.
	q := vec.New(-5, 0, 0)
	if d := arc.SDF(q); d < 3 {
		t.Errorf("beyond-arc SDF = %v, want clamped to arc end distance", d)
	}
}

func TestUnionSDFIsMin(t *testing.T) {
	u := Union{
		Sphere{Center: vec.New(0, 0, 0), Radius: 1},
		Sphere{Center: vec.New(10, 0, 0), Radius: 2},
	}
	f := func(x, y, z float64) bool {
		p := vec.New(math.Mod(x, 20), math.Mod(y, 20), math.Mod(z, 20))
		d := u.SDF(p)
		d0 := u[0].SDF(p)
		d1 := u[1].SDF(p)
		return d == math.Min(d0, d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnionBounds(t *testing.T) {
	u := Union{
		Sphere{Center: vec.New(0, 0, 0), Radius: 1},
		Sphere{Center: vec.New(10, 0, 0), Radius: 2},
	}
	b := u.Bounds()
	if b.Min.X != -1 || b.Max.X != 12 {
		t.Errorf("union bounds = %+v", b)
	}
}

func TestPipeInsideOutside(t *testing.T) {
	v := Pipe(20, 3)
	if !v.Inside(vec.New(0, 0, 10)) {
		t.Error("pipe axis midpoint should be fluid")
	}
	if v.Inside(vec.New(0, 0, -1)) {
		t.Error("below the inlet plane must be clipped")
	}
	if v.Inside(vec.New(0, 0, 21)) {
		t.Error("above the outlet plane must be clipped")
	}
	if v.Inside(vec.New(5, 0, 10)) {
		t.Error("outside the radius must be solid")
	}
}

func voxelPipe(t *testing.T) *Domain {
	t.Helper()
	d, err := Voxelise(Pipe(16, 3), 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatalf("Voxelise: %v", err)
	}
	return d
}

func TestVoxelisePipeBasics(t *testing.T) {
	d := voxelPipe(t)
	if d.NumSites() == 0 {
		t.Fatal("no fluid sites")
	}
	// Fluid fraction of a pipe in its padded bounding box should be
	// sparse but nonzero.
	ff := d.FluidFraction()
	if ff <= 0 || ff > 0.6 {
		t.Errorf("fluid fraction = %v", ff)
	}
	// Every site should be retrievable through the index.
	for i, s := range d.Sites {
		if got := d.SiteAt(s.Pos); got != i {
			t.Fatalf("index mismatch at site %d: got %d", i, got)
		}
	}
}

func TestVoxeliseLinkConsistency(t *testing.T) {
	d := voxelPipe(t)
	m := d.Model
	dists := d.LinkDists()
	for si, s := range d.Sites {
		for q := 1; q < m.Q; q++ {
			link := s.Links[q-1]
			dist := dists[si*(m.Q-1)+q-1]
			c := m.C[q]
			np := s.Pos.Add(vec.I3{X: c[0], Y: c[1], Z: c[2]})
			nid := d.SiteAt(np)
			if link.Type == LinkFluid {
				if nid < 0 {
					t.Fatalf("site %d dir %d: fluid link to solid", si, q)
				}
				// The reverse link must also be fluid.
				rev := d.Sites[nid].Links[m.Opp[q]-1]
				if rev.Type != LinkFluid {
					t.Fatalf("site %d dir %d: reverse link not fluid", si, q)
				}
			} else {
				if nid >= 0 {
					t.Fatalf("site %d dir %d: non-fluid link to fluid site", si, q)
				}
				if dist <= 0 || dist > 1 {
					t.Fatalf("site %d dir %d: crossing dist %v out of (0,1]", si, q, dist)
				}
			}
		}
	}
}

func TestVoxelisePipeHasInletAndOutlet(t *testing.T) {
	d := voxelPipe(t)
	var nIn, nOut, nWall int
	for _, s := range d.Sites {
		if s.Flags&FlagInlet != 0 {
			nIn++
		}
		if s.Flags&FlagOutlet != 0 {
			nOut++
		}
		if s.Flags&FlagWall != 0 {
			nWall++
		}
	}
	if nIn == 0 || nOut == 0 || nWall == 0 {
		t.Errorf("site classes: inlet=%d outlet=%d wall=%d; all must be nonzero", nIn, nOut, nWall)
	}
	// A pipe has roughly equal inlet and outlet cross-sections.
	ratio := float64(nIn) / float64(nOut)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("inlet/outlet site ratio = %v", ratio)
	}
}

func TestVoxeliseWallNormalsPointOutward(t *testing.T) {
	d := voxelPipe(t)
	for _, s := range d.Sites {
		if s.Flags&FlagWall == 0 {
			continue
		}
		n := s.WallNormal
		if math.Abs(n.Len()-1) > 1e-9 {
			t.Fatalf("wall normal not unit: %v", n)
		}
		// For a pipe along z, wall normals should be mostly radial.
		w := d.World(s.Pos)
		radial := vec.New(w.X, w.Y, 0).Norm()
		if radial.Len2() > 0 && n.Dot(radial) < 0 {
			t.Fatalf("wall normal %v points inward at %v", n, w)
		}
	}
}

func TestVoxeliseBlockCountsMatchSites(t *testing.T) {
	d := voxelPipe(t)
	var sum int32
	for _, c := range d.BlockFluidCount {
		if c < 0 {
			t.Fatalf("negative block count")
		}
		sum += c
	}
	if int(sum) != d.NumSites() {
		t.Errorf("block counts sum to %d, want %d", sum, d.NumSites())
	}
	// Recount directly.
	recount := make([]int32, d.NumBlocks())
	for _, s := range d.Sites {
		recount[d.BlockID(BlockOf(s.Pos))]++
	}
	for b := range recount {
		if recount[b] != d.BlockFluidCount[b] {
			t.Errorf("block %d count %d, want %d", b, d.BlockFluidCount[b], recount[b])
		}
	}
}

func TestVoxeliseBifurcation(t *testing.T) {
	d, err := Voxelise(Bifurcation(10, 8, 2.5, 0.6), 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatalf("Voxelise: %v", err)
	}
	var nIn, nOut int
	outIDs := map[int]bool{}
	for _, s := range d.Sites {
		if s.Flags&FlagInlet != 0 {
			nIn++
		}
		if s.Flags&FlagOutlet != 0 {
			nOut++
			for _, l := range s.Links {
				if l.Type == LinkOutlet {
					outIDs[l.Iolet] = true
				}
			}
		}
	}
	if nIn == 0 {
		t.Error("no inlet sites")
	}
	if len(outIDs) != 2 {
		t.Errorf("expected 2 distinct outlets, got %v", outIDs)
	}
}

func TestVoxeliseAneurysmIsLargerThanPipe(t *testing.T) {
	pipe, err := Voxelise(Pipe(16, 3), 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	an, err := Voxelise(Aneurysm(16, 3, 5), 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	if an.NumSites() <= pipe.NumSites() {
		t.Errorf("aneurysm (%d sites) should exceed plain pipe (%d sites)",
			an.NumSites(), pipe.NumSites())
	}
}

func TestVoxeliseErrors(t *testing.T) {
	if _, err := Voxelise(Pipe(16, 3), 0, lattice.D3Q19()); err == nil {
		t.Error("zero spacing must error")
	}
	if _, err := Voxelise(Pipe(16, 3), -1, lattice.D3Q19()); err == nil {
		t.Error("negative spacing must error")
	}
}

func TestNeighbourSymmetry(t *testing.T) {
	d := voxelPipe(t)
	m := d.Model
	for si := range d.Sites {
		for q := 1; q < m.Q; q++ {
			n := d.Neighbour(si, q)
			if n < 0 {
				continue
			}
			back := d.Neighbour(n, m.Opp[q])
			if back != si {
				t.Fatalf("neighbour symmetry broken: %d --%d--> %d --opp--> %d", si, q, n, back)
			}
		}
	}
}

func TestWallCrossingBisection(t *testing.T) {
	s := Sphere{Center: vec.New(0, 0, 0), Radius: 1}
	for name, crossing := range map[string]func(a, b vec.V3) float64{
		"sign":   func(a, b vec.V3) float64 { return wallCrossing(newSignField(s), a, b) },
		"oracle": func(a, b vec.V3) float64 { return wallCrossingOracle(s, a, b) },
	} {
		// Segment from centre to (2,0,0): wall at t=0.5.
		tc := crossing(vec.New(0, 0, 0), vec.New(2, 0, 0))
		if math.Abs(tc-0.5) > 1e-4 {
			t.Errorf("%s: crossing = %v, want 0.5", name, tc)
		}
		// Segment entirely inside returns 1.
		if tc := crossing(vec.New(0, 0, 0), vec.New(0.5, 0, 0)); tc != 1.0 {
			t.Errorf("%s: inside crossing = %v, want 1", name, tc)
		}
	}
}

func TestSDFGradient(t *testing.T) {
	s := Sphere{Center: vec.New(0, 0, 0), Radius: 1}
	g := sdfGradient(s, vec.New(0.9, 0, 0), 1e-4)
	if math.Abs(g.X-1) > 1e-6 || math.Abs(g.Y) > 1e-6 || math.Abs(g.Z) > 1e-6 {
		t.Errorf("gradient = %v, want (1,0,0)", g)
	}
}

func TestCerebralTreeVoxelises(t *testing.T) {
	d, err := Voxelise(CerebralTree(1.0), 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatalf("Voxelise: %v", err)
	}
	if d.NumSites() < 1000 {
		t.Errorf("cerebral tree too small: %d sites", d.NumSites())
	}
	ff := d.FluidFraction()
	if ff > 0.25 {
		t.Errorf("cerebral tree should be sparse, fluid fraction = %v", ff)
	}
}

func TestWorldLatticeRoundTrip(t *testing.T) {
	d := voxelPipe(t)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		p := vec.I3{X: rng.Intn(d.Dims.X), Y: rng.Intn(d.Dims.Y), Z: rng.Intn(d.Dims.Z)}
		l := d.Lattice(d.World(p))
		if math.Abs(l.X-float64(p.X)) > 1e-9 ||
			math.Abs(l.Y-float64(p.Y)) > 1e-9 ||
			math.Abs(l.Z-float64(p.Z)) > 1e-9 {
			t.Fatalf("round trip failed: %v -> %v", p, l)
		}
	}
}

func TestBendVoxelises(t *testing.T) {
	d, err := Voxelise(Bend(10, 2), 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatalf("Voxelise: %v", err)
	}
	var nIn, nOut int
	for _, s := range d.Sites {
		if s.Flags&FlagInlet != 0 {
			nIn++
		}
		if s.Flags&FlagOutlet != 0 {
			nOut++
		}
	}
	if nIn == 0 || nOut == 0 {
		t.Errorf("bend iolets: inlet=%d outlet=%d", nIn, nOut)
	}
}
