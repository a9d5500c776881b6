package field

import (
	"math"
	"testing"

	"repro/internal/geometry"
	"repro/internal/lattice"
	"repro/internal/vec"
)

// uniformField builds a field with constant velocity (0.01, 0, 0.02)
// and density 1 over a pipe.
func uniformField(t testing.TB) *Field {
	t.Helper()
	dom, err := geometry.Voxelise(geometry.Pipe(16, 4), 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	n := dom.NumSites()
	f := &Field{
		Dom: dom,
		Rho: make([]float64, n),
		Ux:  make([]float64, n),
		Uy:  make([]float64, n),
		Uz:  make([]float64, n),
		WSS: make([]float64, n),
	}
	for i := 0; i < n; i++ {
		f.Rho[i] = 1
		f.Ux[i] = 0.01
		f.Uz[i] = 0.02
		f.WSS[i] = 0.005
	}
	return f
}

func TestValidate(t *testing.T) {
	f := uniformField(t)
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Field{Dom: f.Dom, Rho: []float64{1}, Ux: f.Ux, Uy: f.Uy, Uz: f.Uz}
	if err := bad.Validate(); err == nil {
		t.Error("short rho accepted")
	}
	badW := &Field{Dom: f.Dom, Rho: f.Rho, Ux: f.Ux, Uy: f.Uy, Uz: f.Uz, WSS: []float64{1}}
	if err := badW.Validate(); err == nil {
		t.Error("short wss accepted")
	}
	badO := &Field{Dom: f.Dom, Rho: f.Rho, Ux: f.Ux, Uy: f.Uy, Uz: f.Uz, Owned: []bool{true}}
	if err := badO.Validate(); err == nil {
		t.Error("short owned mask accepted")
	}
}

func TestScalarAccessors(t *testing.T) {
	f := uniformField(t)
	if got := f.ScalarAtSite(0, ScalarRho); got != 1 {
		t.Errorf("rho = %v", got)
	}
	want := math.Hypot(0.01, 0.02)
	if got := f.ScalarAtSite(0, ScalarSpeed); math.Abs(got-want) > 1e-15 {
		t.Errorf("speed = %v, want %v", got, want)
	}
	if got := f.ScalarAtSite(0, ScalarWSS); got != 0.005 {
		t.Errorf("wss = %v", got)
	}
	noWSS := &Field{Dom: f.Dom, Rho: f.Rho, Ux: f.Ux, Uy: f.Uy, Uz: f.Uz}
	if got := noWSS.ScalarAtSite(0, ScalarWSS); got != 0 {
		t.Errorf("nil wss = %v", got)
	}
}

func TestScalarString(t *testing.T) {
	for _, s := range []Scalar{ScalarSpeed, ScalarRho, ScalarWSS, Scalar(9)} {
		if s.String() == "" {
			t.Error("empty scalar name")
		}
	}
}

func TestVelocityInterpolationExactAtSites(t *testing.T) {
	f := uniformField(t)
	// At an interior site centre, the interpolated value is exact.
	var interior vec.I3
	found := false
	for _, s := range f.Dom.Sites {
		if s.Flags == 0 { // bulk site, all neighbours fluid
			interior = s.Pos
			found = true
			break
		}
	}
	if !found {
		t.Skip("no bulk site")
	}
	u, ok := f.Velocity(interior.F())
	if !ok {
		t.Fatal("no velocity at bulk site")
	}
	if u.Dist(vec.New(0.01, 0, 0.02)) > 1e-15 {
		t.Errorf("u = %v", u)
	}
}

func TestVelocityOutsideFluid(t *testing.T) {
	f := uniformField(t)
	if _, ok := f.Velocity(vec.New(-5, -5, -5)); ok {
		t.Error("velocity outside the lattice should fail")
	}
}

func TestVelocityNearWallDamps(t *testing.T) {
	f := uniformField(t)
	// Halfway between a wall site and solid, interpolation mixes zero
	// contributions: magnitude must not exceed the bulk value.
	for _, s := range f.Dom.Sites {
		if s.Flags&geometry.FlagWall == 0 {
			continue
		}
		p := s.Pos.F().Add(s.WallNormal.Mul(0.5))
		u, ok := f.Velocity(p)
		if ok && u.Len() > math.Hypot(0.01, 0.02)+1e-12 {
			t.Errorf("near-wall speed %v exceeds bulk", u.Len())
		}
		break
	}
}

// nearest returns the site id nearest to continuous lattice position p
// (rounded), or -1 if that lattice point is solid, unowned or outside:
// the site validity every sampler applies, probed at one point.
func nearest(f *Field, p vec.V3) int {
	id := f.Dom.SiteAt(vec.Floor(p.Add(vec.Splat(0.5))))
	if !f.siteValid(id) {
		return -1
	}
	return id
}

func TestNearest(t *testing.T) {
	f := uniformField(t)
	s := f.Dom.Sites[10]
	if got := nearest(f, s.Pos.F()); got != 10 {
		t.Errorf("nearest = %d, want 10", got)
	}
	// Slight offset still rounds to the same site.
	if got := nearest(f, s.Pos.F().Add(vec.New(0.3, -0.2, 0.1))); got != 10 {
		t.Errorf("offset nearest = %d", got)
	}
	if got := nearest(f, vec.New(-9, -9, -9)); got != -1 {
		t.Errorf("outside nearest = %d", got)
	}
}

func TestOwnedMaskRestricts(t *testing.T) {
	f := uniformField(t)
	n := f.Dom.NumSites()
	parts := make([]int32, n)
	for i := n / 2; i < n; i++ {
		parts[i] = 1
	}
	f.Owned = OwnedMask(parts, 0)
	// Sites in the second half must be invisible.
	if nearest(f, f.Dom.Sites[n-1].Pos.F()) != -1 {
		t.Error("unowned site visible through Nearest")
	}
	if nearest(f, f.Dom.Sites[0].Pos.F()) < 0 {
		t.Error("owned site invisible")
	}
	// MaxScalar only sees owned sites.
	full := uniformField(t)
	if f.MaxScalar(ScalarSpeed) != full.MaxScalar(ScalarSpeed) {
		// Values are uniform so equal; this asserts no panic and sane value.
		t.Error("owned MaxScalar mismatch on uniform field")
	}
}

func TestScalarAtInterpolates(t *testing.T) {
	f := uniformField(t)
	var interior vec.I3
	for _, s := range f.Dom.Sites {
		if s.Flags == 0 {
			interior = s.Pos
			break
		}
	}
	v, ok := f.ScalarAt(interior.F(), ScalarRho)
	if !ok || math.Abs(v-1) > 1e-12 {
		t.Errorf("rho at site = %v ok=%v", v, ok)
	}
	// Midpoint between two bulk sites of equal value is that value.
	v, ok = f.ScalarAt(interior.F().Add(vec.New(0.5, 0, 0)), ScalarRho)
	if ok && math.Abs(v-1) > 0.51 {
		t.Errorf("midpoint rho = %v", v)
	}
}

func TestMaxScalar(t *testing.T) {
	f := uniformField(t)
	f.WSS[7] = 0.5
	if got := f.MaxScalar(ScalarWSS); got != 0.5 {
		t.Errorf("max wss = %v", got)
	}
}

// TestScalarTableMatchesScalarAtSite: the table holds ScalarAtSite of
// every site and its maximum is MaxScalar's, for each scalar, with and
// without an Owned mask (one that hides the largest value) and with no
// WSS field; a kept buffer is reused.
func TestScalarTableMatchesScalarAtSite(t *testing.T) {
	f := uniformField(t)
	for i := range f.Rho {
		f.Rho[i] += 0.001 * float64(i%7)
		f.Ux[i] += 0.002 * float64(i%5)
		f.WSS[i] += 0.003 * float64(i%3)
	}
	f.Rho[3], f.Ux[3], f.WSS[3] = 9, 9, 9
	owned := make([]bool, f.Dom.NumSites())
	for i := range owned {
		owned[i] = i != 3
	}
	var buf []float64
	for _, mask := range [][]bool{nil, owned} {
		for _, wss := range [][]float64{f.WSS, nil} {
			g := *f
			g.Owned, g.WSS = mask, wss
			for _, s := range []Scalar{ScalarSpeed, ScalarRho, ScalarWSS} {
				vals, maxV := g.ScalarTable(s, &buf)
				if len(vals) != g.Dom.NumSites() {
					t.Fatalf("%v: table of %d sites, want %d", s, len(vals), g.Dom.NumSites())
				}
				for id, v := range vals {
					if want := g.ScalarAtSite(id, s); v != want {
						t.Fatalf("%v site %d: table %v, ScalarAtSite %v", s, id, v, want)
					}
				}
				if want := g.MaxScalar(s); maxV != want {
					t.Errorf("%v (masked %v, wss %v): table maximum %v, MaxScalar %v", s, mask != nil, wss != nil, maxV, want)
				}
			}
		}
	}
}
