package lb

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/geometry"
	"repro/internal/lattice"
	"repro/internal/vec"
)

// closedBox returns a small iolet-free cavity (sphere) for conservation
// tests.
func closedBox(t testing.TB) *geometry.Domain {
	t.Helper()
	v := &geometry.Vessel{
		Name:  "cavity",
		Shape: geometry.Sphere{Center: vec.New(0, 0, 0), Radius: 5},
	}
	d, err := geometry.Voxelise(v, 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func pipeDomain(t testing.TB, length, radius, h float64) *geometry.Domain {
	t.Helper()
	d, err := geometry.Voxelise(geometry.Pipe(length, radius), h, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewValidatesTau(t *testing.T) {
	d := closedBox(t)
	if _, err := New(d, Params{Tau: 0.5}); err == nil {
		t.Error("tau = 0.5 must be rejected")
	}
	if _, err := New(d, Params{Tau: 0.4}); err == nil {
		t.Error("tau < 0.5 must be rejected")
	}
	if _, err := New(d, Params{Tau: 0.8}); err != nil {
		t.Errorf("tau = 0.8 rejected: %v", err)
	}
}

func TestInitialEquilibriumMoments(t *testing.T) {
	d := closedBox(t)
	s, err := New(d, Params{Tau: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < s.NumSites(); i++ {
		if rho := s.Density(i); math.Abs(rho-1) > 1e-12 {
			t.Fatalf("site %d: rho = %v", i, rho)
		}
		ux, uy, uz := s.Velocity(i)
		if ux != 0 || uy != 0 || uz != 0 {
			t.Fatalf("site %d: u = (%v,%v,%v)", i, ux, uy, uz)
		}
	}
}

// TestMassConservationClosedDomain: collide + bounce-back conserves
// mass exactly (to fp round-off) with no iolets.
func TestMassConservationClosedDomain(t *testing.T) {
	d := closedBox(t)
	s, err := New(d, Params{Tau: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	m0 := s.TotalMass()
	s.Advance(50)
	m1 := s.TotalMass()
	if rel := math.Abs(m1-m0) / m0; rel > 1e-12 {
		t.Errorf("mass drifted by %v (%.15g -> %.15g)", rel, m0, m1)
	}
}

// TestCollisionInvariantsProperty: a single BGK collision conserves
// density and momentum at every site for random population states.
func TestCollisionInvariantsProperty(t *testing.T) {
	m := lattice.D3Q19()
	f := func(seedVals [19]float64) bool {
		// Build a positive population vector.
		var fs [19]float64
		rho := 0.0
		for q := 0; q < 19; q++ {
			fs[q] = m.W[q] * (1 + 0.1*math.Tanh(seedVals[q]))
			rho += fs[q]
		}
		var mom [3]float64
		for q := 0; q < 19; q++ {
			for a := 0; a < 3; a++ {
				mom[a] += fs[q] * float64(m.C[q][a])
			}
		}
		ux := mom[0] / rho
		uy := mom[1] / rho
		uz := mom[2] / rho
		u2 := ux*ux + uy*uy + uz*uz
		tau := 0.9
		rho2, mom2 := 0.0, [3]float64{}
		for q := 0; q < 19; q++ {
			cu := ux*float64(m.C[q][0]) + uy*float64(m.C[q][1]) + uz*float64(m.C[q][2])
			post := fs[q] - (fs[q]-feq(m.W[q], rho, cu, u2))/tau
			rho2 += post
			for a := 0; a < 3; a++ {
				mom2[a] += post * float64(m.C[q][a])
			}
		}
		if math.Abs(rho2-rho) > 1e-12*rho {
			return false
		}
		for a := 0; a < 3; a++ {
			if math.Abs(mom2[a]-mom[a]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPoiseuilleProfile: a pressure-driven pipe must converge to an
// approximately parabolic axial velocity profile with the analytic
// peak u_max = G R² / (4 ν), G = Δp/L = cs² Δρ / L.
func TestPoiseuilleProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("long relaxation run")
	}
	radius := 5.0
	length := 30.0
	dom := pipeDomain(t, length, radius, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(3000)

	// Expected: G = cs^2 * (rhoIn - rhoOut) / L over the fluid length.
	rhoIn := s.IoletDensity(0)
	rhoOut := s.IoletDensity(1)
	// Iolet planes sit at z=0 and z=length in world coordinates.
	G := dom.Model.Cs2 * (rhoIn - rhoOut) / length
	nu := s.Viscosity()
	uMaxWant := G * radius * radius / (4 * nu)

	// Measure on the mid-plane: find sites near z = length/2.
	zMid := length / 2
	uPeak := 0.0
	var profile []struct{ r, uz float64 }
	for i, site := range dom.Sites {
		w := dom.World(site.Pos)
		if math.Abs(w.Z-zMid) > 0.5 {
			continue
		}
		_, _, uz := s.Velocity(i)
		r := math.Hypot(w.X, w.Y)
		profile = append(profile, struct{ r, uz float64 }{r, uz})
		if uz > uPeak {
			uPeak = uz
		}
	}
	if len(profile) == 0 {
		t.Fatal("no mid-plane sites found")
	}
	if uPeak <= 0 {
		t.Fatalf("no forward flow developed (peak %v)", uPeak)
	}
	if rel := math.Abs(uPeak-uMaxWant) / uMaxWant; rel > 0.25 {
		t.Errorf("peak velocity %v, analytic %v (rel err %.2f)", uPeak, uMaxWant, rel)
	}
	// Parabolic shape: fit u(r)/u(0) ≈ 1 - (r/R)²; check correlation.
	var sumErr, count float64
	for _, p := range profile {
		want := uMaxWant * (1 - (p.r*p.r)/(radius*radius))
		if want < 0 {
			want = 0
		}
		sumErr += math.Abs(p.uz - want)
		count++
	}
	meanAbsErr := sumErr / count
	if meanAbsErr > 0.3*uMaxWant {
		t.Errorf("profile deviates from parabola: mean abs err %v vs peak %v", meanAbsErr, uMaxWant)
	}
}

func TestFlowDirectionFollowsPressure(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(300)
	// Mean axial velocity must be positive (inlet pressure > outlet).
	mean := 0.0
	for i := range dom.Sites {
		_, _, uz := s.Velocity(i)
		mean += uz
	}
	mean /= float64(dom.NumSites())
	if mean <= 0 {
		t.Errorf("mean axial velocity %v, want > 0", mean)
	}
	// Reversing the pressure difference must reverse the flow.
	if err := s.SetIoletDensity(0, 0.99); err != nil {
		t.Fatal(err)
	}
	if err := s.SetIoletDensity(1, 1.01); err != nil {
		t.Fatal(err)
	}
	s.Advance(600)
	mean = 0
	for i := range dom.Sites {
		_, _, uz := s.Velocity(i)
		mean += uz
	}
	mean /= float64(dom.NumSites())
	if mean >= 0 {
		t.Errorf("mean axial velocity %v after reversal, want < 0", mean)
	}
}

func TestSetIoletDensityValidates(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetIoletDensity(-1, 1); err == nil {
		t.Error("negative iolet index must error")
	}
	if err := s.SetIoletDensity(5, 1); err == nil {
		t.Error("out-of-range iolet index must error")
	}
}

func TestStabilityDiagnostics(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(200)
	if v := s.MaxSpeed(); v > 0.3 {
		t.Errorf("max speed %v too close to sound speed", v)
	}
	if s.StepCount() != 200 {
		t.Errorf("step count = %d", s.StepCount())
	}
}

func TestWallShearStressLocalisedAtWalls(t *testing.T) {
	dom := pipeDomain(t, 16, 4, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(500)
	var wallWSS, bulkWSS float64
	var nWall, nBulk int
	for i, site := range dom.Sites {
		w := s.WallShearStress(i)
		if site.Flags&geometry.FlagWall != 0 {
			wallWSS += w
			nWall++
		} else {
			bulkWSS += w
			nBulk++
		}
	}
	if nWall == 0 {
		t.Fatal("no wall sites")
	}
	if wallWSS <= 0 {
		t.Error("wall shear stress should be positive in developed flow")
	}
	if bulkWSS != 0 {
		t.Error("non-wall sites must report zero WSS")
	}
}

func TestFieldsExtraction(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(50)
	rho, ux, uy, uz, wss := s.Fields(nil, nil, nil, nil, nil)
	n := s.NumSites()
	for _, v := range [][]float64{rho, ux, uy, uz, wss} {
		if len(v) != n {
			t.Fatalf("field length %d, want %d", len(v), n)
		}
	}
	// Spot-check against the per-site accessors.
	for i := 0; i < n; i += 7 {
		if rho[i] != s.Density(i) {
			t.Fatalf("rho[%d] mismatch", i)
		}
		x, y, z := s.Velocity(i)
		if ux[i] != x || uy[i] != y || uz[i] != z {
			t.Fatalf("velocity[%d] mismatch", i)
		}
	}
	// Reuse buffers: must not reallocate.
	r2, _, _, _, _ := s.Fields(rho, ux, uy, uz, wss)
	if &r2[0] != &rho[0] {
		t.Error("Fields reallocated a provided buffer")
	}
}

// TestInitEquilibriumMatchesSerial: on 1 to 4 participants the fill
// writes every population, and f is byte for byte the serial fill's —
// site 0's Q values doubled across the whole slice. The domain ends in
// a partial parcel.
func TestInitEquilibriumMatchesSerial(t *testing.T) {
	dom := presetDomain(t, "aneurysm", 1.5)
	const rho = 1.0375
	Q := dom.Model.Q
	want := make([]float64, dom.NumSites()*Q)
	for d := 0; d < Q; d++ {
		want[d] = rho * dom.Model.W[d]
	}
	for done := Q; done < len(want); done *= 2 {
		copy(want[done:], want[:done])
	}
	if dom.NumSites()%parcelSites == 0 || dom.NumSites() < 4*parcelSites {
		t.Fatalf("%d sites: want several parcels and a partial last one", dom.NumSites())
	}
	for p := 1; p <= 4; p++ {
		s, err := New(dom, Params{Tau: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		s.setWorkers(p)
		for i := range s.f {
			s.f[i] = math.NaN()
		}
		s.InitEquilibrium(rho)
		for i := range want {
			if math.Float64bits(s.f[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%d participants: f[site %d, q %d] = %v, serial fill %v", p, i/Q, i%Q, s.f[i], want[i])
			}
		}
	}
}

func TestInitEquilibriumResets(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(100)
	s.InitEquilibrium(1)
	if s.StepCount() != 0 {
		t.Error("step count not reset")
	}
	for i := 0; i < s.NumSites(); i++ {
		ux, uy, uz := s.Velocity(i)
		if ux != 0 || uy != 0 || uz != 0 {
			t.Fatal("velocity not reset")
		}
	}
}

func TestViscosity(t *testing.T) {
	dom := closedBox(t)
	s, err := New(dom, Params{Tau: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	want := (1.0 / 3.0) * 0.5
	if nu := s.Viscosity(); math.Abs(nu-want) > 1e-12 {
		t.Errorf("viscosity = %v, want %v", nu, want)
	}
}

func BenchmarkSolverStepPipe(b *testing.B) {
	dom := pipeDomain(b, 24, 5, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CollideStreamLocal()
		s.Swap()
	}
	b.ReportMetric(float64(s.NumSites())*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLUPS")
}
