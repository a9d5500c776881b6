package lb

import (
	"math"
	"testing"

	"repro/internal/par"
	"repro/internal/partition"
)

func TestCollisionString(t *testing.T) {
	if BGK.String() != "BGK" || TRT.String() != "TRT" {
		t.Error("collision names")
	}
	if Collision(9).String() == "" {
		t.Error("unknown collision name empty")
	}
}

func TestTauMinusMagic(t *testing.T) {
	// Λ = (τ+ - 1/2)(τ- - 1/2) must equal 3/16 for any τ+.
	for _, tau := range []float64{0.6, 0.9, 1.3, 2.0} {
		tm := tauMinus(tau)
		lambda := (tau - 0.5) * (tm - 0.5)
		if math.Abs(lambda-3.0/16.0) > 1e-14 {
			t.Errorf("tau=%v: magic parameter %v", tau, lambda)
		}
	}
}

// TestTRTConservesInvariants: TRT collision conserves mass and
// momentum just like BGK.
func TestTRTConservesInvariants(t *testing.T) {
	dom := closedBox(t)
	s, err := New(dom, Params{Tau: 0.8, Kind: TRT})
	if err != nil {
		t.Fatal(err)
	}
	m0 := s.TotalMass()
	s.Advance(50)
	m1 := s.TotalMass()
	if rel := math.Abs(m1-m0) / m0; rel > 1e-12 {
		t.Errorf("TRT mass drift %v", rel)
	}
}

// TestTRTMatchesBGKAtEquilibrium: starting from equilibrium with no
// forcing, both operators are fixed points.
func TestTRTMatchesBGKAtEquilibrium(t *testing.T) {
	dom := closedBox(t)
	bgk, err := New(dom, Params{Tau: 0.9, Kind: BGK})
	if err != nil {
		t.Fatal(err)
	}
	trt, err := New(dom, Params{Tau: 0.9, Kind: TRT})
	if err != nil {
		t.Fatal(err)
	}
	bgk.Advance(10)
	trt.Advance(10)
	for i := 0; i < bgk.NumSites(); i += 17 {
		if math.Abs(bgk.Density(i)-trt.Density(i)) > 1e-12 {
			t.Fatalf("site %d: BGK rho %v vs TRT %v", i, bgk.Density(i), trt.Density(i))
		}
	}
}

// TestTRTPoiseuille: TRT must reproduce the analytic profile at least
// as well as BGK (its raison d'être is viscosity-independent wall
// placement).
func TestTRTPoiseuille(t *testing.T) {
	if testing.Short() {
		t.Skip("long relaxation run")
	}
	radius, length := 5.0, 30.0
	dom := pipeDomain(t, length, radius, 1.0)
	peakErr := func(kind Collision, tau float64) float64 {
		s, err := New(dom, Params{Tau: tau, Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		s.Advance(3000)
		G := dom.Model.Cs2 * (s.IoletDensity(0) - s.IoletDensity(1)) / length
		uWant := G * radius * radius / (4 * s.Viscosity())
		uPeak := 0.0
		for i, site := range dom.Sites {
			w := dom.World(site.Pos)
			if math.Abs(w.Z-length/2) > 0.5 {
				continue
			}
			_, _, uz := s.Velocity(i)
			if uz > uPeak {
				uPeak = uz
			}
		}
		return math.Abs(uPeak-uWant) / uWant
	}
	// At a tau well away from 1, BGK's wall location drifts; TRT's
	// must stay accurate.
	trtErr := peakErr(TRT, 1.7)
	if trtErr > 0.25 {
		t.Errorf("TRT peak error %v at tau=1.7", trtErr)
	}
}

func TestDistTRTMatchesSerialTRT(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	serial, err := New(dom, Params{Tau: 0.9, Kind: TRT})
	if err != nil {
		t.Fatal(err)
	}
	serial.Advance(30)
	part := pipePartition(t, dom, 3, partition.MethodMultilevel)
	rt := par.NewRuntime(3)
	rt.Run(func(c *par.Comm) {
		d, err := NewDist(c, dom, part, Params{Tau: 0.9, Kind: TRT})
		if err != nil {
			panic(err)
		}
		d.Advance(30)
		for li, g := range d.Owned {
			if math.Float64bits(d.Density(li)) != math.Float64bits(serial.Density(g)) {
				panic("TRT dist/serial mismatch")
			}
		}
	})
}

func TestPulseValidation(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetPulse(-1, &Pulse{Amp: 0.01, Period: 100}); err == nil {
		t.Error("bad iolet index accepted")
	}
	if err := s.SetPulse(0, &Pulse{Amp: 0.01, Period: 0}); err == nil {
		t.Error("zero period accepted")
	}
	if err := s.SetPulse(0, &Pulse{Amp: 0.01, Period: 100}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPulse(0, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPulsatileFlowOscillates: a sinusoidal inlet pulse must produce a
// time-varying mean flow whose extremes bracket the steady value.
func TestPulsatileFlowOscillates(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(400) // settle the steady base flow
	steady := meanUz(s)
	const period = 200.0
	if err := s.SetPulse(0, &Pulse{Amp: 0.008, Period: period}); err != nil {
		t.Fatal(err)
	}
	var lo, hi float64 = math.Inf(1), math.Inf(-1)
	for i := 0; i < int(2*period); i++ {
		s.Advance(1)
		u := meanUz(s)
		if u < lo {
			lo = u
		}
		if u > hi {
			hi = u
		}
	}
	if !(lo < steady && hi > steady) {
		t.Errorf("pulsatile flow [%v, %v] does not bracket steady %v", lo, hi, steady)
	}
	if hi-lo < 0.2*steady {
		t.Errorf("oscillation amplitude %v too small vs steady %v", hi-lo, steady)
	}
}

func meanUz(s *Solver) float64 {
	sum := 0.0
	for i := 0; i < s.NumSites(); i++ {
		_, _, uz := s.Velocity(i)
		sum += uz
	}
	return sum / float64(s.NumSites())
}

func TestEffectiveIoletRho(t *testing.T) {
	base := 1.01
	p := &Pulse{Amp: 0.005, Period: 100}
	if got := effectiveIoletRho(base, nil, 50); got != base {
		t.Errorf("nil pulse changed density: %v", got)
	}
	if got := effectiveIoletRho(base, p, 0); math.Abs(got-base) > 1e-15 {
		t.Errorf("phase 0 should be base: %v", got)
	}
	if got := effectiveIoletRho(base, p, 25); math.Abs(got-(base+0.005)) > 1e-12 {
		t.Errorf("quarter period should be base+amp: %v", got)
	}
	if got := effectiveIoletRho(base, p, 75); math.Abs(got-(base-0.005)) > 1e-12 {
		t.Errorf("three-quarter period should be base-amp: %v", got)
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(123)
	if err := s.SetIoletDensity(0, 1.017); err != nil {
		t.Fatal(err)
	}
	data := solverRecord(s)
	// Continue the original for reference.
	ref, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := restoreSolver(ref, data); err != nil {
		t.Fatal(err)
	}
	if ref.StepCount() != 123 {
		t.Errorf("restored step = %d", ref.StepCount())
	}
	if ref.IoletDensity(0) != 1.017 {
		t.Errorf("restored iolet density = %v", ref.IoletDensity(0))
	}
	// Both must continue bit-exactly.
	s.Advance(50)
	ref.Advance(50)
	for i := 0; i < s.NumSites(); i++ {
		if s.Density(i) != ref.Density(i) {
			t.Fatalf("divergence after restore at site %d", i)
		}
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(20)
	data := solverRecord(s)

	// Flip one byte in the population payload: CRC must catch it.
	corrupt := append([]byte(nil), data...)
	corrupt[len(corrupt)/2] ^= 0xff
	if err := restoreSolver(s, corrupt); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
	// Truncation must fail.
	if err := restoreSolver(s, data[:len(data)/2]); err == nil {
		t.Error("truncated checkpoint accepted")
	}
	// Wrong magic must fail.
	bad := append([]byte(nil), data...)
	bad[0] ^= 0xff
	if err := restoreSolver(s, bad); err == nil {
		t.Error("bad magic accepted")
	}
	// Wrong domain must fail.
	other, err := New(closedBox(t), Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := restoreSolver(other, data); err == nil {
		t.Error("checkpoint restored into mismatched domain")
	}
	// Failed restore must not have clobbered state.
	if s.StepCount() != 20 {
		t.Errorf("failed restore mutated step to %d", s.StepCount())
	}
}

func TestRedistributePreservesPulse(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	part := pipePartition(t, dom, 2, partition.MethodRCB)
	g := partition.FromDomain(dom)
	part2, err := partition.ByMethod(partition.MethodMorton, g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	rt := par.NewRuntime(2)
	rt.Run(func(c *par.Comm) {
		d, err := NewDist(c, dom, part, Params{Tau: 0.9, Kind: TRT})
		if err != nil {
			panic(err)
		}
		if err := d.SetPulse(0, &Pulse{Amp: 0.005, Period: 100}); err != nil {
			panic(err)
		}
		d.Advance(10)
		nd, err := d.Redistribute(part2)
		if err != nil {
			panic(err)
		}
		if nd.Kind != TRT {
			panic("collision kind lost in redistribution")
		}
		if nd.pulses[0] == nil || nd.pulses[0].Amp != 0.005 {
			panic("pulse lost in redistribution")
		}
		nd.Advance(10)
	})
}

// TestRedistributeContinuesExactly: redistribution must not perturb
// the solution — compare against an undisturbed run.
func TestRedistributeContinuesExactly(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	serial, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	serial.Advance(40)

	g := partition.FromDomain(dom)
	pA := pipePartition(t, dom, 3, partition.MethodMultilevel)
	pB, err := partition.ByMethod(partition.MethodRCB, g, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rt := par.NewRuntime(3)
	rt.Run(func(c *par.Comm) {
		d, err := NewDist(c, dom, pA, Params{Tau: 0.9})
		if err != nil {
			panic(err)
		}
		d.Advance(20)
		nd, err := d.Redistribute(pB)
		if err != nil {
			panic(err)
		}
		nd.Advance(20)
		for li, gid := range nd.Owned {
			if math.Float64bits(nd.Density(li)) != math.Float64bits(serial.Density(gid)) {
				panic("redistribution perturbed the solution")
			}
		}
	})
}

func BenchmarkCollisionKinds(b *testing.B) {
	dom := pipeDomain(b, 24, 5, 1.0)
	for _, kind := range []Collision{BGK, TRT} {
		b.Run(kind.String(), func(b *testing.B) {
			s, err := New(dom, Params{Tau: 0.9, Kind: kind})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.CollideStreamLocal()
				s.Swap()
			}
			b.ReportMetric(float64(s.NumSites())*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLUPS")
		})
	}
}
