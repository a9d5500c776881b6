package viz

import (
	"math"
	"testing"

	"repro/internal/field"
	"repro/internal/geometry"
	"repro/internal/lattice"
	"repro/internal/lb"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/render"
	"repro/internal/vec"
)

// developedField runs a short simulation on an aneurysm and returns the
// resulting field snapshot.
func developedField(t testing.TB, steps int) *field.Field {
	t.Helper()
	return flowField(t, geometry.Aneurysm(16, 3, 4), steps)
}

// flowField voxelises a vessel at unit spacing and steps a flow on it.
func flowField(t testing.TB, v *geometry.Vessel, steps int) *field.Field {
	t.Helper()
	dom, err := geometry.Voxelise(v, 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	s, err := lb.New(dom, lb.Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(steps)
	rho, ux, uy, uz, wss := s.Fields(nil, nil, nil, nil, nil)
	return &field.Field{Dom: dom, Rho: rho, Ux: ux, Uy: uy, Uz: uz, WSS: wss}
}

func testCamera(f *field.Field, w, h int) *vec.Camera {
	dims := f.Dom.Dims
	center := vec.New(float64(dims.X)/2, float64(dims.Y)/2, float64(dims.Z)/2)
	return vec.Orbit(center, float64(dims.Z)*1.6, 0.5, 0.3, 40, float64(w)/float64(h))
}

func TestRenderVolumeProducesPixels(t *testing.T) {
	f := developedField(t, 200)
	cam := testCamera(f, 64, 48)
	img, err := RenderVolume(f, VolumeOptions{
		W: 64, H: 48, Camera: cam,
		TF:     render.BlueRed(0, f.MaxScalar(field.ScalarSpeed)),
		Scalar: field.ScalarSpeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if cov := img.CoveredFraction(); cov < 0.02 || cov > 0.95 {
		t.Errorf("covered fraction %v outside plausible range", cov)
	}
}

func TestRenderVolumeValidates(t *testing.T) {
	f := developedField(t, 10)
	if _, err := RenderVolume(f, VolumeOptions{}); err == nil {
		t.Error("missing options accepted")
	}
	if _, err := RenderVolume(f, VolumeOptions{W: 10, H: 10}); err == nil {
		t.Error("missing camera accepted")
	}
}

// TestRenderVolumeDistMatchesSerial: the sort-last merge of per-rank
// partial renders must reproduce the serial image. This is the
// correctness core of the Table I volume-rendering row.
func TestRenderVolumeDistMatchesSerial(t *testing.T) {
	f := developedField(t, 150)
	const w, h = 48, 36
	cam := testCamera(f, w, h)
	tf := render.BlueRed(0, f.MaxScalar(field.ScalarSpeed))
	opt := VolumeOptions{W: w, H: h, Camera: cam, TF: tf, Scalar: field.ScalarSpeed}

	serial, err := RenderVolume(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4} {
		g := partition.FromDomain(f.Dom)
		p, err := partition.MultilevelKWay(g, k, partition.MLOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rt := par.NewRuntime(k)
		var merged *render.Image
		rt.Run(func(c *par.Comm) {
			local := &field.Field{
				Dom: f.Dom, Rho: f.Rho, Ux: f.Ux, Uy: f.Uy, Uz: f.Uz, WSS: f.WSS,
				Owned: field.OwnedMask(p.Parts, c.Rank()),
			}
			img, err := RenderVolumeDist(c, local, opt)
			if err != nil {
				panic(err)
			}
			if c.Rank() == 0 {
				merged = img
			}
		})
		if merged == nil {
			t.Fatal("no merged image at root")
		}
		// The partition splits samples between ranks; interpolation at
		// subdomain boundaries differs slightly (unowned corners read
		// as zero), so compare coverage and bulk colour, not exact
		// pixels.
		covS, covD := serial.CoveredFraction(), merged.CoveredFraction()
		if math.Abs(covS-covD) > 0.15*covS+0.02 {
			t.Errorf("k=%d: coverage %v vs serial %v", k, covD, covS)
		}
		var diff, norm float64
		for i := range serial.Pix {
			diff += math.Abs(serial.Pix[i].A - merged.Pix[i].A)
			norm += serial.Pix[i].A
		}
		if norm > 0 && diff/norm > 0.35 {
			t.Errorf("k=%d: alpha field differs by %v", k, diff/norm)
		}
	}
}

func TestVolumeCommunicationIsImageBound(t *testing.T) {
	f := developedField(t, 50)
	const w, h, k = 32, 24, 4
	cam := testCamera(f, w, h)
	opt := VolumeOptions{W: w, H: h, Camera: cam,
		TF: render.BlueRed(0, 0.1), Scalar: field.ScalarSpeed}
	g := partition.FromDomain(f.Dom)
	p, err := partition.MultilevelKWay(g, k, partition.MLOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rt := par.NewRuntime(k)
	rt.Run(func(c *par.Comm) {
		local := &field.Field{Dom: f.Dom, Rho: f.Rho, Ux: f.Ux, Uy: f.Uy, Uz: f.Uz,
			Owned: field.OwnedMask(p.Parts, c.Rank())}
		if _, err := RenderVolumeDist(c, local, opt); err != nil {
			panic(err)
		}
	})
	// Pairwise merge sends k-1 images of w*h*5 float64s.
	wantMax := int64((k - 1) * w * h * 5 * 8)
	if got := rt.Traffic().Bytes(); got > wantMax {
		t.Errorf("volume comm %d bytes exceeds image bound %d", got, wantMax)
	}
}

func TestTraceStreamlinesFollowFlow(t *testing.T) {
	f := developedField(t, 400)
	seeds := SeedsAcrossInlet(f.Dom, 8)
	if len(seeds) != 8 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	lines, err := TraceStreamlines(f, LineOptions{Seeds: seeds, MaxSteps: 800, Dt: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 8 {
		t.Fatalf("got %d lines", len(lines))
	}
	advanced := 0
	for _, ln := range lines {
		if len(ln.Points) < 2 {
			continue
		}
		advanced++
		// Flow is towards +z: the line must end at higher z than it
		// started.
		dz := ln.Points[len(ln.Points)-1].Z - ln.Points[0].Z
		if dz <= 0 {
			t.Errorf("streamline moved backwards: dz=%v over %d points", dz, len(ln.Points))
		}
	}
	if advanced < 4 {
		t.Errorf("only %d/8 streamlines advanced", advanced)
	}
}

func TestTraceStreamlinesNoSeeds(t *testing.T) {
	f := developedField(t, 10)
	if _, err := TraceStreamlines(f, LineOptions{}); err == nil {
		t.Error("no seeds accepted")
	}
}

func TestTraceStreamlinesDistMatchesSerialShape(t *testing.T) {
	f := developedField(t, 300)
	seeds := SeedsAcrossInlet(f.Dom, 6)
	opt := LineOptions{Seeds: seeds, MaxSteps: 400, Dt: 0.5}
	serial, err := TraceStreamlines(f, opt)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	g := partition.FromDomain(f.Dom)
	p, err := partition.MultilevelKWay(g, k, partition.MLOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt := par.NewRuntime(k)
	var dist []Polyline
	rt.Run(func(c *par.Comm) {
		local := &field.Field{Dom: f.Dom, Rho: f.Rho, Ux: f.Ux, Uy: f.Uy, Uz: f.Uz,
			Owned: field.OwnedMask(p.Parts, c.Rank())}
		lines, err := TraceStreamlinesDist(c, local, p.Parts, opt)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			dist = lines
		}
	})
	if len(dist) == 0 {
		t.Fatal("no distributed lines")
	}
	// Distributed trajectories truncate slightly at boundaries but the
	// total integrated length must be within a factor of the serial
	// total.
	total := func(ls []Polyline) float64 {
		sum := 0.0
		for _, l := range ls {
			for i := 1; i < len(l.Points); i++ {
				sum += l.Points[i].Dist(l.Points[i-1])
			}
		}
		return sum
	}
	ts, td := total(serial), total(dist)
	if td < 0.4*ts {
		t.Errorf("distributed length %v too short vs serial %v", td, ts)
	}
}

func TestStreamlineCommunicationScalesWithCrossings(t *testing.T) {
	f := developedField(t, 200)
	seeds := SeedsAcrossInlet(f.Dom, 8)
	opt := LineOptions{Seeds: seeds, MaxSteps: 300, Dt: 0.5}
	const k = 4
	g := partition.FromDomain(f.Dom)
	p, err := partition.MultilevelKWay(g, k, partition.MLOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	rt := par.NewRuntime(k)
	rt.Run(func(c *par.Comm) {
		local := &field.Field{Dom: f.Dom, Rho: f.Rho, Ux: f.Ux, Uy: f.Uy, Uz: f.Uz,
			Owned: field.OwnedMask(p.Parts, c.Rank())}
		if _, err := TraceStreamlinesDist(c, local, p.Parts, opt); err != nil {
			panic(err)
		}
	})
	if rt.Traffic().Bytes() == 0 {
		t.Error("expected particle-migration traffic across 4 ranks")
	}
}

func TestRenderLines(t *testing.T) {
	f := developedField(t, 200)
	seeds := SeedsAcrossInlet(f.Dom, 6)
	lines, err := TraceStreamlines(f, LineOptions{Seeds: seeds, MaxSteps: 400, Dt: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	cam := testCamera(f, 64, 48)
	img, err := RenderLines(lines, cam, 64, 48, render.BlueRed(0, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	if img.CoveredFraction() == 0 {
		t.Error("no line pixels drawn")
	}
	if _, err := RenderLines(lines, cam, 0, 0, render.BlueRed(0, 1)); err == nil {
		t.Error("bad size accepted")
	}
}

func TestTracerPathlinesAndStreaklines(t *testing.T) {
	f := developedField(t, 300)
	emitters := SeedsAcrossInlet(f.Dom, 4)
	tr := NewTracer(emitters, 5)
	for i := 0; i < 40; i++ {
		if err := tr.Step(f); err != nil {
			t.Fatal(err)
		}
	}
	if tr.NumParticles() == 0 {
		t.Fatal("all particles died")
	}
	paths := tr.Pathlines()
	if len(paths) == 0 {
		t.Fatal("no pathlines")
	}
	for _, p := range paths {
		if len(p.Points) != len(p.Speed) {
			t.Fatal("speed array length mismatch")
		}
	}
	streaks := tr.Streaklines()
	if len(streaks) == 0 {
		t.Fatal("no streaklines")
	}
	for _, s := range streaks {
		if len(s.Points) < 2 {
			t.Fatal("degenerate streakline")
		}
	}
}

func TestTracerParticleCap(t *testing.T) {
	f := developedField(t, 50)
	emitters := SeedsAcrossInlet(f.Dom, 8)
	tr := NewTracer(emitters, 1)
	tr.MaxParticles = 20
	for i := 0; i < 10; i++ {
		if err := tr.Step(f); err != nil {
			t.Fatal(err)
		}
	}
	if len(tr.particles) > 20 {
		t.Errorf("particle cap exceeded: %d", len(tr.particles))
	}
}

func TestDistTracerMigration(t *testing.T) {
	f := developedField(t, 800)
	seeds := SeedsAcrossInlet(f.Dom, 10)
	const k = 3
	g := partition.FromDomain(f.Dom)
	p, err := partition.MultilevelKWay(g, k, partition.MLOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rt := par.NewRuntime(k)
	totalSent := make([]int, k)
	counts := make([]int, k)
	rt.Run(func(c *par.Comm) {
		local := &field.Field{Dom: f.Dom, Rho: f.Rho, Ux: f.Ux, Uy: f.Uy, Uz: f.Uz,
			Owned: field.OwnedMask(p.Parts, c.Rank())}
		dt, err := NewDistTracer(c, local, p.Parts, seeds, 4.0)
		if err != nil {
			panic(err)
		}
		for s := 0; s < 400; s++ {
			totalSent[c.Rank()] += dt.Step()
		}
		counts[c.Rank()] = len(dt.local)
		if g := c.AllreduceScalar(par.OpSum, float64(len(dt.local))); g < 0 {
			panic("negative count")
		}
	})
	sent := 0
	for _, s := range totalSent {
		sent += s
	}
	if sent == 0 {
		t.Error("no migrations across 3 ranks in 400 steps — decomposition untested")
	}
}

func TestDistTracerValidates(t *testing.T) {
	f := developedField(t, 10)
	rt := par.NewRuntime(1)
	rt.Run(func(c *par.Comm) {
		parts := make([]int32, f.Dom.NumSites())
		if _, err := NewDistTracer(c, f, parts, nil, 0); err == nil {
			panic("zero dt accepted")
		}
	})
}

func TestLICShowsFlowStructure(t *testing.T) {
	f := developedField(t, 300)
	plane := AxialSlice(f.Dom.Dims)
	img, err := LIC(f, plane, LICOptions{W: 64, H: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cov := img.CoveredFraction()
	if cov < 0.05 {
		t.Errorf("LIC covered only %v of the slice", cov)
	}
	// Convolution must smooth along flow: variance of LIC values must
	// be below the variance of the raw noise (0.0833 for U[0,1]).
	var sum, sum2, n float64
	for _, p := range img.Pix {
		if p.A == 0 {
			continue
		}
		sum += p.R
		sum2 += p.R * p.R
		n++
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if variance >= 0.0833 {
		t.Errorf("LIC variance %v not reduced below white noise", variance)
	}
}

func TestLICValidates(t *testing.T) {
	f := developedField(t, 10)
	if _, err := LIC(f, AxialSlice(f.Dom.Dims), LICOptions{}); err == nil {
		t.Error("zero-size LIC accepted")
	}
}

func TestLICDistCoversSameRegion(t *testing.T) {
	f := developedField(t, 200)
	plane := AxialSlice(f.Dom.Dims)
	opt := LICOptions{W: 48, H: 48, Seed: 1}
	serial, err := LIC(f, plane, opt)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	g := partition.FromDomain(f.Dom)
	p, err := partition.MultilevelKWay(g, k, partition.MLOptions{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rt := par.NewRuntime(k)
	var dist *render.Image
	rt.Run(func(c *par.Comm) {
		local := &field.Field{Dom: f.Dom, Rho: f.Rho, Ux: f.Ux, Uy: f.Uy, Uz: f.Uz,
			Owned: field.OwnedMask(p.Parts, c.Rank())}
		img, err := LICDist(c, local, p.Parts, plane, opt)
		if err != nil {
			panic(err)
		}
		if c.Rank() == 0 {
			dist = img
		}
	})
	covS, covD := serial.CoveredFraction(), dist.CoveredFraction()
	if math.Abs(covS-covD) > 0.1*covS+0.01 {
		t.Errorf("distributed LIC coverage %v vs serial %v", covD, covS)
	}
}

func TestSeedsAcrossInletInsideFluid(t *testing.T) {
	f := developedField(t, 0)
	seeds := SeedsAcrossInlet(f.Dom, 16)
	inside := 0
	for _, s := range seeds {
		if f.Dom.SiteAt(vec.Floor(s.Add(vec.Splat(0.5)))) >= 0 {
			inside++
		}
	}
	if inside < 12 {
		t.Errorf("only %d/16 seeds inside the fluid", inside)
	}
}

func TestProjectBehindCamera(t *testing.T) {
	cam := vec.NewCamera(vec.New(0, 0, 0), vec.New(0, 0, 1), vec.New(0, 1, 0), 45, 1)
	if _, _, ok := project(cam, vec.New(0, 0, -5), 10, 10); ok {
		t.Error("point behind camera projected")
	}
	if _, _, ok := project(cam, vec.New(0, 0, 5), 10, 10); !ok {
		t.Error("point in front not projected")
	}
}

func BenchmarkLIC64(b *testing.B) {
	f := developedField(b, 100)
	plane := AxialSlice(f.Dom.Dims)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LIC(f, plane, LICOptions{W: 64, H: 64}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamlines(b *testing.B) {
	f := developedField(b, 100)
	seeds := SeedsAcrossInlet(f.Dom, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TraceStreamlines(f, LineOptions{Seeds: seeds, MaxSteps: 200}); err != nil {
			b.Fatal(err)
		}
	}
}
