package lb

import (
	"math"
	"slices"
	"testing"

	"repro/internal/geometry"
	"repro/internal/par"
	"repro/internal/partition"
)

func pipePartition(t testing.TB, dom *geometry.Domain, k int, m partition.Method) *partition.Partition {
	t.Helper()
	g := partition.FromDomain(dom)
	p, err := partition.ByMethod(m, g, k, 11)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDistMatchesSerial is the keystone integration test: the
// distributed solver on K ranks must produce bitwise the same fields as
// the serial solver after the same number of steps. Both step through
// the one kernel loop, so what this pins is the partition and the halo
// plan: every population that crosses a rank lands in the slot the
// serial stream table would have written.
func TestDistMatchesSerial(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	serial, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 40
	serial.Advance(steps)

	for _, k := range []int{1, 2, 4, 7} {
		part := pipePartition(t, dom, k, partition.MethodMultilevel)
		rt := par.NewRuntime(k)
		type result struct {
			owned []int
			rho   []float64
			ux    []float64
		}
		results := make([]result, k)
		rt.Run(func(c *par.Comm) {
			d, err := NewDist(c, dom, part, Params{Tau: 0.9})
			if err != nil {
				panic(err)
			}
			d.Advance(steps)
			r := result{owned: d.Owned}
			for li := range d.Owned {
				r.rho = append(r.rho, d.Density(li))
				vx, _, _ := d.Velocity(li)
				r.ux = append(r.ux, vx)
			}
			results[c.Rank()] = r
		})
		for rank, r := range results {
			for li, g := range r.owned {
				wantRho := serial.Density(g)
				if math.Float64bits(r.rho[li]) != math.Float64bits(wantRho) {
					t.Fatalf("k=%d rank=%d site %d: rho %v vs serial %v", k, rank, g, r.rho[li], wantRho)
				}
				sx, _, _ := serial.Velocity(g)
				if math.Float64bits(r.ux[li]) != math.Float64bits(sx) {
					t.Fatalf("k=%d rank=%d site %d: ux %v vs serial %v", k, rank, g, r.ux[li], sx)
				}
			}
		}
	}
}

func TestDistOwnershipCoversDomain(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	const k = 4
	part := pipePartition(t, dom, k, partition.MethodRCB)
	rt := par.NewRuntime(k)
	counts := make([]int, k)
	rt.Run(func(c *par.Comm) {
		d, err := NewDist(c, dom, part, Params{Tau: 0.9})
		if err != nil {
			panic(err)
		}
		counts[c.Rank()] = d.NumOwned()
	})
	total := 0
	for _, n := range counts {
		if n == 0 {
			t.Error("a rank owns zero sites")
		}
		total += n
	}
	if total != dom.NumSites() {
		t.Errorf("ranks own %d sites, domain has %d", total, dom.NumSites())
	}
}

func TestDistValidatesInputs(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	part := pipePartition(t, dom, 2, partition.MethodBlock)
	rt := par.NewRuntime(4) // mismatched rank count
	defer func() {
		if recover() == nil {
			t.Error("expected panic from mismatched partition size")
		}
	}()
	rt.Run(func(c *par.Comm) {
		if _, err := NewDist(c, dom, part, Params{Tau: 0.9}); err != nil {
			panic(err)
		}
	})
}

func TestDistMassConservationClosed(t *testing.T) {
	dom := closedBox(t)
	const k = 3
	part := pipePartition(t, dom, k, partition.MethodMorton)
	rt := par.NewRuntime(k)
	var m0, m1 float64
	rt.Run(func(c *par.Comm) {
		d, err := NewDist(c, dom, part, Params{Tau: 0.8})
		if err != nil {
			panic(err)
		}
		a := d.TotalMass()
		d.Advance(30)
		b := d.TotalMass()
		if c.Rank() == 0 {
			m0, m1 = a, b
		}
	})
	if rel := math.Abs(m1-m0) / m0; rel > 1e-12 {
		t.Errorf("distributed mass drifted by %v", rel)
	}
}

func TestDistHaloTrafficScalesWithBoundary(t *testing.T) {
	dom := pipeDomain(t, 24, 4, 1.0)
	g := partition.FromDomain(dom)

	traffic := func(p *partition.Partition) int64 {
		rt := par.NewRuntime(4)
		rt.Run(func(c *par.Comm) {
			d, err := NewDist(c, dom, p, Params{Tau: 0.9})
			if err != nil {
				panic(err)
			}
			rt.Traffic().Reset() // ignore setup traffic
			d.Advance(5)
		})
		return rt.Traffic().Bytes()
	}
	pML, err := partition.ByMethod(partition.MethodMultilevel, g, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin assignment: maximal scattering, the no-locality
	// baseline a partitioner exists to avoid.
	pRR := &partition.Partition{K: 4, Parts: make([]int32, g.N)}
	for v := 0; v < g.N; v++ {
		pRR.Parts[v] = int32(v % 4)
	}
	tML := traffic(pML)
	tRR := traffic(pRR)
	if tML <= 0 {
		t.Fatal("no halo traffic measured")
	}
	if tML*3 >= tRR {
		t.Errorf("multilevel halo bytes %d should be at least 3x below round-robin %d", tML, tRR)
	}
}

func TestDistGatherVelocity(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	serial, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	serial.Advance(20)
	const k = 3
	part := pipePartition(t, dom, k, partition.MethodMultilevel)
	rt := par.NewRuntime(k)
	var gx, gy, gz []float64
	rt.Run(func(c *par.Comm) {
		d, err := NewDist(c, dom, part, Params{Tau: 0.9})
		if err != nil {
			panic(err)
		}
		d.Advance(20)
		_, ux, uy, uz, _ := d.GatherFields(0)
		if c.Rank() == 0 {
			gx, gy, gz = ux, uy, uz
		} else if ux != nil {
			panic("non-root got data")
		}
	})
	for i := 0; i < dom.NumSites(); i += 11 {
		sx, sy, sz := serial.Velocity(i)
		if gx[i] != sx || gy[i] != sy || gz[i] != sz {
			t.Fatalf("site %d: gathered (%v,%v,%v) vs serial (%v,%v,%v)", i, gx[i], gy[i], gz[i], sx, sy, sz)
		}
	}
}

func TestDistSetIoletDensity(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	const k = 2
	part := pipePartition(t, dom, k, partition.MethodRCB)
	rt := par.NewRuntime(k)
	rt.Run(func(c *par.Comm) {
		d, err := NewDist(c, dom, part, Params{Tau: 0.9})
		if err != nil {
			panic(err)
		}
		if err := d.SetIoletDensity(0, 1.02); err != nil {
			panic(err)
		}
		if err := d.SetIoletDensity(9, 1.0); err == nil {
			panic("bad iolet index accepted")
		}
		d.Advance(5)
	})
}

func BenchmarkDistStep4Ranks(b *testing.B) {
	dom := pipeDomain(b, 24, 5, 1.0)
	part := pipePartition(b, dom, 4, partition.MethodMultilevel)
	rt := par.NewRuntime(4)
	b.ResetTimer()
	rt.Run(func(c *par.Comm) {
		d, err := NewDist(c, dom, part, Params{Tau: 0.9})
		if err != nil {
			panic(err)
		}
		for i := 0; i < b.N; i++ {
			d.Step()
		}
	})
	b.ReportMetric(float64(dom.NumSites())*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLUPS")
}

// serialGatherFields is GatherFields as it was before the pack buffer
// was filled over site parcels: one loop over the owned sites on the
// calling goroutine, into a buffer of its own. It is the oracle the
// threaded gather is held to.
func serialGatherFields(d *Dist, root int) (rho, ux, uy, uz, wss []float64) {
	const stride = 6
	buf := make([]float64, stride*d.n)
	for li, g := range d.Owned {
		at := stride * li
		buf[at] = float64(g)
		buf[at+1], buf[at+2], buf[at+3], buf[at+4], buf[at+5] = d.fields(li, &d.Dom.Sites[g])
	}
	if d.Comm.Rank() != root {
		d.Comm.GatherConsume(root, buf, nil)
		return nil, nil, nil, nil, nil
	}
	N := d.Dom.NumSites()
	rho, ux, uy, uz, wss = make([]float64, N), make([]float64, N), make([]float64, N), make([]float64, N), make([]float64, N)
	d.Comm.GatherConsume(root, buf, func(_ int, p []float64) {
		for i := 0; i+stride-1 < len(p); i += stride {
			g := int(p[i])
			rho[g], ux[g], uy[g], uz[g], wss[g] = p[i+1], p[i+2], p[i+3], p[i+4], p[i+5]
		}
	})
	return rho, ux, uy, uz, wss
}

// TestGatherFieldsMatchesSerial: GatherFields, whose root writes its
// own sites in place and whose other ranks fill their pack buffers,
// both over the kernel's site parcels, equals the serial oracle bit for
// bit at 1–4 participants, on 1 and on 2 ranks, after a state gather
// has grown the pack buffers.
func TestGatherFieldsMatchesSerial(t *testing.T) {
	dom := pipeDomain(t, 40, 4, 1.0)
	if parcels := dom.NumSites() / parcelSites; parcels < 8 {
		t.Fatalf("%d sites are %d parcels; want at least 2 per rank and participant", dom.NumSites(), parcels)
	}
	for _, ranks := range []int{1, 2} {
		part := pipePartition(t, dom, ranks, partition.MethodMultilevel)
		for workers := 1; workers <= 4; workers++ {
			var got, want [5][]float64
			rt := par.NewRuntime(ranks)
			rt.Run(func(c *par.Comm) {
				d, err := NewDist(c, dom, part, Params{Tau: 0.9})
				if err != nil {
					panic(err)
				}
				d.setWorkers(workers)
				if err := d.SetPulse(0, &Pulse{Amp: 0.002, Period: 13}); err != nil {
					panic(err)
				}
				d.Advance(21)
				// A state gather first leaves a sender's pack buffer
				// longer than the field payload it must send.
				d.GatherState(nil)
				g0, g1, g2, g3, g4 := d.GatherFields(0)
				w0, w1, w2, w3, w4 := serialGatherFields(d, 0)
				if c.Rank() == 0 {
					got, want = [5][]float64{g0, g1, g2, g3, g4}, [5][]float64{w0, w1, w2, w3, w4}
				}
			})
			for f, name := range []string{"rho", "ux", "uy", "uz", "wss"} {
				if len(got[f]) != dom.NumSites() || len(want[f]) != dom.NumSites() {
					t.Fatalf("ranks=%d workers=%d: %s has %d values, oracle %d, want %d", ranks, workers, name, len(got[f]), len(want[f]), dom.NumSites())
				}
				for g := range want[f] {
					if math.Float64bits(got[f][g]) != math.Float64bits(want[f][g]) {
						t.Errorf("ranks=%d workers=%d: %s[%d] = %v, oracle %v", ranks, workers, name, g, got[f][g], want[f][g])
						break
					}
				}
			}
		}
	}
}

// TestGatherFieldsFlagsNonFinite: one NaN or +Inf population, on the
// root (written in place) or on the other rank (scattered from its
// pack), in the first or the second parcel, makes GatherFieldsChecked
// report a non-finite field at 1 and 2 ranks × 1 and 2 participants; a
// healthy state reports none.
func TestGatherFieldsFlagsNonFinite(t *testing.T) {
	dom := pipeDomain(t, 40, 4, 1.0)
	for _, ranks := range []int{1, 2} {
		part := pipePartition(t, dom, ranks, partition.MethodMultilevel)
		for workers := 1; workers <= 2; workers++ {
			for _, bad := range []float64{0, math.NaN(), math.Inf(1)} {
				for at := 0; at < ranks; at++ {
					var flagged, seen bool
					rt := par.NewRuntime(ranks)
					rt.Run(func(c *par.Comm) {
						d, err := NewDist(c, dom, part, Params{Tau: 0.9})
						if err != nil {
							panic(err)
						}
						d.setWorkers(workers)
						d.Advance(3)
						// A site in the last parcel: with 2 participants,
						// not the parcel the pass claims first.
						li := d.n - 1
						if bad != 0 && c.Rank() == at {
							d.f[li*d.M.Q+1] = bad
						}
						rho, _, _, _, _, nonFinite := d.GatherFieldsChecked(0)
						if c.Rank() == 0 {
							flagged = nonFinite
							seen = slices.ContainsFunc(rho, func(v float64) bool { return math.IsNaN(v) || math.IsInf(v, 0) })
						}
					})
					want := bad != 0
					if flagged != want || seen != want {
						t.Errorf("ranks=%d workers=%d population %v on rank %d: flagged %v, non-finite rho %v, want %v",
							ranks, workers, bad, at, flagged, seen, want)
					}
				}
			}
		}
	}
}
