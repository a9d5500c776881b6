package lb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geometry"
	"repro/internal/lattice"
	"repro/internal/par"
	"repro/internal/partition"
)

// oracleSteps is how long each oracle case runs; the iolet steer lands
// halfway through.
const oracleSteps = 10

// randomPopulations returns seeded populations far from equilibrium —
// every direction of every site scaled independently by 0.7…1.3 — so
// each term of each unrolled sum carries its own value; near
// equilibrium a swapped pair of directions would go unnoticed.
func randomPopulations(dom *geometry.Domain, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	m := dom.Model
	f := make([]float64, dom.NumSites()*m.Q)
	for i := range f {
		f[i] = m.W[i%m.Q] * (0.7 + 0.6*rng.Float64())
	}
	return f
}

// oracleDrive is the script every oracle subject follows for one step:
// a pulse on iolet 0 from the start and a steer of the last iolet
// halfway, so the iolet path sees a density that changes every step and
// one that jumps mid-run.
func oracleDrive(s goldenStepper, iolets, step int) {
	if iolets == 0 {
		return
	}
	var err error
	switch step {
	case 0:
		err = s.SetPulse(0, &Pulse{Amp: 0.02, Period: 7})
	case oracleSteps / 2:
		err = s.SetIoletDensity(iolets-1, 0.97)
	}
	if err != nil {
		panic(err)
	}
}

// firstDiff returns the index of the first bitwise difference between a
// and b, or -1.
func firstDiff(a, b []float64) int {
	if len(a) != len(b) {
		return 0
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestSpecialisedMatchesOracle steps the unrolled D3Q19 bodies and the
// generic-Q loop side by side from the same random state and compares
// the populations bitwise after every step — on every vessel preset and
// the golden-hash domains, both operators, pulsed and steered iolets,
// from a Solver and from a Dist at 1/2/3 ranks, tiled and untiled. The
// oracle is always the serial generic Solver; Fields (moments and the
// stress tensor) is compared the same way at the end.
func TestSpecialisedMatchesOracle(t *testing.T) {
	type domCase struct {
		name string
		v    *geometry.Vessel
	}
	cases := []domCase{
		{"golden-pipe", geometry.Pipe(16, 3)},
		{"golden-aneurysm", geometry.Aneurysm(16, 3, 5)},
	}
	for _, preset := range []string{"pipe", "bend", "bifurcation", "aneurysm", "tree", "stenosis"} {
		v, err := geometry.VesselByName(preset, 1)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, domCase{preset, v})
	}
	for ci, dc := range cases {
		dom, err := geometry.Voxelise(dc.v, 1.0, lattice.D3Q19())
		if err != nil {
			t.Fatal(err)
		}
		Q := dom.Model.Q
		iolets := len(dom.Iolets)
		for _, kind := range []Collision{BGK, TRT} {
			seed := int64(1000*ci) + int64(kind) + 1
			t.Run(fmt.Sprintf("%s/%v", dc.name, kind), func(t *testing.T) {
				init := randomPopulations(dom, seed)
				fail := func(who string, step int, got, want []float64) bool {
					at := firstDiff(got, want)
					if at < 0 {
						return false
					}
					t.Errorf("seed %d, %s, after step %d: first difference at site %d q %d: %#016x, oracle %#016x",
						seed, who, step, at/Q, at%Q, math.Float64bits(got[at]), math.Float64bits(want[at]))
					return true
				}

				// The oracle: the generic loop, serial, untiled.
				oracle, err := New(dom, Params{Tau: 0.9, Kind: kind})
				if err != nil {
					t.Fatal(err)
				}
				oracle.d3q19 = false
				copy(oracle.f, init)
				// Fields is compared on the random state too: after a few
				// steps f - feq is small enough that the stress sums are
				// exact in any order.
				type fieldSet [5][]float64
				fieldsOf := func(s *Solver) (fs fieldSet) {
					fs[0], fs[1], fs[2], fs[3], fs[4] = s.Fields(nil, nil, nil, nil, nil)
					return fs
				}
				sameFields := func(who, when string, got, want fieldSet) {
					for c, name := range []string{"rho", "ux", "uy", "uz", "wss"} {
						if at := firstDiff(got[c], want[c]); at >= 0 {
							t.Errorf("seed %d, %s: Fields %s of the %s state differs first at site %d: %v, oracle %v",
								seed, who, name, when, at, got[c][at], want[c][at])
						}
					}
				}
				wantInitFields := fieldsOf(oracle)
				want := make([][]float64, oracleSteps)
				for step := range want {
					oracleDrive(oracle, iolets, step)
					oracle.Advance(1)
					want[step] = append([]float64(nil), oracle.f...)
				}

				for _, threads := range []int{1, 3} {
					s, err := New(dom, Params{Tau: 0.9, Kind: kind, Threads: threads})
					if err != nil {
						t.Fatal(err)
					}
					s.setWorkers(threads)
					if !s.d3q19 {
						t.Fatal("a D3Q19 solver did not select the unrolled bodies")
					}
					copy(s.f, init)
					who := fmt.Sprintf("Solver threads=%d", threads)
					sameFields(who, "initial", fieldsOf(s), wantInitFields)
					for step := range want {
						oracleDrive(s, iolets, step)
						s.Advance(1)
						if fail(who, step+1, s.f, want[step]) {
							return
						}
					}
					sameFields(who, "final", fieldsOf(s), fieldsOf(oracle))
					s.Close()
				}

				for _, ranks := range []int{1, 2, 3} {
					part := pipePartition(t, dom, ranks, partition.MethodMultilevel)
					for _, threads := range []int{1, 3} {
						who := fmt.Sprintf("Dist ranks=%d threads=%d", ranks, threads)
						par.NewRuntime(ranks).Run(func(c *par.Comm) {
							d, err := NewDist(c, dom, part, Params{Tau: 0.9, Kind: kind, Threads: threads})
							if err != nil {
								panic(err)
							}
							d.setWorkers(threads)
							defer d.Close()
							for li, g := range d.Owned {
								copy(d.f[li*Q:(li+1)*Q], init[g*Q:(g+1)*Q])
							}
							var st *CheckpointState
							failed := false
							for step := range want {
								oracleDrive(d, iolets, step)
								d.Step()
								// Collective: every rank gathers every step,
								// whether or not rank 0 already saw a difference.
								if got := d.GatherState(st); got != nil && !failed {
									st = got
									failed = fail(who, step+1, st.F, want[step])
								}
							}
						})
					}
				}
			})
		}
	}
}

// TestD3Q15TakesGenericPath: only the canonical D3Q19 set may select the
// unrolled bodies — D3Q15 (and any reordered or reweighted 19-velocity
// set) must keep running the generic loop.
func TestD3Q15TakesGenericPath(t *testing.T) {
	dom, err := geometry.Voxelise(geometry.Pipe(16, 3), 1.0, lattice.D3Q15())
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if s.d3q19 {
		t.Error("a D3Q15 solver selected the D3Q19 bodies")
	}
	swapped := lattice.D3Q19()
	swapped.C[1], swapped.C[2] = swapped.C[2], swapped.C[1]
	if isD3Q19(swapped) {
		t.Error("isD3Q19 accepted a reordered velocity set")
	}
	reweighted := lattice.D3Q19()
	reweighted.W[7] = reweighted.W[1]
	if isD3Q19(reweighted) {
		t.Error("isD3Q19 accepted different weights")
	}
	if !isD3Q19(lattice.D3Q19()) {
		t.Error("isD3Q19 rejected lattice.D3Q19()")
	}
}
