package lb

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/par"
	"repro/internal/partition"
)

// primeSpare makes the spare a NaN-filled pair of n values each and
// returns its f, so a test can tell whether a kernel took it.
func primeSpare(n int) []float64 {
	f, fNew := make([]float64, n), make([]float64, n)
	for i := range f {
		f[i], fNew[i] = math.NaN(), math.NaN()
	}
	spare.Store(&populations{f: f, fNew: fNew})
	return f
}

// sameArray reports whether a and b share their first element.
func sameArray(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// sameBits reports the first index where got and want differ bit for
// bit, or -1.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// TestSpareIsOverwritten: a solver whose populations are a recycled
// pair full of NaN ends every golden configuration exactly where one
// on fresh memory does — at 1 and 2 participants, after a restore from
// a checkpoint, and as the rank of a 2-rank Dist that took the spare.
// Any slot of f or fNew read before it is written would carry a NaN
// into the state. A released Dist holds no populations.
func TestSpareIsOverwritten(t *testing.T) {
	defer DropSpare()
	checkHash := runtime.GOARCH == "amd64" // see TestGoldenStateHash
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			check := func(id string, got, want []float64) {
				t.Helper()
				if i := sameBits(got, want); i >= 0 {
					t.Errorf("%s: population %d differs from the fresh run", id, i)
				}
				if h := stateHash(got); checkHash && h != tc.want {
					t.Errorf("%s: state hash %#016x, want %#016x", id, h, tc.want)
				}
			}
			n := tc.dom.NumSites() * tc.dom.Model.Q
			DropSpare()
			fresh, err := New(tc.dom, Params{Tau: 0.9, Kind: tc.kind})
			must(err)
			tc.drive(fresh)
			want := append([]float64(nil), fresh.F()...)
			ckpt := solverRecord(fresh)
			// A checkpoint carries no pulse, so the steps after a restore
			// are held to a fresh solver restored from the same bytes.
			DropSpare()
			freshRestored, err := New(tc.dom, Params{Tau: 0.9, Kind: tc.kind})
			must(err)
			must(restoreSolver(freshRestored, ckpt))
			freshRestored.Advance(5)
			wantLater := freshRestored.F()

			for _, workers := range []int{1, 2} {
				primed := primeSpare(n)
				s, err := New(tc.dom, Params{Tau: 0.9, Kind: tc.kind})
				must(err)
				if !sameArray(s.f, primed) || spare.Load() != nil {
					t.Fatalf("participants=%d: the solver did not take the primed spare", workers)
				}
				s.setWorkers(workers)
				tc.drive(s)
				check(fmt.Sprintf("participants=%d", workers), s.F(), want)
			}

			primeSpare(n)
			s, err := New(tc.dom, Params{Tau: 0.9, Kind: tc.kind})
			must(err)
			must(restoreSolver(s, ckpt))
			check("restored", s.F(), want)
			s.Advance(5)
			if i := sameBits(s.F(), wantLater); i >= 0 {
				t.Errorf("restored, 5 steps on: population %d differs from the fresh run", i)
			}

			part := pipePartition(t, tc.dom, 2, partition.MethodMultilevel)
			for r := int32(0); r < 2; r++ {
				primed := primeSpare(rankSites(part, r) * tc.dom.Model.Q)
				var got []float64
				took := make([]bool, 2)
				// Rank r builds its solver first: the other rank's kernel,
				// of another size, would drop the primed pair.
				built := make(chan struct{})
				par.NewRuntime(2).Run(func(c *par.Comm) {
					if c.Rank() != int(r) {
						<-built
					}
					d, err := NewDist(c, tc.dom, part, Params{Tau: 0.9, Kind: tc.kind})
					must(err)
					took[c.Rank()] = sameArray(d.f, primed)
					if c.Rank() == int(r) {
						close(built)
					}
					tc.drive(d)
					if st := d.GatherState(nil); st != nil {
						got = st.F
					}
					d.Release()
					if d.f != nil || d.fNew != nil {
						panic("a released Dist keeps its populations")
					}
				})
				if !took[r] {
					t.Fatalf("2 ranks: rank %d did not take the spare primed for it", r)
				}
				check(fmt.Sprintf("2 ranks, rank %d primed", r), got, want)
			}
		})
	}
}

// rankSites counts the sites part gives rank r.
func rankSites(part *partition.Partition, r int32) int {
	n := 0
	for _, p := range part.Parts {
		if p == r {
			n++
		}
	}
	return n
}

// TestReleaseHandsOverPopulations: a released Dist's pair is what the
// next kernel of its size steps in, a kernel of another size drops the
// spare and allocates its own, and the released Dist panics instead of
// stepping in another job's state.
func TestReleaseHandsOverPopulations(t *testing.T) {
	defer DropSpare()
	DropSpare()
	dom := pipeDomain(t, 16, 3, 1.0)
	part := pipePartition(t, dom, 1, partition.MethodMultilevel)
	par.NewRuntime(1).Run(func(c *par.Comm) {
		d, err := NewDist(c, dom, part, Params{Tau: 0.9})
		must(err)
		d.Advance(3)
		f := d.f
		d.Release()
		defer func() {
			if recover() == nil {
				t.Error("a released Dist stepped")
			}
		}()
		next, err := NewDist(c, dom, part, Params{Tau: 0.9})
		must(err)
		if !sameArray(next.f, f) && !sameArray(next.fNew, f) {
			t.Error("the next Dist of the same size did not step in the released pair")
		}
		next.Release()
		other, err := New(pipeDomain(t, 12, 3, 1.0), Params{Tau: 0.9})
		must(err)
		if sameArray(other.f, f) || sameArray(other.fNew, f) {
			t.Error("a kernel of another size took the spare")
		}
		if spare.Load() != nil {
			t.Error("a kernel of another size kept the spare")
		}
		d.Step()
	})
}
