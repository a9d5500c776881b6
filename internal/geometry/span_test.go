package geometry

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/lattice"
	"repro/internal/vec"
)

// vesselBytes reads the parameters of a generated vessel from a byte
// string; past its end every read is zero, so any string decodes.
type vesselBytes struct {
	b []byte
	i int
}

func (r *vesselBytes) u8() byte {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return r.b[r.i-1]
}

// in returns a value in [lo, hi] read from two bytes.
func (r *vesselBytes) in(lo, hi float64) float64 {
	u := float64(uint16(r.u8())<<8|uint16(r.u8())) / math.MaxUint16
	return lo + u*(hi-lo)
}

func (r *vesselBytes) point(s float64) vec.V3 {
	return vec.New(r.in(-s, s), r.in(-s, s), r.in(-s, s))
}

// Header bits of a generated vessel's first byte; the low three bits
// count its primitives less one, capped by decodeVessel's limit.
const (
	genNested = 1 << 3 // the primitives after the first form an inner Union
	genSnap   = 1 << 7 // box faces moved onto lattice planes (snapFaces)
)

// decodeVessel turns a byte string into a small vessel and a spacing
// h ∈ [0.3, 2] (almost never dyadic): 1..maxPrims primitives, each a
// Sphere, Capsule, TaperedCapsule or TorusArc within a few units of the
// origin, nested one Union deep when the header says so, and up to
// three iolets whose planes cut the primitives, each facing so that a
// point inside the first primitive (core) is on its interior side. With
// the snap bit set, an anchor sphere is added below them and snapFaces
// moves them so that box faces lie on lattice planes; snapped counts
// the faces it placed.
func decodeVessel(b []byte, maxPrims int) (v *Vessel, h float64, snapped int) {
	r := &vesselBytes{b: b}
	hdr := r.u8()
	h = r.in(0.3, 2)
	prims := make([]Shape, min(1+int(hdr&7), maxPrims))
	for i := range prims {
		switch r.u8() % 4 {
		case 0:
			prims[i] = Sphere{Center: r.point(3), Radius: r.in(0.4, 2.5)}
		case 1:
			prims[i] = Capsule{A: r.point(3), B: r.point(3), Radius: r.in(0.4, 2)}
		case 2:
			prims[i] = TaperedCapsule{A: r.point(3), B: r.point(3), RA: r.in(0.4, 2), RB: r.in(0.4, 2)}
		default:
			u := r.point(1)
			if u.Len() < 0.1 {
				u = vec.New(1, 0, 0)
			}
			u = u.Norm()
			w := u.Cross(r.point(1))
			if w.Len() < 0.1 {
				w = u.Cross(vec.New(0.3, 0.5, 0.7))
			}
			prims[i] = TorusArc{Center: r.point(2), U: u, V: w.Norm(), Major: r.in(1, 3), Tube: r.in(0.3, 1.2),
				Angle: r.in(0.2, 2*math.Pi)}
		}
	}
	if hdr&genSnap != 0 {
		// A small sphere below every primitive holds the lattice's
		// origin, so that moving a primitive cannot move it.
		low := Union(prims).Bounds().Min
		prims = append(prims, Sphere{Center: low.Sub(vec.Splat(2.5)), Radius: 0.4})
	}
	v = &Vessel{Name: "generated", Shape: vesselShape(prims, hdr&genNested != 0)}
	if hdr&genSnap != 0 {
		snapped = snapFaces(v, prims, hdr&genNested != 0, h, r)
	}
	keep := core(prims[0])
	for i, n := 0, int(hdr>>4&3); i < n; i++ {
		c := prims[int(r.u8())%len(prims)].Bounds().Center().Add(r.point(1.5))
		nrm := r.point(1)
		if nrm.Len() < 0.1 {
			nrm = vec.New(0, 0, 1)
		}
		io := Iolet{Center: c, Normal: nrm.Norm(), Radius: r.in(0.5, 3), IsInlet: i == 0}
		if io.side(keep) < 0 {
			io.Normal = io.Normal.Mul(-1)
		}
		v.Iolets = append(v.Iolets, io)
	}
	return v, h, snapped
}

// core returns a point inside primitive s, which decodeVessel keeps on
// the interior side of every iolet plane, so that the planes do not cut
// the whole vessel away.
func core(s Shape) vec.V3 {
	switch p := s.(type) {
	case Sphere:
		return p.Center
	case Capsule:
		return p.A
	case TaperedCapsule:
		return p.A
	case TorusArc:
		return p.Center.Add(p.U.Mul(p.Major))
	}
	panic(fmt.Sprintf("core: %T", s))
}

func vesselShape(prims []Shape, nested bool) Shape {
	if !nested || len(prims) < 2 {
		return Union(append([]Shape(nil), prims...))
	}
	return Union{prims[0], Union(append([]Shape(nil), prims[1:]...))}
}

// snapFaces moves each primitive but the last (the anchor sphere
// below them) along each axis, by at most half a spacing, so that one
// face of its box (the low or the high one, read from r) lies exactly
// on a lattice plane of the vessel's lattice: Bounds() then returns
// Origin + k·h, as World computes it. A move that would shift the
// vessel's lower bound, and with it the lattice's origin, is not made.
// It returns the faces placed.
func snapFaces(v *Vessel, prims []Shape, nested bool, h float64, r *vesselBytes) (snapped int) {
	origin := v.Bounds().Min
	for i := range prims[:len(prims)-1] {
		for axis := 0; axis < 3; axis++ {
			high := r.u8()&1 == 1
			face := func(s Shape) float64 {
				b := s.Bounds()
				if high {
					return comp(b.Max, axis)
				}
				return comp(b.Min, axis)
			}
			o := comp(origin, axis)
			k := math.Round((face(prims[i]) - o) / h)
			target := o + float64(int(k))*h // World's arithmetic
			s := prims[i]
			for try := 0; try < 64 && face(s) != target; try++ {
				s = shift(s, axis, target-face(s))
			}
			if face(s) != target {
				continue
			}
			old := prims[i]
			prims[i] = s
			v.Shape = vesselShape(prims, nested)
			if v.Bounds().Min != origin {
				prims[i] = old
				v.Shape = vesselShape(prims, nested)
				continue
			}
			snapped++
		}
	}
	return snapped
}

func comp(p vec.V3, axis int) float64 {
	return [3]float64{p.X, p.Y, p.Z}[axis]
}

// shift translates a primitive by d along axis; a move too small to
// change a coordinate moves it by one ulp in d's direction instead.
func shift(s Shape, axis int, d float64) Shape {
	mv := func(p vec.V3) vec.V3 {
		c := [3]float64{p.X, p.Y, p.Z}
		if n := c[axis] + d; n != c[axis] {
			c[axis] = n
		} else {
			c[axis] = math.Nextafter(c[axis], math.Copysign(math.Inf(1), d))
		}
		return vec.New(c[0], c[1], c[2])
	}
	switch p := s.(type) {
	case Sphere:
		p.Center = mv(p.Center)
		return p
	case Capsule:
		p.A, p.B = mv(p.A), mv(p.B)
		return p
	case TaperedCapsule:
		p.A, p.B = mv(p.A), mv(p.B)
		return p
	case TorusArc:
		p.Center = mv(p.Center)
		return p
	}
	panic(fmt.Sprintf("shift: %T", s))
}

// sweepCases draws the sweep's byte strings: count vessels of up to
// five primitives, every third one face-snapped and, so that it decodes
// to the same vessel under the fuzz target's two-primitive cap, of one
// or two primitives.
func sweepCases(count int) [][]byte {
	rng := rand.New(rand.NewSource(20261018))
	var out [][]byte
	for i := 0; i < count; i++ {
		b := make([]byte, 160)
		rng.Read(b)
		b[0] &^= genSnap
		if i%3 == 0 {
			b[0] = b[0]&^7 | genSnap | b[0]&1
		}
		out = append(out, b)
	}
	return out
}

// TestVoxeliseSweepMatchesOracle holds the voxeliser to voxeliseOracle
// on seeded generated vessels (decodeVessel): unions, nested ones
// included, of every primitive with random iolets, at spacings that
// are not powers of two, a third of them with box faces on lattice
// planes, where a row span's ends land exactly on the points the box
// tests decide. Each is built at 1/2/3/7 workers and compared field
// for field, distance table included. A case both sides refuse (no
// lattice point inside at a coarse spacing) is counted, and no more
// than a tenth of them may be refused.
func TestVoxeliseSweepMatchesOracle(t *testing.T) {
	cases := sweepCases(240)
	if testing.Short() {
		cases = cases[:60]
	}
	snapped, refused := 0, 0
	for i, b := range cases {
		v, h, n := decodeVessel(b, 5)
		snapped += n
		ref, err := matchesOracle(v, h, oracleWorkers)
		if err != nil {
			t.Fatalf("case %d (%d primitives, h=%g, %d iolets, %d faces snapped): %v", i, len(newSignField(v.Shape).leaves), h, len(v.Iolets), n, err)
		}
		if ref != nil {
			refused++
			t.Logf("case %d (h=%g, %d iolets): both refused: %v", i, h, len(v.Iolets), ref)
		}
	}
	t.Logf("%d cases, %d refused by both, %d box faces on lattice planes", len(cases), refused, snapped)
	// A vessel both sides refuse compares nothing; most must build.
	if refused > len(cases)/10 {
		t.Errorf("%d of %d cases built no domain on either side", refused, len(cases))
	}
	if snapped < len(cases) {
		t.Errorf("only %d faces snapped onto lattice planes in %d cases", snapped, len(cases))
	}
}

// FuzzVoxeliseMatchesOracle: a fuzzed byte string decodes to one or
// two small primitives (and, when snapped, the anchor sphere), perhaps
// iolets, and a
// spacing in [0.3, 2] (decodeVessel); the voxeliser must build the
// oracle's domain from it at every worker count. The seeds are the
// sweep's face-snapped cases.
func FuzzVoxeliseMatchesOracle(f *testing.F) {
	for i, b := range sweepCases(30) {
		if i%3 == 0 {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		v, h, _ := decodeVessel(b, 2)
		if _, err := matchesOracle(v, h, oracleWorkers); err != nil {
			t.Fatalf("%+v h=%g iolets %+v: %v", v.Shape, h, v.Iolets, err)
		}
	})
}

// TestRowSpanMatchesBoxTests holds rowSpan to the box tests it stands
// for: on every row of hand-made lattices, its span is exactly the hull
// of the points that pass some leaf's box test of signField.negative.
// The leaves' faces sit on lattice points' world coordinates, one ulp
// either side of them, between them and off the lattice, so an end
// that used < for ≤, or lost a point to the division's rounding, shows.
func TestRowSpanMatchesBoxTests(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for c := 0; c < 300; c++ {
		h := [...]float64{1, 0.1, 1.0 / 3, 0.7, 0.3 + rng.Float64()}[c%5]
		d := &Domain{
			Dims:   vec.NewI(1+rng.Intn(20), 1+rng.Intn(4), 1+rng.Intn(4)),
			Origin: vec.New(rng.NormFloat64()*50, rng.NormFloat64(), rng.NormFloat64()),
			H:      h,
			sign:   &signField{},
		}
		// edge draws a face coordinate along an axis of n points.
		edge := func(o float64, n int) float64 {
			k := rng.Intn(n+6) - 3
			w := o + float64(k)*h
			switch rng.Intn(5) {
			case 0:
				return math.Nextafter(w, math.Inf(-1))
			case 1:
				return math.Nextafter(w, math.Inf(1))
			case 2:
				return w + h*rng.Float64()
			}
			return w
		}
		for l, n := 0, 1+rng.Intn(4); l < n; l++ {
			var lf signLeaf
			lo := vec.New(edge(d.Origin.X, d.Dims.X), edge(d.Origin.Y, d.Dims.Y), edge(d.Origin.Z, d.Dims.Z))
			hi := vec.New(edge(d.Origin.X, d.Dims.X), edge(d.Origin.Y, d.Dims.Y), edge(d.Origin.Z, d.Dims.Z))
			lf.min, lf.max = lo.Min(hi), lo.Max(hi)
			if rng.Intn(8) == 0 {
				lf.min.X = lf.max.X // a flat box
			}
			d.sign.leaves = append(d.sign.leaves, lf)
		}
		boxes := d.leafBoxes()
		for z := 0; z < d.Dims.Z; z++ {
			for y := 0; y < d.Dims.Y; y++ {
				wantLo, wantHi := 0, 0
				for x := 0; x < d.Dims.X; x++ {
					p := d.World(vec.I3{X: x, Y: y, Z: z})
					for _, l := range d.sign.leaves {
						if !(p.X < l.min.X || p.X > l.max.X || p.Y < l.min.Y || p.Y > l.max.Y || p.Z < l.min.Z || p.Z > l.max.Z) {
							if wantLo == wantHi {
								wantLo = x
							}
							wantHi = x + 1
						}
					}
				}
				if lo, hi := rowSpan(boxes, y, z); lo != wantLo || hi != wantHi {
					t.Fatalf("case %d row (y %d, z %d) of %+v at %+v h=%g, leaves %+v: span [%d,%d), box tests [%d,%d)",
						c, y, z, d.Dims, d.Origin, h, d.sign.leaves, lo, hi, wantLo, wantHi)
				}
			}
		}
	}
}

// TestNeighboursMatchSiteAt: Neighbours equals a per-direction SiteAt
// for every site of reassembled lattices with a lone site at each of
// the 27 face, edge, corner and interior positions (and on lattices
// one or two points thin, where every site is on a face), in both
// models. On a voxelised domain a neighbour exists exactly where the
// link is fluid, and it is the one the per-link Neighbour finds. Every
// model moves at most one site per axis, which the interior fast path
// takes for granted.
func TestNeighboursMatchSiteAt(t *testing.T) {
	for _, model := range []*lattice.Model{lattice.D3Q15(), lattice.D3Q19()} {
		for q, c := range model.C {
			if max(abs(c[0]), abs(c[1]), abs(c[2])) > 1 {
				t.Fatalf("%s direction %d is %v: Neighbours reads one site per axis", model.Name, q, c)
			}
		}
		rng := rand.New(rand.NewSource(23))
		for c := 0; c < 40; c++ {
			dims := vec.NewI(1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6))
			at := func(n, kind int) int { return [3]int{0, n / 2, n - 1}[kind] }
			seen := map[vec.I3]bool{}
			var sites []Site
			add := func(p vec.I3) {
				if !seen[p] {
					seen[p] = true
					sites = append(sites, Site{Pos: p, Links: make([]Link, model.Q-1)})
				}
			}
			for k := 0; k < 27; k++ {
				add(vec.NewI(at(dims.X, k%3), at(dims.Y, k/3%3), at(dims.Z, k/9)))
			}
			for k := rng.Intn(dims.X * dims.Y * dims.Z); k > 0; k-- {
				add(vec.NewI(rng.Intn(dims.X), rng.Intn(dims.Y), rng.Intn(dims.Z)))
			}
			d, err := Reassemble(model, dims, vec.V3{}, 1, nil, sites, make([]float64, len(sites)*(model.Q-1)))
			if err != nil {
				t.Fatal(err)
			}
			nb := make([]int32, model.Q-1)
			for si := range d.Sites {
				d.Neighbours(si, nb)
				for q := 1; q < model.Q; q++ {
					cq := model.C[q]
					if want := d.SiteAt(d.Sites[si].Pos.Add(vec.I3{X: cq[0], Y: cq[1], Z: cq[2]})); int(nb[q-1]) != want {
						t.Fatalf("%s %+v: site %d at %v direction %d: Neighbours %d, SiteAt %d",
							model.Name, dims, si, d.Sites[si].Pos, q, nb[q-1], want)
					}
				}
			}
		}
	}
	d := voxelPipe(t)
	nb := make([]int32, d.Model.Q-1)
	for si := range d.Sites {
		d.Neighbours(si, nb)
		for q := 1; q < d.Model.Q; q++ {
			fluid := d.Sites[si].Links[q-1].Type == LinkFluid
			if (nb[q-1] >= 0) != fluid || (fluid && int(nb[q-1]) != d.Neighbour(si, q)) {
				t.Fatalf("site %d direction %d: Neighbours %d, link %+v, Neighbour %d", si, q, nb[q-1], d.Sites[si].Links[q-1], d.Neighbour(si, q))
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
