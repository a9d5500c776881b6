package geometry

import "repro/internal/vec"

// signField answers the only question the voxeliser asks of a shape
// outside sdfGradient: is SDF(p) < 0? A Union is negative where any
// member is, and a member can be negative only inside its own Bounds()
// (every primitive's fluid lies within its box — the property
// TestBoundsContainNegativeSDF checks), so members whose box misses p
// are skipped without evaluating them. That is exact, not a distance
// estimate: no Lipschitz bound on the SDF is assumed.
type signField struct {
	leaves []signLeaf
}

type signLeaf struct {
	shape    Shape
	min, max vec.V3
}

// newSignField flattens nested Unions into their primitive members.
func newSignField(s Shape) *signField {
	f := &signField{}
	f.add(s)
	return f
}

func (f *signField) add(s Shape) {
	if u, ok := s.(Union); ok {
		for _, m := range u {
			f.add(m)
		}
		return
	}
	// A point within rounding of a face can see a negative SDF while
	// comparing outside the computed box; pad by far more than an ulp
	// and far less than a lattice spacing.
	b := s.Bounds()
	b = b.Expand(1e-9 * (1 + b.Min.Len() + b.Max.Len()))
	f.leaves = append(f.leaves, signLeaf{shape: s, min: b.Min, max: b.Max})
}

// negative reports whether the flattened shape's SDF is < 0 at p; it
// equals s.SDF(p) < 0 for the shape the field was built from.
func (f *signField) negative(p vec.V3) bool {
	for i := range f.leaves {
		l := &f.leaves[i]
		if p.X < l.min.X || p.X > l.max.X || p.Y < l.min.Y || p.Y > l.max.Y || p.Z < l.min.Z || p.Z > l.max.Z {
			continue
		}
		if l.shape.SDF(p) < 0 {
			return true
		}
	}
	return false
}
