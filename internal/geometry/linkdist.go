package geometry

import (
	"runtime"

	"repro/internal/guard"
	"repro/internal/vec"
)

// linkDistKey is the Derive key of a domain's distance table.
type linkDistKey struct{}

// LinkDists returns the domain's distance table: for every non-fluid
// link, the fraction in (0,1] along it at which it crosses the vessel
// wall or its iolet's disk, at si*(Q-1)+q-1 for direction q of site si
// (the layout of the sites' Links); fluid links read 0. The solver's
// halfway bounce-back puts every wall at ½ and reads none of it — the
// geometry file stores it — so Voxelise leaves it out and the first
// call computes it, bisecting each wall link as wallCrossing does; a
// domain from Reassemble carries the table it was given. Every caller
// shares the one slice: it must not be written.
func (d *Domain) LinkDists() []float64 {
	v, _ := d.Derive(linkDistKey{}, func() any { return d.linkDists(runtime.GOMAXPROCS(0)) })
	return v.([]float64)
}

// linkDists computes the distance table on up to workers participants,
// linkChunk sites per claim; every entry is its own, so the table does
// not depend on how many.
func (d *Domain) linkDists(workers int) []float64 {
	if d.sign == nil {
		panic("geometry: a reassembled domain has no shape to derive link distances from")
	}
	m := d.Model
	n := len(d.Sites)
	dists := make([]float64, n*(m.Q-1))
	guard.ForChunks((n+linkChunk-1)/linkChunk, workers, func(chunk int) {
		for si := chunk * linkChunk; si < min((chunk+1)*linkChunk, n); si++ {
			s := &d.Sites[si]
			wp := d.World(s.Pos)
			row := dists[si*(m.Q-1) : (si+1)*(m.Q-1)]
			for q := 1; q < m.Q; q++ {
				t := s.Links[q-1].Type
				if t == LinkFluid {
					continue
				}
				c := m.C[q]
				wn := d.World(s.Pos.Add(vec.I3{X: c[0], Y: c[1], Z: c[2]}))
				if t == LinkWall {
					row[q-1] = wallCrossing(d.sign, wp, wn)
				} else {
					_, row[q-1] = d.ioletCrossing(wp, wn)
				}
			}
		}
	})
	return dists
}

// wallCrossing bisects the sign of the SDF along the segment a->b to
// locate the wall crossing fraction in (0,1]. a is fluid (SDF<0); b is
// expected solid. If the SDF never becomes positive along the segment
// (possible near iolet-clipped corners), 1.0 is returned.
func wallCrossing(s *signField, a, b vec.V3) float64 {
	if s.negative(b) {
		return 1.0
	}
	lo, hi := 0.0, 1.0
	for iter := 0; iter < 20; iter++ {
		mid := (lo + hi) / 2
		if s.negative(a.Lerp(b, mid)) {
			lo = mid
		} else {
			hi = mid
		}
	}
	t := (lo + hi) / 2
	if t <= 0 {
		t = 1e-9
	}
	return t
}
