// Package field provides sampling access to macroscopic solver fields
// on the sparse lattice: nearest-site and trilinear interpolation of
// velocity and scalars at arbitrary (continuous) lattice positions.
// Every visualisation algorithm consumes the data through this layer,
// so the in situ coupler can hand the solver's arrays over zero-copy.
package field

import (
	"fmt"

	"repro/internal/geometry"
	"repro/internal/vec"
)

// Scalar selects a scalar quantity for sampling and rendering.
type Scalar int

// Available scalar fields.
const (
	ScalarSpeed Scalar = iota // |u|
	ScalarRho                 // density
	ScalarWSS                 // wall shear stress
)

// String implements fmt.Stringer.
func (s Scalar) String() string {
	switch s {
	case ScalarSpeed:
		return "speed"
	case ScalarRho:
		return "density"
	case ScalarWSS:
		return "wss"
	}
	return fmt.Sprintf("scalar(%d)", int(s))
}

// Field is a snapshot (or zero-copy view) of the macroscopic fields,
// indexed by global site id.
type Field struct {
	Dom *geometry.Domain
	Rho []float64
	Ux  []float64
	Uy  []float64
	Uz  []float64
	WSS []float64
	// Owned optionally masks which sites this rank holds valid data
	// for; nil means all sites are valid (serial / gathered field).
	Owned []bool
}

// Validate checks array lengths against the domain.
func (f *Field) Validate() error {
	n := f.Dom.NumSites()
	if len(f.Rho) != n || len(f.Ux) != n || len(f.Uy) != n || len(f.Uz) != n {
		return fmt.Errorf("field: rho/ux/uy/uz have %d/%d/%d/%d entries, domain has %d sites",
			len(f.Rho), len(f.Ux), len(f.Uy), len(f.Uz), n)
	}
	if f.WSS != nil && len(f.WSS) != n {
		return fmt.Errorf("field: wss has %d entries, domain has %d sites", len(f.WSS), n)
	}
	if f.Owned != nil && len(f.Owned) != n {
		return fmt.Errorf("field: owned mask has %d entries, domain has %d sites", len(f.Owned), n)
	}
	return nil
}

// siteValid reports whether site id carries valid data on this rank.
func (f *Field) siteValid(id int) bool {
	return id >= 0 && (f.Owned == nil || f.Owned[id])
}

// VelocityAtSite returns the velocity of a site by id.
func (f *Field) VelocityAtSite(id int) vec.V3 {
	return vec.New(f.Ux[id], f.Uy[id], f.Uz[id])
}

// ScalarAtSite returns the selected scalar at a site.
func (f *Field) ScalarAtSite(id int, s Scalar) float64 {
	switch s {
	case ScalarRho:
		return f.Rho[id]
	case ScalarWSS:
		if f.WSS == nil {
			return 0
		}
		return f.WSS[id]
	default:
		return f.VelocityAtSite(id).Len()
	}
}

// Velocity trilinearly interpolates the velocity at continuous lattice
// position p. Solid or unowned corners contribute zero velocity with
// full weight (no-slip behaviour at walls). ok is false when no fluid
// corner exists.
func (f *Field) Velocity(p vec.V3) (vec.V3, bool) {
	base := vec.Floor(p)
	fx := p.X - float64(base.X)
	fy := p.Y - float64(base.Y)
	fz := p.Z - float64(base.Z)
	var acc vec.V3
	found := false
	for dz := 0; dz < 2; dz++ {
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				w := wt(fx, dx) * wt(fy, dy) * wt(fz, dz)
				if w == 0 {
					continue
				}
				id := f.Dom.SiteAt(base.Add(vec.I3{X: dx, Y: dy, Z: dz}))
				if !f.siteValid(id) {
					continue // zero velocity contribution
				}
				found = true
				acc = acc.Add(f.VelocityAtSite(id).Mul(w))
			}
		}
	}
	return acc, found
}

// ScalarAt trilinearly interpolates a scalar at p, with the same wall
// convention as Velocity.
func (f *Field) ScalarAt(p vec.V3, s Scalar) (float64, bool) {
	base := vec.Floor(p)
	fx := p.X - float64(base.X)
	fy := p.Y - float64(base.Y)
	fz := p.Z - float64(base.Z)
	acc := 0.0
	found := false
	for dz := 0; dz < 2; dz++ {
		for dy := 0; dy < 2; dy++ {
			for dx := 0; dx < 2; dx++ {
				w := wt(fx, dx) * wt(fy, dy) * wt(fz, dz)
				if w == 0 {
					continue
				}
				id := f.Dom.SiteAt(base.Add(vec.I3{X: dx, Y: dy, Z: dz}))
				if !f.siteValid(id) {
					continue
				}
				found = true
				acc += float64(f.ScalarAtSite(id, s) * w) // rounded: no FMA, as viz's sampler
			}
		}
	}
	return acc, found
}

func wt(frac float64, d int) float64 {
	if d == 0 {
		return 1 - frac
	}
	return frac
}

// MaxScalar returns the maximum of a scalar over valid sites, for
// auto-ranging transfer functions.
func (f *Field) MaxScalar(s Scalar) float64 {
	maxV := 0.0
	for id := 0; id < f.Dom.NumSites(); id++ {
		if !f.siteValid(id) {
			continue
		}
		if v := f.ScalarAtSite(id, s); v > maxV {
			maxV = v
		}
	}
	return maxV
}

// ScalarTable returns scalar s of every site, indexed by site id, and
// its largest value above zero over the valid sites (MaxScalar's
// value): one pass over the sites for a renderer that samples the
// table and scales its transfer function to it. Rho and WSS are the
// field's own arrays; speed is computed into *buf, grown as needed.
func (f *Field) ScalarTable(s Scalar, buf *[]float64) (vals []float64, maxV float64) {
	switch {
	case s == ScalarRho:
		vals = f.Rho
	case s == ScalarWSS && f.WSS != nil:
		vals = f.WSS
	default:
		n := f.Dom.NumSites()
		if cap(*buf) < n {
			*buf = make([]float64, n)
		}
		vals = (*buf)[:n]
		if s == ScalarWSS { // no WSS field: zero everywhere
			clear(vals)
			return vals, 0
		}
		for id := range vals {
			vals[id] = f.VelocityAtSite(id).Len()
		}
	}
	for id, v := range vals {
		if v > maxV && f.siteValid(id) {
			maxV = v
		}
	}
	return vals, maxV
}

// Owner returns a convenience mask builder: owned[i] = parts[i] == rank.
func OwnedMask(parts []int32, rank int) []bool {
	m := make([]bool, len(parts))
	for i, p := range parts {
		m[i] = int(p) == rank
	}
	return m
}
