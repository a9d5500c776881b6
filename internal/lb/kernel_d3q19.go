package lb

import (
	"math"

	"repro/internal/lattice"
)

// The D3Q19 bodies of the kernel: the collide+stream pass and the
// moment / stress sums with the 19 velocities, three weight classes and
// nine opposite pairs written out. Direction order (lattice.D3Q19):
//
//	 0 ( 0, 0, 0)
//	 1 ( 1, 0, 0)   2 (-1, 0, 0)    3 ( 0, 1, 0)   4 ( 0,-1, 0)
//	 5 ( 0, 0, 1)   6 ( 0, 0,-1)    7 ( 1, 1, 0)   8 (-1,-1, 0)
//	 9 ( 1,-1, 0)  10 (-1, 1, 0)   11 ( 1, 0, 1)  12 (-1, 0,-1)
//	13 ( 1, 0,-1)  14 (-1, 0, 1)   15 ( 0, 1, 1)  16 ( 0,-1,-1)
//	17 ( 0, 1,-1)  18 ( 0,-1, 1)
//
// Every expression here reproduces the generic-Q loop (kernel.go) bit
// for bit, which is what keeps the golden state hashes and every stored
// checkpoint valid. The generic loop sums Σ v·float64(c) over all
// directions in index order; a term with c = 0 adds ±0 and one with
// c = -1 subtracts v exactly, so dropping the zero terms and writing
// the signs out leaves every partial sum unchanged. Opposite directions
// have c·u of equal magnitude and opposite sign (negation and
// round-to-nearest commute), so a pair shares one c·u. Go never
// reassociates floating-point arithmetic and amd64 never fuses it; do
// not "simplify" the parenthesisation or operand order below — the
// oracle test (TestSpecialisedMatchesOracle) compares populations
// bitwise against the generic loop. The one deliberate exception is a
// non-finite population, see momentsD3Q19.

// isD3Q19 reports whether m is the D3Q19 set in the direction order and
// weight classes the unrolled bodies hard-code.
func isD3Q19(m *lattice.Model) bool {
	ref := lattice.D3Q19()
	if m.Q != ref.Q || len(m.C) != ref.Q || len(m.W) != ref.Q {
		return false
	}
	for q := range ref.C {
		if m.C[q] != ref.C[q] || m.W[q] != ref.W[q] {
			return false
		}
	}
	return true
}

// momentsD3Q19 is kernel.moments for one D3Q19 site's populations.
func momentsD3Q19(f []float64) (rho, ux, uy, uz float64) {
	f = f[:19:19]
	rho = f[0] + f[1] + f[2] + f[3] + f[4] + f[5] + f[6] + f[7] + f[8] + f[9] +
		f[10] + f[11] + f[12] + f[13] + f[14] + f[15] + f[16] + f[17] + f[18]
	ux = f[1] - f[2] + f[7] - f[8] + f[9] - f[10] + f[11] - f[12] + f[13] - f[14]
	uy = f[3] - f[4] + f[7] - f[8] - f[9] + f[10] + f[15] - f[16] + f[17] - f[18]
	uz = f[5] - f[6] + f[11] - f[12] - f[13] + f[14] + f[15] - f[16] - f[17] + f[18]
	if rho-rho != 0 {
		// A NaN or Inf population. The generic sum multiplies every
		// population by every velocity component, zeros included, so one
		// of them poisons all three components; the divergence
		// diagnostics (MaxSpeed, the snapshot scan) rely on that.
		nan := math.NaN()
		return rho, nan, nan, nan
	}
	if rho > 0 {
		ux /= rho
		uy /= rho
		uz /= rho
	}
	return
}

// stressD3Q19 is stressGeneric for one D3Q19 site: each tensor entry sums
// ±f_neq over the directions whose c_a c_b is non-zero, in index order.
func stressD3Q19(m *lattice.Model, f []float64, rho, ux, uy, uz float64) [3][3]float64 {
	f = f[:19:19]
	c15 := 1.5 * (ux*ux + uy*uy + uz*uz)
	wr1, wr2 := m.W[1]*rho, m.W[7]*rho
	e, eo := eqPair(wr1, ux, c15)
	n1, n2 := f[1]-e, f[2]-eo
	e, eo = eqPair(wr1, uy, c15)
	n3, n4 := f[3]-e, f[4]-eo
	e, eo = eqPair(wr1, uz, c15)
	n5, n6 := f[5]-e, f[6]-eo
	e, eo = eqPair(wr2, ux+uy, c15)
	n7, n8 := f[7]-e, f[8]-eo
	e, eo = eqPair(wr2, ux-uy, c15)
	n9, n10 := f[9]-e, f[10]-eo
	e, eo = eqPair(wr2, ux+uz, c15)
	n11, n12 := f[11]-e, f[12]-eo
	e, eo = eqPair(wr2, ux-uz, c15)
	n13, n14 := f[13]-e, f[14]-eo
	e, eo = eqPair(wr2, uy+uz, c15)
	n15, n16 := f[15]-e, f[16]-eo
	e, eo = eqPair(wr2, uy-uz, c15)
	n17, n18 := f[17]-e, f[18]-eo
	xy := n7 + n8 - n9 - n10
	xz := n11 + n12 - n13 - n14
	yz := n15 + n16 - n17 - n18
	return [3][3]float64{
		{n1 + n2 + n7 + n8 + n9 + n10 + n11 + n12 + n13 + n14, xy, xz},
		{xy, n3 + n4 + n7 + n8 + n9 + n10 + n15 + n16 + n17 + n18, yz},
		{xz, yz, n5 + n6 + n11 + n12 + n13 + n14 + n15 + n16 + n17 + n18},
	}
}

// eqPair returns the equilibrium of a direction with c·u = cu and of
// its opposite, given wr = w·ρ and c15 = 1.5 u².
func eqPair(wr, cu, c15 float64) (e, eo float64) {
	a := 3 * cu
	b := 4.5 * cu * cu
	return wr * (1 + a + b - c15), wr * (1 - a + b - c15)
}

// relaxTRT relaxes an opposite pair (populations fq, fo; equilibria eq,
// eo): the symmetric half with omP, the antisymmetric half with omM.
func relaxTRT(fq, fo, eq, eo, omP, omM float64) (float64, float64) {
	fp := 0.5 * (fq + fo)
	fm := 0.5 * (fq - fo)
	ep := 0.5 * (eq + eo)
	em := 0.5 * (eq - eo)
	fp -= omP * (fp - ep)
	fm -= omM * (fm - em)
	return fp + fm, fp - fm
}

// stepD3Q19BGK is stepTile for D3Q19 with the BGK operator.
func (k *kernel) stepD3Q19BGK(lo, hi int) {
	om := 1.0 / k.Tau
	w0, w1, w2 := k.M.W[0], k.M.W[1], k.M.W[7]
	fCur, fNew, stream := k.f, k.fNew, k.stream
	if lo >= hi {
		return
	}
	// The moments of site i+1 are computed before site i collides: the
	// density sum is an 18-add dependency chain (its order is the
	// contract), and issuing it one site early lets it overlap the
	// current site's arithmetic (≈ 13 % of the pass).
	nrho, nux, nuy, nuz := momentsD3Q19(fCur[lo*19 : lo*19+19])
	for i := lo; i < hi; i++ {
		base := i * 19
		f := fCur[base : base+19 : base+19]
		s := stream[base : base+19 : base+19]
		rho, ux, uy, uz := nrho, nux, nuy, nuz
		if i+1 < hi {
			nrho, nux, nuy, nuz = momentsD3Q19(fCur[base+19 : base+38])
		}
		u := [4]float64{ux, uy, uz, ux*ux + uy*uy + uz*uz}
		c15 := 1.5 * u[3]
		wr0, wr1, wr2 := w0*rho, w1*rho, w2*rho

		fNew[base] = f[0] - om*(f[0]-wr0*(1-c15))
		e, eo := eqPair(wr1, ux, c15)
		k.put(fNew, base, 1, s[1], f[1]-om*(f[1]-e), &u)
		k.put(fNew, base, 2, s[2], f[2]-om*(f[2]-eo), &u)
		e, eo = eqPair(wr1, uy, c15)
		k.put(fNew, base, 3, s[3], f[3]-om*(f[3]-e), &u)
		k.put(fNew, base, 4, s[4], f[4]-om*(f[4]-eo), &u)
		e, eo = eqPair(wr1, uz, c15)
		k.put(fNew, base, 5, s[5], f[5]-om*(f[5]-e), &u)
		k.put(fNew, base, 6, s[6], f[6]-om*(f[6]-eo), &u)
		e, eo = eqPair(wr2, ux+uy, c15)
		k.put(fNew, base, 7, s[7], f[7]-om*(f[7]-e), &u)
		k.put(fNew, base, 8, s[8], f[8]-om*(f[8]-eo), &u)
		e, eo = eqPair(wr2, ux-uy, c15)
		k.put(fNew, base, 9, s[9], f[9]-om*(f[9]-e), &u)
		k.put(fNew, base, 10, s[10], f[10]-om*(f[10]-eo), &u)
		e, eo = eqPair(wr2, ux+uz, c15)
		k.put(fNew, base, 11, s[11], f[11]-om*(f[11]-e), &u)
		k.put(fNew, base, 12, s[12], f[12]-om*(f[12]-eo), &u)
		e, eo = eqPair(wr2, ux-uz, c15)
		k.put(fNew, base, 13, s[13], f[13]-om*(f[13]-e), &u)
		k.put(fNew, base, 14, s[14], f[14]-om*(f[14]-eo), &u)
		e, eo = eqPair(wr2, uy+uz, c15)
		k.put(fNew, base, 15, s[15], f[15]-om*(f[15]-e), &u)
		k.put(fNew, base, 16, s[16], f[16]-om*(f[16]-eo), &u)
		e, eo = eqPair(wr2, uy-uz, c15)
		k.put(fNew, base, 17, s[17], f[17]-om*(f[17]-e), &u)
		k.put(fNew, base, 18, s[18], f[18]-om*(f[18]-eo), &u)
	}
}

// stepD3Q19TRT is stepTile for D3Q19 with the TRT operator: the rest
// population is purely symmetric, the nine opposite pairs relax their
// symmetric and antisymmetric halves separately.
func (k *kernel) stepD3Q19TRT(lo, hi int) {
	om := 1.0 / k.Tau
	omM := 1.0 / tauMinus(k.Tau)
	w0, w1, w2 := k.M.W[0], k.M.W[1], k.M.W[7]
	fCur, fNew, stream := k.f, k.fNew, k.stream
	if lo >= hi {
		return
	}
	// Moments run one site ahead, as in stepD3Q19BGK.
	nrho, nux, nuy, nuz := momentsD3Q19(fCur[lo*19 : lo*19+19])
	for i := lo; i < hi; i++ {
		base := i * 19
		f := fCur[base : base+19 : base+19]
		s := stream[base : base+19 : base+19]
		rho, ux, uy, uz := nrho, nux, nuy, nuz
		if i+1 < hi {
			nrho, nux, nuy, nuz = momentsD3Q19(fCur[base+19 : base+38])
		}
		u := [4]float64{ux, uy, uz, ux*ux + uy*uy + uz*uz}
		c15 := 1.5 * u[3]
		wr0, wr1, wr2 := w0*rho, w1*rho, w2*rho

		fNew[base] = f[0] - om*(f[0]-wr0*(1-c15))
		e, eo := eqPair(wr1, ux, c15)
		p, po := relaxTRT(f[1], f[2], e, eo, om, omM)
		k.put(fNew, base, 1, s[1], p, &u)
		k.put(fNew, base, 2, s[2], po, &u)
		e, eo = eqPair(wr1, uy, c15)
		p, po = relaxTRT(f[3], f[4], e, eo, om, omM)
		k.put(fNew, base, 3, s[3], p, &u)
		k.put(fNew, base, 4, s[4], po, &u)
		e, eo = eqPair(wr1, uz, c15)
		p, po = relaxTRT(f[5], f[6], e, eo, om, omM)
		k.put(fNew, base, 5, s[5], p, &u)
		k.put(fNew, base, 6, s[6], po, &u)
		e, eo = eqPair(wr2, ux+uy, c15)
		p, po = relaxTRT(f[7], f[8], e, eo, om, omM)
		k.put(fNew, base, 7, s[7], p, &u)
		k.put(fNew, base, 8, s[8], po, &u)
		e, eo = eqPair(wr2, ux-uy, c15)
		p, po = relaxTRT(f[9], f[10], e, eo, om, omM)
		k.put(fNew, base, 9, s[9], p, &u)
		k.put(fNew, base, 10, s[10], po, &u)
		e, eo = eqPair(wr2, ux+uz, c15)
		p, po = relaxTRT(f[11], f[12], e, eo, om, omM)
		k.put(fNew, base, 11, s[11], p, &u)
		k.put(fNew, base, 12, s[12], po, &u)
		e, eo = eqPair(wr2, ux-uz, c15)
		p, po = relaxTRT(f[13], f[14], e, eo, om, omM)
		k.put(fNew, base, 13, s[13], p, &u)
		k.put(fNew, base, 14, s[14], po, &u)
		e, eo = eqPair(wr2, uy+uz, c15)
		p, po = relaxTRT(f[15], f[16], e, eo, om, omM)
		k.put(fNew, base, 15, s[15], p, &u)
		k.put(fNew, base, 16, s[16], po, &u)
		e, eo = eqPair(wr2, uy-uz, c15)
		p, po = relaxTRT(f[17], f[18], e, eo, om, omM)
		k.put(fNew, base, 17, s[17], p, &u)
		k.put(fNew, base, 18, s[18], po, &u)
	}
}

// put streams post-collision population p of direction q out of the
// site at flat offset base: a store for fluid and wall links, the
// boundary path otherwise.
func (k *kernel) put(fNew []float64, base, q int, dst int32, p float64, u *[4]float64) {
	if dst >= 0 {
		fNew[dst] = p
		return
	}
	k.boundaryLink(base, q, dst, p, u)
}
