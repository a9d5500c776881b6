package lb

import (
	"fmt"

	"repro/internal/lattice"
)

// Collision selects the collision operator. HemeLB ships several
// kernels; we provide the two standard single-node ones.
type Collision int

const (
	// BGK is the single-relaxation-time LBGK operator of Qian et al.
	// (the paper's Fig. 1 reference model).
	BGK Collision = iota
	// TRT is the two-relaxation-time operator: the antisymmetric mode
	// relaxes with a rate tied to the symmetric one through the "magic
	// parameter" Λ = 3/16, which places the bounce-back wall exactly
	// halfway between lattice sites independently of viscosity —
	// HemeLB's preferred kernel for wall-accuracy-sensitive
	// haemodynamics.
	TRT
)

// String implements fmt.Stringer.
func (c Collision) String() string {
	switch c {
	case BGK:
		return "BGK"
	case TRT:
		return "TRT"
	}
	return fmt.Sprintf("collision(%d)", int(c))
}

// magicLambda is the TRT magic parameter fixing the wall location.
const magicLambda = 3.0 / 16.0

// tauMinus returns the antisymmetric relaxation time for a given
// symmetric (viscous) relaxation time under the magic parameter.
func tauMinus(tauPlus float64) float64 {
	return 0.5 + magicLambda/(tauPlus-0.5)
}

// collideSite relaxes the Q populations f of one site in place given
// the precomputed moments. feqBuf must have length Q; it is scratch
// space.
//
// BGK:  f' = f - (f - feq)/tau
// TRT:  split f and feq into symmetric/antisymmetric parts over
//
//	opposite-direction pairs and relax each with its own rate.
func collideSite(kind Collision, m *lattice.Model, f []float64, rho, ux, uy, uz, invTauPlus, invTauMinus float64, feqBuf []float64) {
	u2 := ux*ux + uy*uy + uz*uz
	for q := 0; q < m.Q; q++ {
		c := m.C[q]
		cu := ux*float64(c[0]) + uy*float64(c[1]) + uz*float64(c[2])
		feqBuf[q] = feq(m.W[q], rho, cu, u2)
	}
	if kind == BGK {
		for q := 0; q < m.Q; q++ {
			f[q] -= invTauPlus * (f[q] - feqBuf[q])
		}
		return
	}
	// TRT: process pairs (q, opp) once; the rest population is purely
	// symmetric.
	f[0] -= invTauPlus * (f[0] - feqBuf[0])
	for q := 1; q < m.Q; q++ {
		qo := m.Opp[q]
		if qo < q {
			continue // pair already handled
		}
		fp := 0.5 * (f[q] + f[qo])
		fm := 0.5 * (f[q] - f[qo])
		ep := 0.5 * (feqBuf[q] + feqBuf[qo])
		em := 0.5 * (feqBuf[q] - feqBuf[qo])
		fp -= invTauPlus * (fp - ep)
		fm -= invTauMinus * (fm - em)
		f[q] = fp + fm
		f[qo] = fp - fm
	}
}
