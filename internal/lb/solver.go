// Package lb implements the HemeLB-style sparse-geometry
// lattice-Boltzmann solver: BGK or TRT collision on a D3Q19 (or D3Q15)
// lattice, indirect addressing over fluid sites only, halfway
// bounce-back walls and pressure (anti-bounce-back equilibrium)
// in/outlets, with the macroscopic observables the paper's
// post-processing consumes (density, velocity, wall shear stress).
//
// There is one kernel (kernel.go): it owns a rank's populations and
// iolet state, and holds the only collide+stream loop. What it
// steps along — the stream table, the ownership maps, the halo slots —
// is a plan (plan.go), built once per Domain and shared read-only.
// Solver (this file) is a kernel over the whole domain plus the serial
// diagnostics; Dist (dist.go) is a kernel over the sites one rank of a
// par communicator owns plus the halo exchange and the gathers. A Dist
// gathers its full state into a CheckpointState and restores from one
// bit-exactly, at any rank count (checkpoint.go); the on-disk binary
// format is specified in docs/CHECKPOINT_FORMAT.md.
package lb

import (
	"fmt"
	"math"

	"repro/internal/geometry"
)

// Params configures a solver.
type Params struct {
	// Tau is the (symmetric) relaxation time; kinematic viscosity is
	// cs²(Tau - 1/2) in lattice units. Must exceed 0.5 for stability.
	Tau float64
	// InitialRho is the initial uniform density (default 1).
	InitialRho float64
	// Kind selects the collision operator (default BGK; TRT fixes the
	// bounce-back wall location independently of viscosity).
	Kind Collision
	// Threads caps how many participants (the stepping goroutine, then
	// guard's shared helpers) claim the collide+stream pass's site
	// parcels (0 or 1 = serial); a pass too small to feed them takes
	// fewer (Participants). Results are bit-identical for any value:
	// sites update independently from their own populations into
	// disjoint slots, so parcels change scheduling, never arithmetic.
	//
	// The zero value is serial here, unlike core.Config.Threads, whose
	// zero means GOMAXPROCS: the benchmark's replay builds Solvers and
	// Dists with Params{Tau} as its serial baseline, and a different
	// lb zero value would silently redefine those figures.
	Threads int
}

func (p Params) validate() error {
	if p.Tau <= 0.5 {
		return fmt.Errorf("lb: tau must exceed 0.5, got %g", p.Tau)
	}
	if p.Threads < 0 {
		return fmt.Errorf("lb: threads must be non-negative, got %d", p.Threads)
	}
	return nil
}

// workers normalises the thread knob: 0 and 1 both mean serial.
func (p Params) workers() int {
	if p.Threads < 1 {
		return 1
	}
	return p.Threads
}

func (p Params) initialRho() float64 {
	if p.InitialRho == 0 {
		return 1
	}
	return p.InitialRho
}

// Solver advances the lattice-Boltzmann equation on every fluid site of
// a voxelised domain in one address space: a kernel whose local site
// index is the global site id, plus the serial diagnostics.
type Solver struct {
	*kernel
	Dom *geometry.Domain

	// diverged latches that a diagnostic observed a non-finite
	// velocity — a blown-up simulation must report loudly, not mask
	// NaN behind a reassuring low max speed.
	diverged bool
}

// New builds a solver over dom.
func New(dom *geometry.Domain, p Params) (*Solver, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	pl, _, err := wholePlan(dom) // no link leaves the rank
	if err != nil {
		return nil, err
	}
	return &Solver{kernel: newKernel(dom, p, pl), Dom: dom}, nil
}

// InitEquilibrium sets every site to the zero-velocity equilibrium at
// density rho.
func (s *Solver) InitEquilibrium(rho float64) {
	s.kernel.InitEquilibrium(rho)
	s.diverged = false
}

// NumSites returns the number of fluid sites.
func (s *Solver) NumSites() int { return s.n }

// IoletDensity returns the imposed (base) density of iolet k.
func (s *Solver) IoletDensity(k int) float64 { return s.ioletRho[k] }

// Advance runs nSteps of collide-and-stream.
func (s *Solver) Advance(nSteps int) {
	for k := 0; k < nSteps; k++ {
		s.collideStream()
		s.swap()
	}
}

// CollideStreamLocal performs one fused collide+stream pass over all
// sites into the staging buffer and counts the step; Swap publishes it.
// Advance is the two in a loop — the split exists for callers that
// time or inspect the pass on its own.
func (s *Solver) CollideStreamLocal() { s.collideStream() }

// Swap publishes the staging buffer as the current distribution set.
func (s *Solver) Swap() { s.swap() }

// F returns the current population vector (site-major, length n*Q).
// The in situ layer reads it zero-copy; callers must not mutate it.
func (s *Solver) F() []float64 { return s.f }

// FNew returns the staging buffer CollideStreamLocal writes.
func (s *Solver) FNew() []float64 { return s.fNew }

// TotalMass returns the sum of density over all sites — exactly
// conserved by collide + bounce-back in a closed (iolet-free) domain.
func (s *Solver) TotalMass() float64 {
	total := 0.0
	for _, v := range s.f {
		total += v
	}
	return total
}

// Viscosity returns the kinematic viscosity in lattice units.
func (s *Solver) Viscosity() float64 { return s.M.Cs2 * (s.Tau - 0.5) }

// MaxSpeed returns the maximum velocity magnitude over all sites, a
// stability diagnostic (should stay well below cs ≈ 0.577). A blown-up
// simulation produces NaN velocities, and `v > maxV` is false for NaN —
// so any non-finite site speed makes MaxSpeed return NaN and latches
// the Diverged flag instead of hiding behind a reassuring low maximum.
func (s *Solver) MaxSpeed() float64 {
	maxV := 0.0
	for i := 0; i < s.n; i++ {
		_, ux, uy, uz := s.moments(i)
		v2 := ux*ux + uy*uy + uz*uz
		if math.IsNaN(v2) || math.IsInf(v2, 0) {
			s.diverged = true
			return math.NaN()
		}
		if v2 > maxV {
			maxV = v2
		}
	}
	return math.Sqrt(maxV)
}

// Diverged reports whether a diagnostic has observed a non-finite
// velocity since the last InitEquilibrium.
func (s *Solver) Diverged() bool { return s.diverged }

// WallShearStress estimates the wall shear stress magnitude at site i
// (0 for non-wall sites).
func (s *Solver) WallShearStress(i int) float64 {
	_, _, _, _, wss := s.fields(i, &s.Dom.Sites[i])
	return wss
}

// Fields extracts the macroscopic fields for all sites into the given
// slices (allocated when nil): density, velocity components and wall
// shear stress. Returns the slices for chaining. This is the solver
// half of the in situ "extract" stage.
func (s *Solver) Fields(rho, ux, uy, uz, wss []float64) (r, x, y, z, w []float64) {
	orNew := func(v []float64) []float64 {
		if v == nil {
			return make([]float64, s.n)
		}
		return v
	}
	rho, ux, uy, uz, wss = orNew(rho), orNew(ux), orNew(uy), orNew(uz), orNew(wss)
	for i := 0; i < s.n; i++ {
		rho[i], ux[i], uy[i], uz[i], wss[i] = s.fields(i, &s.Dom.Sites[i])
	}
	return rho, ux, uy, uz, wss
}
