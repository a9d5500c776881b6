package lb

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/geometry"
	"repro/internal/guard"
	"repro/internal/lattice"
)

// Streaming targets are encoded in the stream table: values >= 0 are
// flat destination indices into fNew — the neighbour's slot for a fluid
// link, the source site's own opposite slot for a wall link (halfway
// bounce-back is just another destination). Negative values are the
// rare links that need more than a store: iolet links occupy
// (streamCrossBase, 0); entries <= streamCrossBase are cross-rank
// links, slot (streamCrossBase - value) of the packed send buffer. A
// serial Solver has no cross-rank links, so its table never holds one.
const (
	encodeIolet     = -1 // -(1+k) = anti-bounce-back against iolet k
	streamCrossBase = int32(-(1 << 20))
)

// parcelSites is how many sites one claim of a threaded pass steps:
// the granularity of the checkpoint's dirty-tile map.
const parcelSites = DefaultDeltaTileSites

// minParcelsPerParticipant is how many parcels a pass must hold for
// each participant stepping it, so below twice this a pass stays
// serial. Jobs stepped through hemeserved on a 2-core host, with a
// client polling their state every millisecond, ran 0.90-1.02x as fast
// split in two as serial on domains of 40-93 parcels, and 1.01-1.33x
// on 105-312. In-process, with no client beside it, a split paid from
// ~20 parcels; in the daemon a participant the OS preempts mid-parcel
// stalls the whole pass, so its passes need more work to amortise.
const minParcelsPerParticipant = 50

// Participants returns how many participants step a pass over sites
// local sites under a cap of threads (0 or 1 = serial): one per
// minParcelsPerParticipant parcels, at least one, and no more than the
// cap or GOMAXPROCS. A kernel derives its count this way once, from
// its own site count.
func Participants(sites, threads int) int {
	parcels := (sites + parcelSites - 1) / parcelSites
	return max(1, min(threads, runtime.GOMAXPROCS(0), parcels/minParcelsPerParticipant))
}

// kernelScratch is one participant's private collision scratch (the
// post-collision copy and the equilibrium buffer). Sharing these
// across participants would be a data race; every slot of a threaded
// pass owns its own pair.
type kernelScratch struct {
	post, feqBuf []float64
}

// kernel is one rank's lattice-Boltzmann state and the only
// collide+stream loop in the repository: a shared, immutable plan (the
// sites, the stream table, the halo slots — see plan.go) plus the
// mutable state stepping it. Solver is a kernel on the whole-domain
// plan; Dist is one on the plan of the sites its rank owns and adds the
// halo exchange. Populations are stored site-major: f[i*Q+q] with i the
// local site index.
type kernel struct {
	*plan
	M    *lattice.Model
	Tau  float64
	Kind Collision
	// d3q19 selects the unrolled bodies of kernel_d3q19.go; false (any
	// other velocity set) runs the generic-Q loops, which are also the
	// oracle the unrolled ones are tested against.
	d3q19 bool

	f    []float64 // current populations
	fNew []float64 // streamed populations for the next step
	// sendBuf receives the populations leaving this rank, one
	// pre-assigned slot per cross-rank link (empty for a Solver).
	sendBuf []float64

	// ioletRho[k] is the imposed boundary density of iolet k,
	// adjustable at runtime by the steering layer; pulses holds optional
	// sinusoidal modulation per iolet (nil entries = steady). rhoIo is
	// the per-step effective density buffer and scratch one private pair
	// per participant slot — both exist so steady-state stepping
	// allocates nothing.
	ioletRho []float64
	pulses   []*Pulse
	rhoIo    []float64
	scratch  []kernelScratch
	// threads is the cap the kernel was built with (1 = serial);
	// workers is how many participants its passes take, Participants
	// of its site count under that cap. With more than one, a pass
	// claims parcelSites-site parcels through parcels, calling the kept
	// method value stepFn, so a pass allocates nothing.
	threads int
	workers int
	parcels guard.Parcels
	stepFn  func(slot, i int)

	step int
}

// newKernel allocates the state that steps pl on dom, at the initial
// equilibrium; its populations are the process's spare pair when that
// has exactly their size (spare.go). p must already be validated.
func newKernel(dom *geometry.Domain, p Params, pl *plan) *kernel {
	m := dom.Model
	f, fNew := takeSpare(pl.n * m.Q)
	if f == nil {
		f, fNew = make([]float64, pl.n*m.Q), make([]float64, pl.n*m.Q)
	}
	k := &kernel{
		plan:     pl,
		M:        m,
		Tau:      p.Tau,
		Kind:     p.Kind,
		d3q19:    isD3Q19(m),
		f:        f,
		fNew:     fNew,
		sendBuf:  make([]float64, pl.sendOff[len(pl.sendOff)-1]),
		ioletRho: make([]float64, len(dom.Iolets)),
		pulses:   make([]*Pulse, len(dom.Iolets)),
		rhoIo:    make([]float64, len(dom.Iolets)),
		threads:  p.workers(),
	}
	k.setWorkers(Participants(pl.n, k.threads))
	k.stepFn = k.stepParcel
	for i, io := range dom.Iolets {
		k.ioletRho[i] = 1 + io.Pressure
	}
	k.InitEquilibrium(p.initialRho())
	return k
}

// setWorkers makes every pass take n participants (at least one),
// each with its own scratch. newKernel passes Participants of the
// kernel's sites; the parcel-path tests pin their thread count
// instead, since their domains are far below the floor.
func (k *kernel) setWorkers(n int) {
	k.workers = max(n, 1)
	k.scratch = make([]kernelScratch, k.workers)
	for w := range k.scratch {
		k.scratch[w] = kernelScratch{post: make([]float64, k.M.Q), feqBuf: make([]float64, k.M.Q)}
	}
}

// InitEquilibrium sets every local site to the zero-velocity
// equilibrium at density rho and rewinds the step counter. Every site
// is the same Q values, so site 0 is filled and the kernel's workers
// copy it across their parcels: a threaded kernel's first touch of f
// is spread over the cores, and one with a single participant fills
// serially.
func (k *kernel) InitEquilibrium(rho float64) {
	q := k.M.Q
	if k.n > 0 {
		for d := 0; d < q; d++ {
			k.f[d] = rho * k.M.W[d]
		}
		site := k.f[:q]
		guard.ForChunks((k.n+parcelSites-1)/parcelSites, k.workers, func(i int) {
			part := k.f[i*parcelSites*q : min((i+1)*parcelSites, k.n)*q]
			if i > 0 { // parcel 0 starts with site itself, which the others read
				copy(part, site)
			}
			// Double the filled prefix of the parcel.
			for done := q; done < len(part); done *= 2 {
				copy(part[done:], part[:done])
			}
		})
	}
	k.step = 0
}

// StepCount returns the number of completed time steps.
func (k *kernel) StepCount() int { return k.step }

// SetIoletDensity overrides the imposed density of iolet i (steering
// hook: "change simulation parameters mid-run"). On a Dist, steering
// calls it on every rank.
func (k *kernel) SetIoletDensity(i int, rho float64) error {
	if i < 0 || i >= len(k.ioletRho) {
		return fmt.Errorf("lb: iolet %d out of range [0,%d)", i, len(k.ioletRho))
	}
	k.ioletRho[i] = rho
	return nil
}

// SetPulse attaches a sinusoidal modulation to iolet i (nil removes
// it). On a Dist, all ranks must call it identically.
func (k *kernel) SetPulse(i int, p *Pulse) error {
	if i < 0 || i >= len(k.pulses) {
		return fmt.Errorf("lb: iolet %d out of range [0,%d)", i, len(k.pulses))
	}
	if p != nil && p.Period <= 0 {
		return fmt.Errorf("lb: pulse period must be positive, got %g", p.Period)
	}
	k.pulses[i] = p
	return nil
}

// feq computes the equilibrium for one direction given density rho;
// cu = c·u, u2 = u·u.
func feq(w, rho, cu, u2 float64) float64 {
	return w * rho * (1 + 3*cu + 4.5*cu*cu - 1.5*u2)
}

// feqSym is the symmetric (even-in-c) part of the equilibrium, used by
// the anti-bounce-back pressure boundary.
func feqSym(w, rho, cu, u2 float64) float64 {
	return w * rho * (1 + 4.5*cu*cu - 1.5*u2)
}

// collideStream performs one fused collide+stream pass over all local
// sites, writing into fNew (and sendBuf), and counts the step. Callers
// deposit any halo populations into fNew and then swap. A kernel with
// more than one participant claims the pass's site parcels on that
// many; results are bit-identical to the serial pass for any count.
func (k *kernel) collideStream() {
	// Iolet densities for this step, including pulses — computed once
	// before any parcel runs, so every participant reads the same
	// immutable values.
	for i := range k.rhoIo {
		k.rhoIo[i] = effectiveIoletRho(k.ioletRho[i], k.pulses[i], k.step)
	}
	if k.workers > 1 {
		k.parcels.Run((k.n+parcelSites-1)/parcelSites, k.workers, k.stepFn)
	} else {
		k.stepTile(0, 0, k.n)
	}
	k.step++
}

// stepParcel steps site parcel i of a threaded pass with slot's scratch.
func (k *kernel) stepParcel(slot, i int) {
	lo := i * parcelSites
	k.stepTile(slot, lo, min(lo+parcelSites, k.n))
}

// swap publishes fNew as the current distribution set.
func (k *kernel) swap() { k.f, k.fNew = k.fNew, k.f }

// stepTile runs the fused collide+stream pass over local sites
// [lo, hi) using slot w's private scratch. Every write — fNew fluid
// destinations, wall/iolet bounces into the source site's own opposite
// slot, pre-assigned sendBuf slots for cross-rank links — is disjoint
// per (source site, direction), so parcels need no locks.
//
// The floating-point operation order per site is a contract: the
// golden state hashes (golden_test.go) and every stored checkpoint
// depend on it. D3Q19 — every job the daemon runs — takes the unrolled
// bodies, which keep that order; the generic loop serves any other
// velocity set and is the oracle they are tested against.
func (k *kernel) stepTile(w, lo, hi int) {
	switch {
	case !k.d3q19:
		k.stepGeneric(w, lo, hi)
	case k.Kind == BGK:
		k.stepD3Q19BGK(lo, hi)
	default:
		k.stepD3Q19TRT(lo, hi)
	}
}

// stepGeneric is stepTile for any velocity set, and the oracle the
// unrolled bodies are tested against.
func (k *kernel) stepGeneric(w, lo, hi int) {
	m := k.M
	Q := m.Q
	invTauPlus := 1.0 / k.Tau
	invTauMinus := 1.0 / tauMinus(k.Tau)
	sc := &k.scratch[w]
	for i := lo; i < hi; i++ {
		base := i * Q
		rho, ux, uy, uz := momentsGeneric(m, k.f[base:base+Q])
		u := [4]float64{ux, uy, uz, ux*ux + uy*uy + uz*uz}
		copy(sc.post, k.f[base:base+Q])
		collideSite(k.Kind, m, sc.post, rho, ux, uy, uz, invTauPlus, invTauMinus, sc.feqBuf)
		for q, p := range sc.post {
			if dst := k.stream[base+q]; dst >= 0 {
				k.fNew[dst] = p
			} else {
				k.boundaryLink(base, q, dst, p, &u)
			}
		}
	}
}

// boundaryLink streams post-collision population p of direction q out
// of the site at flat offset base through a link that is not a plain
// store (dst < 0); u is the site's (ux, uy, uz, u·u). A cross-rank link
// fills its send slot. An iolet link applies the anti-bounce-back
// pressure condition f'(opp) = -f*(q) + 2 w_q rho_io (1 + 4.5 (c·u)² -
// 1.5 u²), which imposes the iolet density while letting momentum leave
// the domain. Never inlined: it is the cold path of every step body,
// and inlining it would push their hot store out of the inliner's
// budget.
//
//go:noinline
func (k *kernel) boundaryLink(base, q int, dst int32, p float64, u *[4]float64) {
	if dst <= streamCrossBase {
		k.sendBuf[streamCrossBase-dst] = p
		return
	}
	m := k.M
	io := int(encodeIolet - dst)
	c := &m.C[q]
	cu := u[0]*float64(c[0]) + u[1]*float64(c[1]) + u[2]*float64(c[2])
	k.fNew[base+m.Opp[q]] = -p + 2*feqSym(m.W[q], k.rhoIo[io], cu, u[3])
}

// Threads returns the cap on a pass's participants (1 = serial).
func (k *kernel) Threads() int { return k.threads }

// Close is a no-op kept for callers that pair every solver with a Close:
// threaded passes run on guard's shared helpers, not on a solver's own.
func (s *Solver) Close() {}

// Close is a no-op, as Solver.Close is.
func (d *Dist) Close() {}

// moments computes density and velocity at local site i from its
// current populations.
func (k *kernel) moments(i int) (rho, ux, uy, uz float64) {
	Q := k.M.Q
	f := k.f[i*Q : (i+1)*Q]
	if k.d3q19 {
		return momentsD3Q19(f)
	}
	return momentsGeneric(k.M, f)
}

// momentsGeneric is moments for one site's populations f under any
// velocity set.
func momentsGeneric(m *lattice.Model, f []float64) (rho, ux, uy, uz float64) {
	for q, v := range f {
		rho += v
		c := &m.C[q]
		ux += v * float64(c[0])
		uy += v * float64(c[1])
		uz += v * float64(c[2])
	}
	if rho > 0 {
		ux /= rho
		uy /= rho
		uz /= rho
	}
	return
}

// Density returns the density at local site i.
func (k *kernel) Density(i int) float64 {
	rho, _, _, _ := k.moments(i)
	return rho
}

// Velocity returns the velocity at local site i.
func (k *kernel) Velocity(i int) (ux, uy, uz float64) {
	_, ux, uy, uz = k.moments(i)
	return
}

// fields returns every macroscopic observable of local site i, whose
// geometry record is site, from one moment pass: density, velocity and
// the wall shear stress magnitude (0 off walls — the non-equilibrium
// tensor is meaningless, and wasted work, there).
//
// WSS comes from the non-equilibrium momentum flux tensor:
// sigma_ab = -(1 - 1/(2 tau)) sum_q c_qa c_qb f_neq. The traction
// t = sigma·n is decomposed against the wall normal and the tangential
// component's magnitude is returned. This is the physiological
// observable ("wall stress distributions") the paper lists as a
// primary post-processing target.
func (k *kernel) fields(i int, site *geometry.Site) (rho, ux, uy, uz, wss float64) {
	rho, ux, uy, uz = k.moments(i)
	if site.Flags&geometry.FlagWall == 0 {
		return
	}
	m := k.M
	f := k.f[i*m.Q : (i+1)*m.Q]
	var sigma [3][3]float64
	if k.d3q19 {
		sigma = stressD3Q19(m, f, rho, ux, uy, uz)
	} else {
		sigma = stressGeneric(m, f, rho, ux, uy, uz)
	}
	factor := -(1 - 1/(2*k.Tau))
	nrm := [3]float64{site.WallNormal.X, site.WallNormal.Y, site.WallNormal.Z}
	var traction [3]float64
	for a := 0; a < 3; a++ {
		for b := 0; b < 3; b++ {
			traction[a] += factor * sigma[a][b] * nrm[b]
		}
	}
	// Remove the normal component.
	tn := traction[0]*nrm[0] + traction[1]*nrm[1] + traction[2]*nrm[2]
	var tang [3]float64
	for a := 0; a < 3; a++ {
		tang[a] = traction[a] - tn*nrm[a]
	}
	wss = math.Sqrt(tang[0]*tang[0] + tang[1]*tang[1] + tang[2]*tang[2])
	return
}

// stressGeneric returns Σ_q c_qa c_qb (f_q - feq_q) for one site's
// populations f and moments under any velocity set.
func stressGeneric(m *lattice.Model, f []float64, rho, ux, uy, uz float64) (sigma [3][3]float64) {
	u2 := ux*ux + uy*uy + uz*uz
	for q, v := range f {
		c := &m.C[q]
		cu := ux*float64(c[0]) + uy*float64(c[1]) + uz*float64(c[2])
		fneq := v - feq(m.W[q], rho, cu, u2)
		for a := 0; a < 3; a++ {
			for b := 0; b < 3; b++ {
				sigma[a][b] += float64(c[a]) * float64(c[b]) * fneq
			}
		}
	}
	return sigma
}

// checkShape rejects a checkpoint taken on a different domain: sites is
// the global site count this kernel's domain has.
func (k *kernel) checkShape(ci CheckpointInfo, sites int) error {
	if ci.Sites != sites || ci.Q != k.M.Q {
		return fmt.Errorf("lb: checkpoint is for %d sites Q=%d, domain has %d Q=%d", ci.Sites, ci.Q, sites, k.M.Q)
	}
	if ci.Iolets != len(k.ioletRho) {
		return fmt.Errorf("lb: checkpoint has %d iolets, domain has %d", ci.Iolets, len(k.ioletRho))
	}
	return nil
}
