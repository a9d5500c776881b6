package viz

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/par"
	"repro/internal/vec"
)

// Tracer advects massless particles through the evolving flow, one
// visualisation step at a time, recording trails. Because the field is
// re-read every step, the recorded trails are pathlines; with periodic
// re-release from fixed emitters the fronts form streak-lines — the
// paper's named observables for unsteady hemodynamics. The same
// machinery is Table I's "particle tracing" column.
type Tracer struct {
	// Emitters re-release particles every ReleaseEvery steps.
	Emitters     []vec.V3
	ReleaseEvery int
	// MaxParticles caps memory; oldest particles are dropped first.
	MaxParticles int
	// Dt is the advection step per Step call.
	Dt float64
	// TrailLen bounds the recorded trail per particle (pathline length).
	TrailLen int

	particles []tracerParticle
	steps     int
	nextID    int
}

type tracerParticle struct {
	id      int
	emitter int
	birth   int
	trail   []vec.V3 // most recent last
	dead    bool
}

// NewTracer builds a tracer with sensible defaults.
func NewTracer(emitters []vec.V3, releaseEvery int) *Tracer {
	if releaseEvery <= 0 {
		releaseEvery = 1
	}
	return &Tracer{
		Emitters:     emitters,
		ReleaseEvery: releaseEvery,
		MaxParticles: 4096,
		Dt:           1,
		TrailLen:     64,
	}
}

// NumParticles returns the count of live particles.
func (tr *Tracer) NumParticles() int {
	n := 0
	for _, p := range tr.particles {
		if !p.dead {
			n++
		}
	}
	return n
}

// Step releases new particles if due and advects all live particles
// through the current field snapshot.
func (tr *Tracer) Step(f *field.Field) error {
	if err := f.Validate(); err != nil {
		return err
	}
	if tr.steps%tr.ReleaseEvery == 0 {
		for ei, e := range tr.Emitters {
			tr.particles = append(tr.particles, tracerParticle{
				id:      tr.nextID,
				emitter: ei,
				birth:   tr.steps,
				trail:   []vec.V3{e},
			})
			tr.nextID++
		}
		if len(tr.particles) > tr.MaxParticles {
			tr.particles = tr.particles[len(tr.particles)-tr.MaxParticles:]
		}
	}
	for i := range tr.particles {
		p := &tr.particles[i]
		if p.dead {
			continue
		}
		cur := p.trail[len(p.trail)-1]
		next, ok := rk4Step(f, cur, tr.Dt)
		if !ok {
			p.dead = true
			continue
		}
		p.trail = append(p.trail, next)
		if len(p.trail) > tr.TrailLen {
			p.trail = p.trail[len(p.trail)-tr.TrailLen:]
		}
	}
	tr.steps++
	return nil
}

// Pathlines returns the recorded trails (one per particle).
func (tr *Tracer) Pathlines() []Polyline {
	out := make([]Polyline, 0, len(tr.particles))
	for _, p := range tr.particles {
		if len(p.trail) < 2 {
			continue
		}
		pl := Polyline{Points: append([]vec.V3(nil), p.trail...)}
		pl.Speed = make([]float64, len(pl.Points))
		for i := 1; i < len(pl.Points); i++ {
			pl.Speed[i] = pl.Points[i].Dist(pl.Points[i-1]) / tr.Dt
		}
		out = append(out, pl)
	}
	return out
}

// Streaklines connects, for each emitter, the current positions of all
// its particles ordered by release time — the curve a dye filament
// would form.
func (tr *Tracer) Streaklines() []Polyline {
	byEmitter := make(map[int][]tracerParticle)
	for _, p := range tr.particles {
		if p.dead || len(p.trail) == 0 {
			continue
		}
		byEmitter[p.emitter] = append(byEmitter[p.emitter], p)
	}
	out := make([]Polyline, 0, len(byEmitter))
	for e := 0; e < len(tr.Emitters); e++ {
		ps := byEmitter[e]
		if len(ps) < 2 {
			continue
		}
		// Particles were appended in release order; newest last. A
		// streakline runs from the newest (at the emitter) to the
		// oldest (furthest downstream).
		pl := Polyline{}
		for i := len(ps) - 1; i >= 0; i-- {
			pl.Points = append(pl.Points, ps[i].trail[len(ps[i].trail)-1])
		}
		pl.Speed = make([]float64, len(pl.Points))
		out = append(out, pl)
	}
	return out
}

// DistTracer advects particles over a domain-decomposed field with
// per-step migration: every rank advances the particles currently in
// its subdomain, then particles that crossed are exchanged. Its
// communication volume (migrations × state size, every step) is the
// Table I "particle tracing / high" measurement.
type DistTracer struct {
	Comm  *par.Comm
	Field *field.Field
	Parts []int32
	Dt    float64

	// live particles on this rank: position + id.
	local []distParticle
	next  int
}

type distParticle struct {
	id int
	p  vec.V3
}

// NewDistTracer builds a distributed tracer; seeds are assigned to
// their owning ranks.
func NewDistTracer(comm *par.Comm, f *field.Field, parts []int32, seeds []vec.V3, dt float64) (*DistTracer, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	if dt <= 0 {
		return nil, fmt.Errorf("viz: dt must be positive")
	}
	dt64 := dt
	t := &DistTracer{Comm: comm, Field: f, Parts: parts, Dt: dt64}
	for i, s := range seeds {
		if t.ownerOf(s) == comm.Rank() {
			t.local = append(t.local, distParticle{id: i, p: s})
		}
	}
	t.next = len(seeds)
	return t, nil
}

func (t *DistTracer) ownerOf(p vec.V3) int {
	ip := vec.Floor(p.Add(vec.Splat(0.5)))
	id := t.Field.Dom.SiteAt(ip)
	if id < 0 {
		return -1
	}
	return int(t.Parts[id])
}

// Step advances all particles once and migrates boundary crossers.
// Returns the number of particles this rank sent away.
func (t *DistTracer) Step() int {
	me := t.Comm.Rank()
	outgoing := make([][]float64, t.Comm.Size())
	kept := t.local[:0]
	for _, p := range t.local {
		next, ok := rk4Step(t.Field, p.p, t.Dt)
		if !ok {
			// RK4 stage points touched unowned or solid sites. If a
			// cheap Euler probe lands in another rank's subdomain the
			// particle migrates; otherwise it left the fluid and dies.
			if o, ok2 := probeCross(t.Field, t.Parts, p.p, t.Dt); ok2 && o >= 0 && o != me {
				outgoing[o] = append(outgoing[o], float64(p.id), p.p.X, p.p.Y, p.p.Z)
			}
			continue
		}
		p.p = next
		o := t.ownerOf(next)
		switch {
		case o == me:
			kept = append(kept, p)
		case o >= 0:
			outgoing[o] = append(outgoing[o], float64(p.id), p.p.X, p.p.Y, p.p.Z)
		}
	}
	t.local = kept
	sent := 0
	for _, o := range outgoing {
		sent += len(o) / 4
	}
	incoming := t.Comm.Alltoall(outgoing)
	for _, data := range incoming {
		for i := 0; i+4 <= len(data); i += 4 {
			t.local = append(t.local, distParticle{
				id: int(data[i]),
				p:  vec.New(data[i+1], data[i+2], data[i+3]),
			})
		}
	}
	return sent
}
