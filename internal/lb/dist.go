package lb

import (
	"fmt"
	"sync/atomic"

	"repro/internal/geometry"
	"repro/internal/par"
	"repro/internal/partition"
)

// tagHalo is the message tag used for population exchange.
const tagHalo = par.TagUser + 101

// Dist runs the sparse LBM solver distributed over the ranks of a par
// communicator according to a partition: rank r owns the sites with
// Parts[site] == r. It is a kernel on the rank's plan (ownership maps,
// stream table, halo slots) plus what distribution adds at run time:
// the halo exchange and the gathers. Each step is the kernel's
// collide+stream on owned sites followed by halo exchange of the
// populations that crossed rank boundaries — the communication
// structure whose cost the scaling experiments (E7) measure.
type Dist struct {
	*kernel
	Comm *par.Comm
	Dom  *geometry.Domain

	// Owned maps local index -> global site id (ascending). It is the
	// plan's — on one rank the Domain's own, shared with every solver on
	// it: read-only.
	Owned []int

	// packBuf is the reusable payload a non-root rank sends in field
	// and state gathers, so steady-state snapshots and checkpoints
	// allocate no transport. The root writes its own sites in place and
	// never grows one.
	packBuf []float64
	// fieldsOut and stateOut are where the root's gather writes while
	// it runs: the five global field arrays, or a state's population
	// body. They are cleared when the gather returns, so a Dist keeps no
	// snapshot or checkpoint alive. nonFinite is set when a ρ or u value
	// written to fieldsOut is NaN or ±Inf.
	fieldsOut fieldArrays
	stateOut  []float64
	nonFinite atomic.Bool
	// gatherFn and consumeStateFn are kept method values, so a
	// threaded field gather and a state gather allocate no closure.
	gatherFn       func(slot, i int)
	consumeStateFn func(src int, part []float64)
}

// NewDist builds the distributed solver. All ranks must pass identical
// dom, part and params (the usual SPMD contract). A 1-rank partition
// steps the Domain's whole-domain plan; with more ranks the rank's plan
// is cut out of that table for this solver alone.
func NewDist(comm *par.Comm, dom *geometry.Domain, part *partition.Partition, p Params) (*Dist, error) {
	if err := p.validate(); err != nil {
		return nil, err
	}
	if part.K != comm.Size() {
		return nil, fmt.Errorf("lb: partition has %d parts for %d ranks", part.K, comm.Size())
	}
	if len(part.Parts) != dom.NumSites() {
		return nil, fmt.Errorf("lb: partition covers %d sites, domain has %d", len(part.Parts), dom.NumSites())
	}
	pl, err := planFor(dom, part, comm.Rank())
	if err != nil {
		return nil, err
	}
	d := &Dist{kernel: newKernel(dom, p, pl), Comm: comm, Dom: dom, Owned: pl.owned}
	d.gatherFn = d.gatherParcel
	d.consumeStateFn = d.consumeState
	return d, nil
}

// NumOwned returns the number of sites owned by this rank.
func (d *Dist) NumOwned() int { return d.n }

// Step advances one time step: the kernel's fused collide+stream on
// owned sites (cross-rank populations packed into sendBuf), halo
// exchange, scatter, swap. Site parcels (Participants > 1) are
// claimed inside the kernel pass; the halo exchange stays on the
// calling goroutine so the par runtime sees the usual
// one-goroutine-per-rank SPMD structure.
func (d *Dist) Step() {
	d.collideStream()
	// Halo exchange: send packed slices, receive and scatter. The
	// transport copies cycle through the runtime's buffer pool, so the
	// per-step exchange allocates nothing once warm.
	for _, r := range d.neighbors {
		seg := d.sendBuf[d.sendOff[r]:d.sendOff[r+1]]
		if len(seg) > 0 {
			d.Comm.SendF64Pooled(r, tagHalo, seg)
		}
	}
	for _, r := range d.neighbors {
		fix := d.recvFix[r]
		if len(fix) == 0 {
			continue
		}
		data, _ := d.Comm.RecvF64(r, tagHalo)
		if len(data) != len(fix) {
			panic(fmt.Sprintf("lb: halo length mismatch from rank %d: %d vs %d", r, len(data), len(fix)))
		}
		for i, at := range fix {
			d.fNew[at] = data[i]
		}
		d.Comm.Recycle(data)
	}
	d.swap()
}

// Advance runs n steps.
func (d *Dist) Advance(n int) {
	for i := 0; i < n; i++ {
		d.Step()
	}
}

// WallShearStress estimates the wall shear stress magnitude at local
// site li (0 for non-wall sites).
func (d *Dist) WallShearStress(li int) float64 {
	_, _, _, _, wss := d.fields(li, &d.Dom.Sites[d.Owned[li]])
	return wss
}

// TotalMass returns the global mass (allreduce over ranks).
func (d *Dist) TotalMass() float64 {
	local := 0.0
	for li := range d.Owned {
		local += d.Density(li)
	}
	return d.Comm.AllreduceScalar(par.OpSum, local)
}

// pack returns the reusable gather payload buffer, grown to length n.
// One buffer serves every collective a non-root rank initiates (field
// gathers, checkpoint gathers); they are serialised by the SPMD
// structure, and GatherConsume's pooled transport means it may be
// refilled the moment the collective returns.
func (d *Dist) pack(n int) []float64 {
	if cap(d.packBuf) < n {
		d.packBuf = make([]float64, n)
	}
	return d.packBuf[:n]
}

// fieldStride is how many values GatherFields packs per site: the
// global site id, then rho, ux, uy, uz and wss.
const fieldStride = 6

// fieldArrays is the five global fields of a gather, indexed by site id.
type fieldArrays struct {
	rho, ux, uy, uz, wss []float64
}

// GatherFields is GatherFieldsChecked without the divergence flag.
func (d *Dist) GatherFields(root int) (rho, ux, uy, uz, wss []float64) {
	rho, ux, uy, uz, wss, _ = d.GatherFieldsChecked(root)
	return rho, ux, uy, uz, wss
}

// GatherFieldsChecked collects the full global (rho, ux, uy, uz, wss)
// fields at root rank, indexed by global site id; non-root ranks
// receive nils. The §V octree and every snapshot render are built from
// this; wall shear stress rides along so wall-mode views work on the
// offload path too (zero for non-wall sites). nonFinite reports that a
// rho or velocity value is NaN or ±Inf: the test rides the writes, so
// a blown-up simulation is flagged without a second pass.
//
// The site moments are computed over the kernel's site parcels on its
// participants, each site exactly as a serial loop would. The root's
// parcels write its own sites straight into the result arrays; other
// ranks fill their pack buffer and send it, and the root scatters only
// those remote parts. The result arrays are freshly allocated —
// published snapshots must be immutable — but the transport reuses the
// senders' pack buffers and the runtime pool.
func (d *Dist) GatherFieldsChecked(root int) (rho, ux, uy, uz, wss []float64, nonFinite bool) {
	if d.Comm.Rank() != root {
		buf := d.pack(fieldStride * d.n)
		d.fieldParcels()
		d.Comm.GatherConsume(root, buf, nil)
		return nil, nil, nil, nil, nil, false
	}
	N := d.Dom.NumSites()
	out := fieldArrays{make([]float64, N), make([]float64, N), make([]float64, N), make([]float64, N), make([]float64, N)}
	d.fieldsOut = out
	d.nonFinite.Store(false)
	d.fieldParcels()
	// The root's own part is already in place: it contributes nothing.
	d.Comm.GatherConsume(root, nil, d.consumeFields)
	d.fieldsOut = fieldArrays{}
	return out.rho, out.ux, out.uy, out.uz, out.wss, d.nonFinite.Load()
}

// fieldParcels runs the field pass over every local site, threaded
// when the kernel has more than one participant.
func (d *Dist) fieldParcels() {
	if d.workers > 1 {
		d.parcels.Run((d.n+parcelSites-1)/parcelSites, d.workers, d.gatherFn)
	} else {
		d.fieldSites(0, d.n)
	}
}

// gatherParcel runs the field pass over site parcel i of a threaded
// gather.
func (d *Dist) gatherParcel(_, i int) {
	lo := i * parcelSites
	d.fieldSites(lo, min(lo+parcelSites, d.n))
}

// fieldSites computes the fields of local sites [lo, hi), one moment
// pass per site (the WSS kernel reuses the moments density and
// velocity came from), and writes them in place on the root or into
// the pack buffer elsewhere.
func (d *Dist) fieldSites(lo, hi int) {
	if o := &d.fieldsOut; o.rho != nil {
		// v-v is 0 for a finite v and NaN otherwise, so one sum over
		// the written values tests them all without a branch per value.
		bad := 0.0
		for li := lo; li < hi; li++ {
			g := d.Owned[li]
			r, x, y, z, w := d.fields(li, &d.Dom.Sites[g])
			o.rho[g], o.ux[g], o.uy[g], o.uz[g], o.wss[g] = r, x, y, z, w
			bad += (r - r) + (x - x) + (y - y) + (z - z)
		}
		if bad != 0 {
			d.nonFinite.Store(true)
		}
		return
	}
	buf := d.packBuf
	for li := lo; li < hi; li++ {
		g := d.Owned[li]
		at := fieldStride * li
		buf[at] = float64(g)
		buf[at+1], buf[at+2], buf[at+3], buf[at+4], buf[at+5] = d.fields(li, &d.Dom.Sites[g])
	}
}

// consumeFields scatters one remote rank's packed fields into the
// root's result arrays, testing the ρ and u values as fieldSites does.
func (d *Dist) consumeFields(_ int, p []float64) {
	o := &d.fieldsOut
	bad := 0.0
	for i := 0; i+fieldStride-1 < len(p); i += fieldStride {
		g := int(p[i])
		r, x, y, z := p[i+1], p[i+2], p[i+3], p[i+4]
		o.rho[g], o.ux[g], o.uy[g], o.uz[g], o.wss[g] = r, x, y, z, p[i+5]
		bad += (r - r) + (x - x) + (y - y) + (z - z)
	}
	if bad != 0 {
		d.nonFinite.Store(true)
	}
}
