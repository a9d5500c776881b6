package lb

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/partition"
)

// tagRedist carries population state during repartitioning.
const tagRedist = par.TagUser + 102

// Redistribute rebuilds the distributed solver under a new partition,
// moving each site's population state to its new owner — the
// "repartitioning mid-term" step of section IV-B that a static
// decomposition cannot offer. The returned solver continues from the
// same time step. All ranks must call it collectively with the same
// newPart.
func (d *Dist) Redistribute(newPart *partition.Partition) (*Dist, error) {
	// Threads carries over: the new solver claims parcels under the
	// same participant cap the old one used, and derives its own count
	// from the sites it now owns.
	nd, err := NewDist(d.Comm, d.Dom, newPart, Params{Tau: d.Tau, Kind: d.Kind, Threads: d.Threads()})
	if err != nil {
		return nil, err
	}
	copy(nd.ioletRho, d.ioletRho)
	copy(nd.pulses, d.pulses)
	nd.step = d.step
	Q := d.Dom.Model.Q
	me := d.Comm.Rank()

	// Pack populations leaving this rank: [gid, f0..fQ-1]* per target.
	outgoing := make([][]float64, d.Comm.Size())
	for li, g := range d.Owned {
		owner := int(newPart.Parts[g])
		if owner == me {
			nl := nd.localOf(g)
			copy(nd.f[nl*Q:(nl+1)*Q], d.f[li*Q:(li+1)*Q])
			continue
		}
		rec := make([]float64, 0, Q+1)
		rec = append(rec, float64(g))
		rec = append(rec, d.f[li*Q:(li+1)*Q]...)
		outgoing[owner] = append(outgoing[owner], rec...)
	}
	incoming := d.Comm.Alltoall(outgoing)
	for _, data := range incoming {
		for i := 0; i+Q+1 <= len(data); i += Q + 1 {
			g := int(data[i])
			li := nd.localOf(g)
			if li < 0 {
				return nil, fmt.Errorf("lb: redistribute received site %d not owned here", g)
			}
			copy(nd.f[li*Q:(li+1)*Q], data[i+1:i+1+Q])
		}
	}
	return nd, nil
}
