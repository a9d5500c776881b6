package geometry

import (
	"fmt"
	"sort"

	"repro/internal/lattice"
	"repro/internal/vec"
)

// Reassemble reconstructs a Domain from externally decoded site records
// (the gmy reader's path). Sites may arrive in any order; they are
// sorted into the canonical scan order (z, then y, then x ascending) so
// a write/read round-trip reproduces the original site numbering
// exactly. The dense index and coarse block table are rebuilt. dists
// holds the sites' link distances, Q-1 per site in the order of sites
// (the layout of LinkDists); it becomes the domain's distance table,
// since a reassembled domain has no shape to compute one from.
func Reassemble(model *lattice.Model, dims vec.I3, origin vec.V3, h float64, iolets []Iolet, sites []Site, dists []float64) (*Domain, error) {
	if dims.X <= 0 || dims.Y <= 0 || dims.Z <= 0 {
		return nil, fmt.Errorf("geometry: invalid dims %+v", dims)
	}
	q1 := model.Q - 1
	if len(dists) != len(sites)*q1 {
		return nil, fmt.Errorf("geometry: %d link distances for %d sites, model needs %d", len(dists), len(sites), len(sites)*q1)
	}
	d := &Domain{
		Model:  model,
		Dims:   dims,
		Origin: origin,
		H:      h,
		Iolets: append([]Iolet(nil), iolets...),
		index:  make([]int32, dims.X*dims.Y*dims.Z),
	}
	d.BlockDims = vec.I3{
		X: (dims.X + BlockSize - 1) / BlockSize,
		Y: (dims.Y + BlockSize - 1) / BlockSize,
		Z: (dims.Z + BlockSize - 1) / BlockSize,
	}
	d.BlockFluidCount = make([]int32, d.NumBlocks())
	for i := range d.index {
		d.index[i] = -1
	}
	order := make([]int, len(sites))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := sites[order[a]].Pos, sites[order[b]].Pos
		if pa.Z != pb.Z {
			return pa.Z < pb.Z
		}
		if pa.Y != pb.Y {
			return pa.Y < pb.Y
		}
		return pa.X < pb.X
	})
	d.Sites = make([]Site, len(sites))
	table := make([]float64, len(dists))
	for i, o := range order {
		d.Sites[i] = sites[o]
		copy(table[i*q1:(i+1)*q1], dists[o*q1:(o+1)*q1])
	}
	for i, s := range d.Sites {
		off := d.offset(s.Pos)
		if off < 0 {
			return nil, fmt.Errorf("geometry: site %v outside dims %+v", s.Pos, dims)
		}
		if d.index[off] != -1 {
			return nil, fmt.Errorf("geometry: duplicate site at %v", s.Pos)
		}
		if len(s.Links) != model.Q-1 {
			return nil, fmt.Errorf("geometry: site %v has %d links, model needs %d", s.Pos, len(s.Links), model.Q-1)
		}
		d.index[off] = int32(i)
		d.BlockFluidCount[d.BlockID(BlockOf(s.Pos))]++
	}
	// The table rides the Domain as if LinkDists had built it.
	d.derived.slots = map[any]*derivedSlot{linkDistKey{}: {built: true, v: table}}
	return d, nil
}
