package geometry

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/vec"
)

// LinkType classifies what a lattice link from a fluid site crosses.
type LinkType uint8

// Link classifications.
const (
	LinkFluid  LinkType = iota // neighbour is another fluid site
	LinkWall                   // link crosses the vessel wall
	LinkInlet                  // link crosses an inlet disk
	LinkOutlet                 // link crosses an outlet disk
)

// Link describes one lattice direction leaving a fluid site. Where
// along a non-fluid link the wall or iolet disk is crossed is not kept
// here but in the domain's distance table (Domain.LinkDists).
type Link struct {
	Type LinkType
	// Iolet is the index into the vessel's iolet list for
	// LinkInlet/LinkOutlet links, -1 otherwise.
	Iolet int
}

// SiteFlags classifies a fluid site by the kinds of links it has.
type SiteFlags uint8

// Site flag bits.
const (
	FlagWall SiteFlags = 1 << iota
	FlagInlet
	FlagOutlet
)

// Site is one fluid lattice site.
type Site struct {
	Pos   vec.I3 // lattice coordinates
	Links []Link // per direction 1..Q-1 (index i holds direction i+1)
	Flags SiteFlags
	// WallNormal is the outward unit normal of the nearest wall for
	// wall-adjacent sites (approximated by the SDF gradient), zero
	// otherwise. Used for wall-shear-stress output.
	WallNormal vec.V3
}

// BlockSize is the coarse block edge length of the two-level geometry
// format, matching HemeLB's 8-site blocks.
const BlockSize = 8

// Domain is the voxelised sparse geometry: the set of fluid sites with
// their link metadata, a dense site index, and the coarse block
// decomposition used by the two-level file format and the initial
// approximate load balance.
//
// A Domain is immutable once built: solvers, renderers and octrees of
// any number of concurrent jobs read one Domain (the service caches
// them per geometry), so nothing may write to it or to its slices.
type Domain struct {
	Model  *lattice.Model
	Dims   vec.I3  // lattice extent
	Origin vec.V3  // world position of lattice site (0,0,0)
	H      float64 // lattice spacing (world units per site)
	Sites  []Site
	Iolets []Iolet

	// index maps dense lattice offset -> site id, -1 for solid.
	index []int32

	// BlockDims is the extent in blocks; BlockFluidCount[b] is the
	// number of fluid sites in block b (the coarse level of the
	// two-level format).
	BlockDims       vec.I3
	BlockFluidCount []int32

	// sign is the vessel's sign test, kept for the distance table
	// (linkdist.go); nil on a reassembled domain, whose table is
	// seeded from its records instead.
	sign *signField

	// derived holds what is computed from the fields above on first use
	// (see Derive).
	derived derived
}

// NumSites returns the number of fluid sites.
func (d *Domain) NumSites() int { return len(d.Sites) }

// FluidFraction returns the fluid share of the bounding lattice.
func (d *Domain) FluidFraction() float64 {
	total := d.Dims.X * d.Dims.Y * d.Dims.Z
	if total == 0 {
		return 0
	}
	return float64(len(d.Sites)) / float64(total)
}

// offset returns the dense index of lattice point p, or -1 if out of
// range.
func (d *Domain) offset(p vec.I3) int {
	if p.X < 0 || p.Y < 0 || p.Z < 0 || p.X >= d.Dims.X || p.Y >= d.Dims.Y || p.Z >= d.Dims.Z {
		return -1
	}
	return (p.Z*d.Dims.Y+p.Y)*d.Dims.X + p.X
}

// SiteAt returns the site id at lattice point p, or -1 if p is solid or
// out of range.
func (d *Domain) SiteAt(p vec.I3) int {
	off := d.offset(p)
	if off < 0 {
		return -1
	}
	return int(d.index[off])
}

// World converts lattice coordinates to world coordinates (site
// centres).
func (d *Domain) World(p vec.I3) vec.V3 {
	return d.Origin.Add(p.F().Mul(d.H))
}

// Lattice converts a world position to continuous lattice coordinates.
func (d *Domain) Lattice(p vec.V3) vec.V3 {
	return p.Sub(d.Origin).Div(d.H)
}

// BlockOf returns the block coordinates containing lattice point p.
func BlockOf(p vec.I3) vec.I3 {
	return vec.I3{X: p.X / BlockSize, Y: p.Y / BlockSize, Z: p.Z / BlockSize}
}

// BlockID returns the dense block index for block coordinates b.
func (d *Domain) BlockID(b vec.I3) int {
	return (b.Z*d.BlockDims.Y+b.Y)*d.BlockDims.X + b.X
}

// NumBlocks returns the total number of coarse blocks.
func (d *Domain) NumBlocks() int {
	return d.BlockDims.X * d.BlockDims.Y * d.BlockDims.Z
}

// Voxelise discretises a vessel onto a lattice with spacing h,
// classifying every link of every fluid site: fluid, wall, or in/outlet
// where the link crosses an iolet disk. Where a non-fluid link crosses
// is left to the distance table, computed only if read (LinkDists). It
// is the pre-processing step 1 of section IV-B ("read in the geometry
// for blood vessel model").
//
// Both passes are claimed by up to GOMAXPROCS participants (the caller
// and guard's idle helpers); the result does not depend on how many
// (see voxelise).
func Voxelise(v *Vessel, h float64, model *lattice.Model) (*Domain, error) {
	return voxelise(v, h, model, runtime.GOMAXPROCS(0))
}

// linkChunk is how many sites a worker classifies per claim in pass 2.
const linkChunk = 512

// voxelise is Voxelise on a given number of workers. Pass 1 scans the
// lattice one block layer of z (BlockSize planes) per claim and keeps
// each layer's fluid points in scan order; numbering the layers' points
// one after another in z order is the serial scan order, so site ids,
// index and BlockFluidCount are the same for any worker count. Within a
// row of x it asks only the points of the row's span (rowSpan): every
// other point lies outside every primitive's box and is solid. Pass 2
// classifies the links of disjoint site ranges. Everything but the
// wall normal needs only the sign of the SDF and asks a signField,
// which the domain keeps for its distance table.
func voxelise(v *Vessel, h float64, model *lattice.Model, workers int) (*Domain, error) {
	if h <= 0 {
		return nil, fmt.Errorf("geometry: lattice spacing must be positive, got %g", h)
	}
	b := v.Bounds()
	size := b.Size()
	nx := int(math.Ceil(size.X/h)) + 1
	ny := int(math.Ceil(size.Y/h)) + 1
	nz := int(math.Ceil(size.Z/h)) + 1
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("geometry: empty bounds %+v", b)
	}
	const maxSites = 1 << 28
	if nx*ny*nz > maxSites {
		return nil, fmt.Errorf("geometry: lattice %dx%dx%d too large; increase spacing", nx, ny, nz)
	}
	d := &Domain{
		Model:  model,
		Dims:   vec.I3{X: nx, Y: ny, Z: nz},
		Origin: b.Min,
		H:      h,
		Iolets: append([]Iolet(nil), v.Iolets...),
		index:  make([]int32, nx*ny*nz),
		sign:   newSignField(v.Shape),
	}
	d.BlockDims = vec.I3{
		X: (nx + BlockSize - 1) / BlockSize,
		Y: (ny + BlockSize - 1) / BlockSize,
		Z: (nz + BlockSize - 1) / BlockSize,
	}
	d.BlockFluidCount = make([]int32, d.NumBlocks())

	// Pass 1: classify fluid sites, one block layer per claim. A layer
	// owns its planes of index and its blocks of BlockFluidCount, so
	// the workers share nothing they write.
	layers := make([][]int32, d.BlockDims.Z) // fluid lattice offsets, scan order
	boxes := d.leafBoxes()
	guard.ForChunks(len(layers), workers, func(l int) {
		var fluid []int32
		for z := l * BlockSize; z < min((l+1)*BlockSize, nz); z++ {
			for y := 0; y < ny; y++ {
				row := (z*ny + y) * nx
				for x := 0; x < nx; x++ {
					d.index[row+x] = -1
				}
				lo, hi := rowSpan(boxes, y, z)
				for x := lo; x < hi; x++ {
					if d.fluidAt(d.World(vec.I3{X: x, Y: y, Z: z})) {
						fluid = append(fluid, int32(row+x))
					}
				}
			}
		}
		layers[l] = fluid
	})
	first := make([]int, len(layers)+1) // site id of each layer's first point
	for l, fluid := range layers {
		first[l+1] = first[l] + len(fluid)
	}
	n := first[len(layers)]
	if n == 0 {
		return nil, fmt.Errorf("geometry: vessel %q produced no fluid sites at spacing %g", v.Name, h)
	}
	d.Sites = make([]Site, n)
	links := make([]Link, n*(model.Q-1)) // every site's Links, one allocation
	guard.ForChunks(len(layers), workers, func(l int) {
		for k, off := range layers[l] {
			si := first[l] + k
			p := vec.I3{X: int(off) % nx, Y: int(off) / nx % ny, Z: int(off) / (nx * ny)}
			d.index[off] = int32(si)
			d.Sites[si].Pos = p
			d.BlockFluidCount[d.BlockID(BlockOf(p))]++
		}
	})

	// Pass 2: link classification.
	guard.ForChunks((n+linkChunk-1)/linkChunk, workers, func(chunk int) {
		nb := make([]int32, model.Q-1)
		for si := chunk * linkChunk; si < min((chunk+1)*linkChunk, n); si++ {
			s := &d.Sites[si]
			s.Links = links[si*(model.Q-1) : (si+1)*(model.Q-1) : (si+1)*(model.Q-1)]
			d.Neighbours(si, nb)
			wp := d.World(s.Pos)
			for q := 1; q < model.Q; q++ {
				link := &s.Links[q-1]
				link.Iolet = -1
				if nb[q-1] >= 0 {
					link.Type = LinkFluid
					continue
				}
				// The link leaves the fluid. Decide whether it crosses an
				// iolet disk or the vessel wall.
				c := model.C[q]
				np := s.Pos.Add(vec.I3{X: c[0], Y: c[1], Z: c[2]})
				if idx, _ := d.ioletCrossing(wp, d.World(np)); idx >= 0 {
					if v.Iolets[idx].IsInlet {
						link.Type = LinkInlet
						s.Flags |= FlagInlet
					} else {
						link.Type = LinkOutlet
						s.Flags |= FlagOutlet
					}
					link.Iolet = idx
					continue
				}
				link.Type = LinkWall
				s.Flags |= FlagWall
			}
			if s.Flags&FlagWall != 0 {
				s.WallNormal = sdfGradient(v.Shape, wp, d.H*0.5)
			}
		}
	})
	return d, nil
}

// indexBox is a box of lattice points: those p with lo ≤ p < hi on
// every axis.
type indexBox struct{ lo, hi vec.I3 }

// leafBoxes returns each sign-field leaf's box in lattice points: on
// each axis the points whose World coordinate passes that axis's box
// test of signField.negative (axisRange). World's coordinate on one
// axis does not depend on the other two, so a point passes a leaf's
// whole box test exactly when it lies in the leaf's indexBox.
func (d *Domain) leafBoxes() []indexBox {
	boxes := make([]indexBox, len(d.sign.leaves))
	for i := range d.sign.leaves {
		l, b := &d.sign.leaves[i], &boxes[i]
		b.lo.X, b.hi.X = axisRange(d.Dims.X, d.Origin.X, d.H, l.min.X, l.max.X, func(k int) float64 { return d.World(vec.I3{X: k}).X })
		b.lo.Y, b.hi.Y = axisRange(d.Dims.Y, d.Origin.Y, d.H, l.min.Y, l.max.Y, func(k int) float64 { return d.World(vec.I3{Y: k}).Y })
		b.lo.Z, b.hi.Z = axisRange(d.Dims.Z, d.Origin.Z, d.H, l.min.Z, l.max.Z, func(k int) float64 { return d.World(vec.I3{Z: k}).Z })
	}
	return boxes
}

// axisRange returns the range [a, b) of the n points along an axis of
// origin o and spacing h whose coordinate c(k) lies in [mn, mx]: a is
// the first point with c(a) ≥ mn, b the first with c(b) > mx. Each end
// is estimated by division, then moved to where c, World's own
// arithmetic, actually crosses the comparison, so rounding neither
// drops a point the box holds nor adds one it does not.
func axisRange(n int, o, h, mn, mx float64, c func(k int) float64) (a, b int) {
	at := func(e float64) int {
		f := math.Ceil((e - o) / h)
		if !(f > 0) { // NaN included
			return 0
		}
		return int(min(f, float64(n)))
	}
	a = at(mn)
	for a > 0 && c(a-1) >= mn {
		a--
	}
	for a < n && c(a) < mn {
		a++
	}
	b = at(mx)
	for b > 0 && c(b-1) > mx {
		b--
	}
	for b < n && c(b) <= mx {
		b++
	}
	return a, b
}

// rowSpan returns the x range [lo, hi) of lattice row (y, z) that pass
// 1 evaluates: the hull of the x ranges of the leaf boxes (leafBoxes)
// that hold the row. A point outside every leaf's box is solid whatever
// the SDF says there, so skipping it is exact.
func rowSpan(boxes []indexBox, y, z int) (lo, hi int) {
	for i := range boxes {
		b := &boxes[i]
		if y < b.lo.Y || y >= b.hi.Y || z < b.lo.Z || z >= b.hi.Z || b.lo.X >= b.hi.X {
			continue
		}
		if lo == hi { // the first box the row meets
			lo, hi = b.lo.X, b.hi.X
		} else {
			lo, hi = min(lo, b.lo.X), max(hi, b.hi.X)
		}
	}
	return lo, hi
}

// fluidAt reports whether world point p is fluid: on the interior side
// of every iolet plane and inside the shape (Vessel.Inside, sign-only).
func (d *Domain) fluidAt(p vec.V3) bool {
	for i := range d.Iolets {
		if d.Iolets[i].side(p) < 0 {
			return false
		}
	}
	return d.sign.negative(p)
}

// ioletCrossing tests whether the segment a->b crosses any iolet disk
// and returns its index and the crossing fraction, or (-1, 0).
func (d *Domain) ioletCrossing(a, b vec.V3) (int, float64) {
	for i, io := range d.Iolets {
		sa := io.side(a)
		sb := io.side(b)
		if sa < 0 || sb >= 0 {
			continue // does not cross the plane outward
		}
		t := sa / (sa - sb) // fraction where the plane is hit
		hit := a.Lerp(b, t)
		// Allow a half-spacing slack on the disk radius so corner sites
		// near the rim are captured by the iolet rather than the wall.
		if hit.Dist(io.Center) <= io.Radius+d.H*0.5 {
			if t <= 0 {
				t = 1e-9
			}
			return i, t
		}
	}
	return -1, 0
}

// sdfGradient estimates the outward wall normal at p by central
// differences of the SDF with step eps.
func sdfGradient(s Shape, p vec.V3, eps float64) vec.V3 {
	g := vec.V3{
		X: s.SDF(p.Add(vec.New(eps, 0, 0))) - s.SDF(p.Sub(vec.New(eps, 0, 0))),
		Y: s.SDF(p.Add(vec.New(0, eps, 0))) - s.SDF(p.Sub(vec.New(0, eps, 0))),
		Z: s.SDF(p.Add(vec.New(0, 0, eps))) - s.SDF(p.Sub(vec.New(0, 0, eps))),
	}
	return g.Norm()
}

// Neighbours writes into dst[q-1], for every direction q = 1..Q-1 of
// the domain's model, the id of the site at lattice point Pos + C[q] of
// site si: -1 where that point is solid or off the lattice, whatever
// the link's Type says. dst must hold at least Q-1 entries. A site
// inside the lattice reads its neighbours at its dense offset plus each
// direction's delta; a site on a lattice face, whose neighbours may lie
// off it, asks SiteAt per direction. Every model moves at most one site
// per axis in a step (TestNeighboursMatchSiteAt checks D3Q15 and
// D3Q19), so one layer of face sites is all the fallback covers.
func (d *Domain) Neighbours(si int, dst []int32) {
	c := d.Model.C
	dst = dst[:len(c)-1]
	p := d.Sites[si].Pos
	nx, ny := d.Dims.X, d.Dims.Y
	if p.X > 0 && p.Y > 0 && p.Z > 0 && p.X < nx-1 && p.Y < ny-1 && p.Z < d.Dims.Z-1 {
		off := (p.Z*ny+p.Y)*nx + p.X
		for i := range dst {
			cq := c[i+1]
			dst[i] = d.index[off+cq[0]+nx*(cq[1]+ny*cq[2])]
		}
		return
	}
	for i := range dst {
		cq := c[i+1]
		dst[i] = int32(d.SiteAt(p.Add(vec.I3{X: cq[0], Y: cq[1], Z: cq[2]})))
	}
}
