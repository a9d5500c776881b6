package geometry

import "repro/internal/vec"

// The occupancy grid the volume ray-caster walks. A sample cell is the
// 2×2×2 corner neighbourhood a trilinear sample at p reads, named by
// floor(p); samples inside the bounding lattice fall in cells -1..Dims
// per axis. A brick groups BrickCells³ cells; the grid starts
// BrickMargin cells below cell 0, so cell c lies in brick
// (c+BrickMargin)/BrickCells and no index is negative.
const (
	BrickCells  = 4
	BrickMargin = 2
)

// Bricks is a conservative map of where a trilinear sample can find
// fluid: a brick is occupied iff a cell in it, or a cell next to it,
// has a fluid corner. The extra cell covers the rounding of a ray walk
// that derives the brick from the ray, not from floor(p) of each sample.
type Bricks struct {
	Dims     vec.I3 // extent in bricks
	Occupied []bool // (z*Dims.Y+y)*Dims.X + x
}

type bricksKey struct{}

// Bricks returns the domain's occupancy grid, built from Sites on first
// use and shared by everything that renders the domain.
func (d *Domain) Bricks() *Bricks {
	b, _ := d.Derive(bricksKey{}, func() any {
		n := vec.I3{
			X: (d.Dims.X+BrickMargin)/BrickCells + 1,
			Y: (d.Dims.Y+BrickMargin)/BrickCells + 1,
			Z: (d.Dims.Z+BrickMargin)/BrickCells + 1,
		}
		b := &Bricks{Dims: n, Occupied: make([]bool, n.X*n.Y*n.Z)}
		// Site s is a corner of cells s-1..s; with the neighbour cell
		// on either side that is s-2..s+1, grid cells s..s+3.
		const span = BrickMargin + 1
		for i := range d.Sites {
			p := d.Sites[i].Pos
			for z := p.Z / BrickCells; z <= (p.Z+span)/BrickCells; z++ {
				for y := p.Y / BrickCells; y <= (p.Y+span)/BrickCells; y++ {
					for x := p.X / BrickCells; x <= (p.X+span)/BrickCells; x++ {
						b.Occupied[(z*n.Y+y)*n.X+x] = true
					}
				}
			}
		}
		return b
	})
	return b.(*Bricks)
}

// CellSites fills ids with the site ids (-1: solid or outside) of the
// eight corners base+{0,1}³ of a sample cell, x fastest, then y, then z,
// and reports whether any corner is fluid.
func (d *Domain) CellSites(base vec.I3, ids *[8]int32) bool {
	nx, ny := d.Dims.X, d.Dims.Y
	if base.X >= 0 && base.Y >= 0 && base.Z >= 0 && base.X < nx-1 && base.Y < ny-1 && base.Z < d.Dims.Z-1 {
		o := (base.Z*ny+base.Y)*nx + base.X
		lo, hi := d.index[o:o+nx+2], d.index[o+nx*ny:o+nx*ny+nx+2]
		ids[0], ids[1], ids[2], ids[3] = lo[0], lo[1], lo[nx], lo[nx+1]
		ids[4], ids[5], ids[6], ids[7] = hi[0], hi[1], hi[nx], hi[nx+1]
	} else {
		for i := range ids {
			ids[i] = int32(d.SiteAt(base.Add(vec.I3{X: i & 1, Y: i >> 1 & 1, Z: i >> 2})))
		}
	}
	return ids[0]&ids[1]&ids[2]&ids[3]&ids[4]&ids[5]&ids[6]&ids[7] >= 0
}
