package geometry

import "repro/internal/vec"

// The corner-block table the volume ray-caster walks and samples. A
// sample cell is the 2×2×2 corner neighbourhood a trilinear sample at p
// reads, named by floor(p); samples inside the bounding lattice fall in
// cells -1..Dims per axis. A brick groups BrickCells³ cells; the grid
// starts BrickMargin cells below cell 0, so cell c lies in brick
// (c+BrickMargin)/BrickCells and no index is negative. The corners of a
// brick's cells are a BlockSide³ lattice, shared with the neighbouring
// bricks along the faces. The table's build is written out for these
// sizes (a row of five slots, four cells a row).
const (
	BrickCells   = 4
	BrickMargin  = 2
	BlockSide    = BrickCells + 1
	BlockCorners = BlockSide * BlockSide * BlockSide // corner slots of a block, x fastest
	BlockCells   = BrickCells * BrickCells * BrickCells
)

// Brick states of CornerBlocks.Block below 0.
const (
	// BrickNear: no cell of the brick has a fluid corner, but a cell
	// next to one of its cells has. The walk still evaluates its samples
	// (see CornerBlocks); each of them finds its own brick's block.
	BrickNear int32 = -1
	// BrickEmpty: no sample the walk takes in the brick can find fluid.
	BrickEmpty int32 = -2
)

// CornerBlocks gives every brick whose cells have a fluid corner a
// dense block: the site id at each of its BlockCorners corner slots and
// a fluid mask per cell, so a sample reads its eight corners from one
// block without a lookup per corner. The blocks are numbered in brick
// order and stored back to back, block k at k·BlockCorners of Sites and
// k·BlockCells of Mask.
//
// The walk's occupancy is Block ≠ BrickEmpty: a brick holding a cell
// with a fluid corner, or a cell next to one. The extra cell covers the
// rounding of a ray walk that derives the brick from the ray, not from
// floor(p) of each sample; the sample itself always reads the brick of
// floor(p).
type CornerBlocks struct {
	Dims vec.I3 // extent in bricks
	// Block is the block of each brick, (z*Dims.Y+y)*Dims.X + x, or
	// BrickNear or BrickEmpty.
	Block []int32
	// Sites holds the site id (-1: solid or outside) of corner slot
	// (z*BlockSide+y)*BlockSide + x of each block.
	Sites []int32
	// Mask holds, for cell (z*BrickCells+y)*BrickCells + x of each
	// block, bit i set iff corner i of the cell is fluid: corner i is
	// the cell's base + (i&1, i>>1&1, i>>2), x fastest.
	Mask []uint8
}

// NumBlocks is how many bricks own a block.
func (t *CornerBlocks) NumBlocks() int { return len(t.Mask) / BlockCells }

// Bytes is the size of the table's arrays.
func (t *CornerBlocks) Bytes() int { return 4*len(t.Block) + 4*len(t.Sites) + len(t.Mask) }

type cornerBlocksKey struct{}

// CornerBlocks returns the domain's corner-block table, built from
// Sites on first use and shared by everything that renders the domain.
func (d *Domain) CornerBlocks() *CornerBlocks {
	t, _ := d.Derive(cornerBlocksKey{}, func() any { return buildCornerBlocks(d) })
	return t.(*CornerBlocks)
}

// buildCornerBlocks makes the table in one pass over the sites and one
// over the blocks. Site p is a corner of cells p-1..p per axis, grid
// cells p+1..p+2: a run of sites along x marks the bricks of its cells
// as owning a block. The blocks are numbered in brick order; each then
// copies its corner slots from the domain's dense index, a row of
// BlockSide at a time, makes its cell masks from them, and marks the
// bricks of its fluid cells' 26 neighbours for the walk.
func buildCornerBlocks(d *Domain) *CornerBlocks {
	n := vec.I3{
		X: (d.Dims.X+BrickMargin)/BrickCells + 1,
		Y: (d.Dims.Y+BrickMargin)/BrickCells + 1,
		Z: (d.Dims.Z+BrickMargin)/BrickCells + 1,
	}
	t := &CornerBlocks{Dims: n, Block: make([]int32, n.X*n.Y*n.Z)}
	for i := range t.Block {
		t.Block[i] = BrickEmpty
	}
	const lo, hi = BrickMargin - 1, BrickMargin // grid cells p+lo..p+hi
	for i := 0; i < len(d.Sites); {
		// The run of sites i..j-1 at x = p.X..x1 of one row: read off
		// the dense index, where it holds consecutive ids.
		p, j := d.Sites[i].Pos, i+1
		row := d.index[(p.Z*d.Dims.Y+p.Y)*d.Dims.X:][:d.Dims.X]
		x1 := p.X
		for x1+1 < len(row) && row[x1+1] == int32(j) {
			j, x1 = j+1, x1+1
		}
		for z := (p.Z + lo) / BrickCells; z <= (p.Z+hi)/BrickCells; z++ {
			for y := (p.Y + lo) / BrickCells; y <= (p.Y+hi)/BrickCells; y++ {
				row := t.Block[(z*n.Y+y)*n.X:][:n.X]
				for x := (p.X + lo) / BrickCells; x <= (x1+hi)/BrickCells; x++ {
					row[x] = 0 // owns a block, numbered below
				}
			}
		}
		i = j
	}
	nb := int32(0)
	for k, b := range t.Block {
		if b == 0 {
			t.Block[k], nb = nb, nb+1
		}
	}
	t.Sites = make([]int32, int(nb)*BlockCorners)
	t.Mask = make([]uint8, int(nb)*BlockCells)
	var nearBrick [27]int // the brick offset of each entry of nearCells
	for i := range nearBrick {
		nearBrick[i] = ((i/9-1)*n.Y+i/3%3-1)*n.X + i%3 - 1
	}
	for k, b := range t.Block {
		if b < 0 {
			continue
		}
		// The block's corner slot (0, 0, 0) on the lattice.
		o := vec.NewI(k%n.X, k/n.X%n.Y, k/(n.X*n.Y)).Mul(BrickCells).Sub(vec.NewI(BrickMargin, BrickMargin, BrickMargin))
		sites := (*[BlockCorners]int32)(t.Sites[int(b)*BlockCorners:])
		var rows [BlockSide * BlockSide]uint // bit x: slot (x, y, z) of row z*BlockSide + y is fluid
		for r := range rows {
			dst := (*[BlockSide]int32)(sites[r*BlockSide:])
			y, z := o.Y+r%BlockSide, o.Z+r/BlockSide
			switch {
			case y < 0 || y >= d.Dims.Y || z < 0 || z >= d.Dims.Z:
				*dst = noSites
				continue
			case o.X >= 0 && o.X+BlockSide <= d.Dims.X:
				src := (*[BlockSide]int32)(d.index[(z*d.Dims.Y+y)*d.Dims.X+o.X:])
				dst[0], dst[1], dst[2], dst[3], dst[4] = src[0], src[1], src[2], src[3], src[4]
			default: // the row crosses a face of the lattice
				for x := range dst {
					dst[x] = int32(d.SiteAt(vec.NewI(o.X+x, y, z)))
				}
			}
			rows[r] = uint(^dst[0]>>31&1) | uint(^dst[1]>>31&1)<<1 | uint(^dst[2]>>31&1)<<2 |
				uint(^dst[3]>>31&1)<<3 | uint(^dst[4]>>31&1)<<4
		}
		fluid := cellMasks(&rows, (*[BlockCells]uint8)(t.Mask[int(b)*BlockCells:]))
		for i, cells := range nearCells {
			if j := k + nearBrick[i]; fluid&cells != 0 && t.Block[j] == BrickEmpty {
				t.Block[j] = BrickNear
			}
		}
	}
	return t
}

// noSites is a row of corner slots without sites.
var noSites = [BlockSide]int32{-1, -1, -1, -1, -1}

// cellMasks sets the cell masks of a block from the fluid bits of its
// rows of corner slots and returns its fluid cells, bit l for cell l.
func cellMasks(rows *[BlockSide * BlockSide]uint, masks *[BlockCells]uint8) (fluid uint64) {
	for z := 0; z < BrickCells; z++ {
		for y := 0; y < BrickCells; y++ {
			r := z*BlockSide + y
			// Rows (y, z), (y+1, z), (y, z+1), (y+1, z+1) in bytes 0..3:
			// shifted by x, each byte's low two bits are corners
			// 0-1, 2-3, 4-5, 6-7 of cell x, and the product gathers
			// them into bits 24..31 without carries.
			q := uint64(rows[r]) | uint64(rows[r+1])<<8 | uint64(rows[r+BlockSide])<<16 | uint64(rows[r+BlockSide+1])<<24
			for x := 0; x < BrickCells; x++ {
				l := (z*BrickCells+y)*BrickCells + x
				m := (q >> x & 0x03030303) * (1<<24 | 1<<18 | 1<<12 | 1<<6) >> 24 & 0xFF
				masks[l] = uint8(m)
				fluid |= (m + 0xFF) >> 8 << l // 1 iff m ≠ 0
			}
		}
	}
	return fluid
}

// nearCells[(dz+1)*9 + (dy+1)*3 + dx+1] is the set of cells of a brick
// (bit l for cell l) whose 26 neighbours reach the brick (dx, dy, dz)
// from it: along each axis, the cells on its low face for -1, on its
// high face for +1, any for 0.
var nearCells = func() (t [27]uint64) {
	for l := 0; l < BlockCells; l++ {
		side := func(c int) [3]bool { return [3]bool{c == 0, true, c == BrickCells-1} }
		sx, sy, sz := side(l%BrickCells), side(l/BrickCells%BrickCells), side(l/(BrickCells*BrickCells))
		for i := range t {
			if sx[i%3] && sy[i/3%3] && sz[i/9] {
				t[i] |= 1 << l
			}
		}
	}
	return t
}()
