package geometry

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/vec"
)

// cellSites is the corner lookup the block table replaced, kept as its
// oracle: the site ids (-1: solid or outside) of the eight corners
// base+{0,1}³ of a sample cell, x fastest, then y, then z, and whether
// any corner is fluid.
func cellSites(d *Domain, base vec.I3, ids *[8]int32) bool {
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

// bricksOracle is the occupancy grid the block table replaced: a brick
// is occupied iff a cell in it, or a cell next to it, has a fluid
// corner.
func bricksOracle(d *Domain) []bool {
	n := vec.I3{
		X: (d.Dims.X+BrickMargin)/BrickCells + 1,
		Y: (d.Dims.Y+BrickMargin)/BrickCells + 1,
		Z: (d.Dims.Z+BrickMargin)/BrickCells + 1,
	}
	occ := make([]bool, n.X*n.Y*n.Z)
	const span = BrickMargin + 1
	for i := range d.Sites {
		p := d.Sites[i].Pos
		for z := p.Z / BrickCells; z <= (p.Z+span)/BrickCells; z++ {
			for y := p.Y / BrickCells; y <= (p.Y+span)/BrickCells; y++ {
				for x := p.X / BrickCells; x <= (p.X+span)/BrickCells; x++ {
					occ[(z*n.Y+y)*n.X+x] = true
				}
			}
		}
	}
	return occ
}

// sparseDomain reassembles a seeded random sparse domain whose lone
// sites sit on brick planes, edges and corners (grid coordinate a
// multiple of BrickCells), on the lattice's faces, and anywhere.
func sparseDomain(t testing.TB, rng *rand.Rand) *Domain {
	model := lattice.D3Q19()
	dims := vec.NewI(1+rng.Intn(14), 1+rng.Intn(14), 1+rng.Intn(14))
	coord := func(n, kind int) int {
		switch kind {
		case 0: // on a brick plane: grid coordinate c+BrickMargin ≡ 0
			if c := BrickCells*rng.Intn(n/BrickCells+1) - BrickMargin; c >= 0 && c < n {
				return c
			}
		case 1: // on a lattice face
			return [2]int{0, n - 1}[rng.Intn(2)]
		}
		return rng.Intn(n)
	}
	seen := map[vec.I3]bool{}
	var sites []Site
	for i, count := 0, rng.Intn(12); i < count; i++ {
		// Kinds per axis: 0 plane, 1 face, 2 anywhere; three planes is
		// a brick corner, two an edge.
		p := vec.NewI(coord(dims.X, rng.Intn(3)), coord(dims.Y, rng.Intn(3)), coord(dims.Z, rng.Intn(3)))
		if !seen[p] {
			seen[p] = true
			sites = append(sites, Site{Pos: p, Links: make([]Link, model.Q-1)})
		}
	}
	d, err := Reassemble(model, dims, vec.V3{}, 1, nil, sites, make([]float64, len(sites)*(model.Q-1)))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// checkCornerBlocks holds d's table to SiteAt. Every slot of every
// block is the site at its lattice point and every cell mask has the
// bits of its fluid corners; over every cell a sample inside the
// bounding lattice can name (-1..Dims), a cell with a fluid corner has
// a block, the cell and its 26 neighbours lie in walk-occupied bricks,
// and the walk's occupancy is the grid the table replaced.
func checkCornerBlocks(t *testing.T, name string, d *Domain) (fluidCells int) {
	t.Helper()
	b := d.CornerBlocks()
	if got := len(b.Block); got != b.Dims.X*b.Dims.Y*b.Dims.Z {
		t.Fatalf("%s: %d bricks for dims %+v", name, got, b.Dims)
	}
	nb := b.NumBlocks()
	if len(b.Sites) != nb*BlockCorners || len(b.Mask) != nb*BlockCells {
		t.Fatalf("%s: %d blocks with %d corner slots and %d masks", name, nb, len(b.Sites), len(b.Mask))
	}
	owners := make([]int, nb)
	for k, blk := range b.Block {
		if blk < BrickEmpty || int(blk) >= nb {
			t.Fatalf("%s: brick %d names block %d of %d", name, k, blk, nb)
		}
		if blk < 0 {
			continue
		}
		owners[blk]++
		origin := vec.NewI(k%b.Dims.X, k/b.Dims.X%b.Dims.Y, k/(b.Dims.X*b.Dims.Y)).Mul(BrickCells).Sub(vec.NewI(BrickMargin, BrickMargin, BrickMargin))
		for s := 0; s < BlockCorners; s++ {
			pos := origin.Add(vec.NewI(s%BlockSide, s/BlockSide%BlockSide, s/(BlockSide*BlockSide)))
			if got, want := b.Sites[int(blk)*BlockCorners+s], d.SiteAt(pos); int(got) != want {
				t.Fatalf("%s: block %d slot %d (lattice %+v): site %d, SiteAt %d", name, blk, s, pos, got, want)
			}
		}
		for l := 0; l < BlockCells; l++ {
			var ids [8]int32
			cellSites(d, origin.Add(vec.NewI(l%BrickCells, l/BrickCells%BrickCells, l/(BrickCells*BrickCells))), &ids)
			if got, want := b.Mask[int(blk)*BlockCells+l], fluidMask(ids); got != want {
				t.Fatalf("%s: block %d cell %d: mask %08b, corners say %08b", name, blk, l, got, want)
			}
		}
	}
	for blk, n := range owners {
		if n != 1 {
			t.Fatalf("%s: block %d owned by %d bricks", name, blk, n)
		}
	}
	brick := func(c vec.I3) int { // of cell c; panics if c is off the grid
		g := c.Add(vec.NewI(BrickMargin, BrickMargin, BrickMargin))
		return (g.Z/BrickCells*b.Dims.Y+g.Y/BrickCells)*b.Dims.X + g.X/BrickCells
	}
	for z := -1; z <= d.Dims.Z; z++ {
		for y := -1; y <= d.Dims.Y; y++ {
			for x := -1; x <= d.Dims.X; x++ {
				c := vec.NewI(x, y, z)
				var ids [8]int32
				any := cellSites(d, c, &ids)
				want := false
				for i, id := range ids {
					corner := c.Add(vec.I3{X: i & 1, Y: i >> 1 & 1, Z: i >> 2})
					if int(id) != d.SiteAt(corner) {
						t.Fatalf("%s: cell %+v corner %d: id %d, SiteAt %d", name, c, i, id, d.SiteAt(corner))
					}
					want = want || id >= 0
				}
				if any != want {
					t.Fatalf("%s: cell %+v: cellSites reports %v, corners say %v", name, c, any, want)
				}
				if !any {
					continue
				}
				fluidCells++
				if b.Block[brick(c)] < 0 {
					t.Fatalf("%s: cell %+v has a fluid corner but its brick has no block", name, c)
				}
				for n := 0; n < 27; n++ {
					if nb := c.Add(vec.NewI(n%3-1, n/3%3-1, n/9-1)); b.Block[brick(nb)] == BrickEmpty {
						t.Fatalf("%s: cell %+v has a fluid corner but its neighbour %+v is in an empty brick", name, c, nb)
					}
				}
			}
		}
	}
	for k, occ := range bricksOracle(d) {
		if got := b.Block[k] != BrickEmpty; got != occ {
			t.Fatalf("%s: brick %d walk-occupied %v, the occupancy grid says %v", name, k, got, occ)
		}
	}
	return fluidCells
}

// fluidMask is a cell's mask from its corner ids.
func fluidMask(ids [8]int32) (m uint8) {
	for i, id := range ids {
		if id >= 0 {
			m |= 1 << i
		}
	}
	return m
}

// TestCornerBlocksMatchSiteAt is the property the ray-caster's
// exactness rests on (see checkCornerBlocks), over every preset and
// seeded random sparse domains of lone sites on brick planes, edges and
// corners.
func TestCornerBlocksMatchSiteAt(t *testing.T) {
	for _, name := range []string{"pipe", "bend", "bifurcation", "aneurysm", "tree", "stenosis"} {
		v, err := VesselByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Voxelise(v, 1, lattice.D3Q19())
		if err != nil {
			t.Fatal(err)
		}
		fluidCells := checkCornerBlocks(t, name, d)
		b := d.CornerBlocks()
		used := 0
		for _, blk := range b.Block {
			if blk != BrickEmpty {
				used++
			}
		}
		if fluidCells == 0 || b.NumBlocks() == 0 || used == len(b.Block) {
			t.Errorf("%s: %d fluid cells, %d blocks, %d of %d bricks walked: the table skips nothing or everything",
				name, fluidCells, b.NumBlocks(), used, len(b.Block))
		}
	}
	const seed = 20261018
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 300; i++ {
		d := sparseDomain(t, rng)
		checkCornerBlocks(t, fmt.Sprintf("seed %d domain %d (dims %+v, %d sites)", seed, i, d.Dims, d.NumSites()), d)
	}
}

// TestCornerBlocksBuiltOnce: concurrent first renders of one domain
// share one table (run under -race). The callers are guard's parcel
// participants.
func TestCornerBlocksBuiltOnce(t *testing.T) {
	d, err := Voxelise(Pipe(12, 3), 1, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*CornerBlocks, 8)
	guard.ForChunks(len(got), len(got), func(i int) { got[i] = d.CornerBlocks() })
	for _, b := range got {
		if b == nil || b != got[0] {
			t.Fatalf("CornerBlocks() returned %p, first caller got %p", b, got[0])
		}
	}
}

// BenchmarkCornerBlocks times the table's build on both bench/ domains
// against the occupancy grid it replaced; blocks and table-bytes are
// the table's size.
func BenchmarkCornerBlocks(b *testing.B) {
	for _, dom := range []struct {
		preset string
		scale  float64
	}{{"tree", 3}, {"aneurysm", 2}} {
		v, err := VesselByName(dom.preset, dom.scale)
		if err != nil {
			b.Fatal(err)
		}
		d, err := Voxelise(v, 1, lattice.D3Q19())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s@%.1f/blocks", dom.preset, dom.scale), func(b *testing.B) {
			var t *CornerBlocks
			for i := 0; i < b.N; i++ {
				t = buildCornerBlocks(d)
			}
			b.ReportMetric(float64(t.NumBlocks()), "blocks")
			b.ReportMetric(float64(t.Bytes()), "table-bytes")
		})
		b.Run(fmt.Sprintf("%s@%.1f/bricks", dom.preset, dom.scale), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bricksOracle(d)
			}
		})
	}
}
