package geometry

import (
	"math"
	"testing"

	"repro/internal/guard"
	"repro/internal/lattice"
	"repro/internal/vec"
)

// TestBricksConservative is the property the ray-caster's exactness
// rests on, over every preset: CellSites agrees with SiteAt on every
// cell a sample inside the bounding lattice can name (-1..Dims, the
// border fallback included), and every cell with a fluid corner lies,
// together with its 26 neighbours, in an occupied brick.
func TestBricksConservative(t *testing.T) {
	for _, name := range []string{"pipe", "bend", "bifurcation", "aneurysm", "tree", "stenosis"} {
		v, err := VesselByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		d, err := Voxelise(v, 1, lattice.D3Q19())
		if err != nil {
			t.Fatal(err)
		}
		b := d.Bricks()
		if got := len(b.Occupied); got != b.Dims.X*b.Dims.Y*b.Dims.Z {
			t.Fatalf("%s: %d bricks for dims %+v", name, got, b.Dims)
		}
		occupied := func(c vec.I3) bool { // brick of cell c; panics if c is off the grid
			g := c.Add(vec.NewI(BrickMargin, BrickMargin, BrickMargin))
			return b.Occupied[(g.Z/BrickCells*b.Dims.Y+g.Y/BrickCells)*b.Dims.X+g.X/BrickCells]
		}
		fluidCells, used := 0, 0
		for z := -1; z <= d.Dims.Z; z++ {
			for y := -1; y <= d.Dims.Y; y++ {
				for x := -1; x <= d.Dims.X; x++ {
					c := vec.NewI(x, y, z)
					var ids [8]int32
					any := d.CellSites(c, &ids)
					want := false
					for i, id := range ids {
						corner := c.Add(vec.I3{X: i & 1, Y: i >> 1 & 1, Z: i >> 2})
						if int(id) != d.SiteAt(corner) {
							t.Fatalf("%s: cell %+v corner %d: id %d, SiteAt %d", name, c, i, id, d.SiteAt(corner))
						}
						want = want || id >= 0
					}
					if any != want {
						t.Fatalf("%s: cell %+v: CellSites reports %v, corners say %v", name, c, any, want)
					}
					if !any {
						continue
					}
					fluidCells++
					for n := 0; n < 27; n++ {
						if nb := c.Add(vec.NewI(n%3-1, n/3%3-1, n/9-1)); !occupied(nb) {
							t.Fatalf("%s: cell %+v has a fluid corner but its neighbour %+v is in an empty brick", name, c, nb)
						}
					}
				}
			}
		}
		// A sample position beyond int range converts to either extreme.
		for _, far := range []int{math.MaxInt, math.MinInt} {
			var ids [8]int32
			if d.CellSites(vec.NewI(far, 1, 1), &ids) || d.CellSites(vec.NewI(1, 1, far), &ids) {
				t.Errorf("%s: cell at %d reports fluid", name, far)
			}
		}
		for _, o := range b.Occupied {
			if o {
				used++
			}
		}
		if fluidCells == 0 || used == 0 || used == len(b.Occupied) {
			t.Errorf("%s: %d fluid cells, %d of %d bricks occupied: the grid skips nothing or everything", name, fluidCells, used, len(b.Occupied))
		}
	}
}

// TestBricksBuiltOnce: concurrent first renders of one domain share one
// grid (run under -race). The callers are guard's parcel participants.
func TestBricksBuiltOnce(t *testing.T) {
	d, err := Voxelise(Pipe(12, 3), 1, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Bricks, 8)
	guard.ForChunks(len(got), len(got), func(i int) { got[i] = d.Bricks() })
	for _, b := range got {
		if b == nil || b != got[0] {
			t.Fatalf("Bricks() returned %p, first caller got %p", b, got[0])
		}
	}
}
