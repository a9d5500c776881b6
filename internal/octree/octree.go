// Package octree implements the multi-resolution data structure of
// section V: simulation fields cached in a hierarchy where "each level
// on the tree corresponds to a set of data at a certain resolution",
// with hierarchical Z-order (Morton) indexing in the style of Pascucci
// & Frank for fast traversal, level-of-detail downsampling, and
// region-of-interest queries that combine coarse context with fine
// detail — the paper's mechanism for keeping exascale post-processing
// interactive.
package octree

import (
	"fmt"

	"repro/internal/geometry"
	"repro/internal/vec"
)

// Node aggregates the field values of all fluid sites beneath one
// octree cell. Level 0 cells are single lattice sites; level L cells
// cover 2^L sites per axis.
type Node struct {
	Level int
	// Key is the Morton code of the cell at its level (the
	// Pascucci-style hierarchical index: a parent's key is its child's
	// key shifted right by 3 bits).
	Key uint64
	// Count is the number of fluid sites aggregated.
	Count int
	// Mean field values over the covered fluid sites.
	MeanRho float64
	MeanU   vec.V3
	// MaxWSS and MeanWSS summarise wall shear stress below the cell.
	MaxWSS  float64
	MeanWSS float64
}

// Origin returns the cell's minimum corner in lattice coordinates.
func (n *Node) Origin() vec.I3 { return cellOrigin(n.Level, n.Key) }

// Size returns the cell edge length in lattice units.
func (n *Node) Size() int { return 1 << n.Level }

// Box returns the cell bounds in lattice coordinates.
func (n *Node) Box() vec.Box { return cellBox(n.Level, n.Key) }

// Tree is the level-indexed hierarchy. levels[l] for l ≥ 1 holds level
// l's cells in ascending Z-order; levels[len-1] holds the single root.
// The finest level is not copied: the at-th leaf is site lay.site[at],
// read from the fields the tree was built over, which the tree keeps
// and must never see written. A cell's children are a contiguous run
// of the level below: lay.firstChild[l][i] is where the run of cell i
// of level l starts and lay.firstChild[l][i+1] where it ends.
type Tree struct {
	levels [][]Node
	lay    *layout
	f      Fields
}

// Fields carries per-site scalar inputs for aggregation. Velocity
// components are mandatory; WSS may be nil.
type Fields struct {
	Rho        []float64
	Ux, Uy, Uz []float64
	WSS        []float64
}

// layout is the half of a Tree that depends on the geometry alone: the
// Z-order of the sites and, per level, the cells' keys and child runs. It is derived once per Domain (the Morton sort was most
// of a Build) and shared read-only by every tree over that domain.
type layout struct {
	// site[i] is the site id of the i-th leaf in Z-order.
	site []int32
	// keys[l] and firstChild[l] describe level l's cells in ascending
	// Z-order (firstChild[0] is nil: a leaf has no children).
	keys       [][]uint64
	firstChild [][]int32
}

type layoutKey struct{}

func layoutOf(dom *geometry.Domain) *layout {
	v, _ := dom.Derive(layoutKey{}, func() any { return buildLayout(dom) })
	return v.(*layout)
}

// keyed is a site under its Morton key.
type keyed struct {
	key  uint64
	site int32
}

// sortByKey sorts a by key, of which only the low bits bits are used:
// a least-significant-digit radix sort, 11 bits a pass, between a and
// one scratch slice of its size (the result is whichever holds the last
// pass). A comparison sort of the 80 k-site tree was most of deriving
// its layout, which the first /data request on a domain waits for.
func sortByKey(a []keyed, bits int) []keyed {
	const digit = 11
	b := make([]keyed, len(a))
	var count [1 << digit]int
	for shift := 0; shift < bits; shift += digit {
		clear(count[:])
		for i := range a {
			count[a[i].key>>shift&(1<<digit-1)]++
		}
		at := 0
		for d, c := range count {
			count[d], at = at, at+c
		}
		for i := range a {
			d := a[i].key >> shift & (1<<digit - 1)
			b[count[d]] = a[i]
			count[d]++
		}
		a, b = b, a
	}
	return a
}

func buildLayout(dom *geometry.Domain) *layout {
	n := dom.NumSites()
	maxDim := max(dom.Dims.X, dom.Dims.Y, dom.Dims.Z)
	depth := 1
	for (1 << (depth - 1)) < maxDim {
		depth++
	}
	lay := &layout{
		site:       make([]int32, n),
		keys:       make([][]uint64, depth),
		firstChild: make([][]int32, depth),
	}
	order := make([]keyed, n)
	for i := range dom.Sites {
		p := dom.Sites[i].Pos
		order[i] = keyed{morton(p.X, p.Y, p.Z), int32(i)}
	}
	order = sortByKey(order, 3*(depth-1))
	lay.keys[0] = make([]uint64, n)
	for at, o := range order {
		lay.site[at], lay.keys[0][at] = o.site, o.key
	}
	// Siblings are adjacent in the level below.
	for l := 1; l < depth; l++ {
		kids := lay.keys[l-1]
		parents := 0
		for i := range kids {
			if i == 0 || kids[i]>>3 != kids[i-1]>>3 {
				parents++
			}
		}
		keys := make([]uint64, 0, parents)
		first := make([]int32, 0, parents+1)
		for i, k := range kids {
			if i == 0 || k>>3 != kids[i-1]>>3 {
				keys = append(keys, k>>3)
				first = append(first, int32(i))
			}
		}
		lay.keys[l], lay.firstChild[l] = keys, append(first, int32(len(kids)))
	}
	return lay
}

// Build aggregates the fields of every fluid site of dom into a
// multi-resolution tree. Which cells exist and in what order is the
// domain's layout, derived on the first Build over dom; a Build is the
// value aggregation along it. Children fold into their parent in
// Z-order, so the same fields always give the same tree, bit for bit.
// The leaves are not copied: the tree reads them from f, so f's arrays
// must not be written while the tree is in use.
func Build(dom *geometry.Domain, f Fields) (*Tree, error) {
	n := dom.NumSites()
	if len(f.Rho) != n || len(f.Ux) != n || len(f.Uy) != n || len(f.Uz) != n {
		return nil, fmt.Errorf("octree: field lengths must equal %d sites", n)
	}
	if f.WSS != nil && len(f.WSS) != n {
		return nil, fmt.Errorf("octree: WSS length %d != %d", len(f.WSS), n)
	}
	lay := layoutOf(dom)
	depth := len(lay.keys)
	t := &Tree{levels: make([][]Node, depth), lay: lay, f: f}
	for l := 1; l < depth; l++ {
		first := lay.firstChild[l]
		level := make([]Node, len(lay.keys[l]))
		for i := range level {
			p := &level[i]
			p.Level, p.Key = l, lay.keys[l][i]
			if l == 1 { // the children are leaves: fold them from the fields
				for at := first[i]; at < first[i+1]; at++ {
					s := lay.site[at]
					wss := f.wss(s)
					p.fold(1, f.Rho[s], vec.New(f.Ux[s], f.Uy[s], f.Uz[s]), wss, wss)
				}
				continue
			}
			for _, c := range t.levels[l-1][first[i]:first[i+1]] {
				p.fold(c.Count, c.MeanRho, c.MeanU, c.MaxWSS, c.MeanWSS)
			}
		}
		t.levels[l] = level
	}
	return t, nil
}

// wss returns site s's wall shear stress, 0 without a WSS field.
func (f *Fields) wss(s int32) float64 {
	if f.WSS == nil {
		return 0
	}
	return f.WSS[s]
}

// fold adds a child cell of count sites with the given aggregates to p.
func (p *Node) fold(count int, rho float64, u vec.V3, maxWSS, meanWSS float64) {
	w := float64(count)
	pw := float64(p.Count)
	tot := pw + w
	p.MeanRho = (p.MeanRho*pw + rho*w) / tot
	p.MeanU = p.MeanU.Mul(pw / tot).Add(u.Mul(w / tot))
	p.MeanWSS = (p.MeanWSS*pw + meanWSS*w) / tot
	if maxWSS > p.MaxWSS {
		p.MaxWSS = maxWSS
	}
	p.Count += count
}

// Depth returns the number of levels (finest = 0).
func (t *Tree) Depth() int { return len(t.levels) }

// NodeCount returns the number of cells at a level.
func (t *Tree) NodeCount(level int) int {
	if level < 0 || level >= len(t.levels) {
		return 0
	}
	return len(t.lay.keys[level])
}

// ROI is a region-of-interest request: cells intersecting Box are
// refined to DetailLevel; everything else is reported at ContextLevel
// (coarser). Box is in lattice coordinates.
type ROI struct {
	Box          vec.Box
	DetailLevel  int // finer (smaller) level, e.g. 0
	ContextLevel int // coarser level, e.g. 3
}

// runs calls fn on roi's cover in Z-order, as runs [lo, hi) of the
// cells of one level.
func (t *Tree) runs(roi *ROI, fn func(level, lo, hi int)) {
	if top := len(t.levels) - 1; t.NodeCount(top) > 0 {
		t.cover(roi, top, 0, fn)
	}
}

// cover covers cell i of the given level. A cell at or below the
// detail level, or at or below the context level and apart from the
// box, is its own cover; a cell wholly inside the box is covered by all
// its descendants at the detail level, which in Z-order are one run of
// that level, found by following the first children down from the
// cell's run [i, i+1). Only the cells that straddle the box's boundary
// are covered child by child.
func (t *Tree) cover(roi *ROI, level, i int, fn func(level, lo, hi int)) {
	if level <= roi.DetailLevel {
		fn(level, i, i+1)
		return
	}
	box := cellBox(level, t.lay.keys[level][i])
	if level <= roi.ContextLevel && !boxesIntersect(box, roi.Box) {
		fn(level, i, i+1)
		return
	}
	if boxInside(box, roi.Box) {
		lo, hi := i, i+1
		for l := level; l > roi.DetailLevel; l-- {
			first := t.lay.firstChild[l]
			lo, hi = int(first[lo]), int(first[hi])
		}
		fn(roi.DetailLevel, lo, hi)
		return
	}
	first := t.lay.firstChild[level]
	for c := int(first[i]); c < int(first[i+1]); c++ {
		t.cover(roi, level-1, c, fn)
	}
}

func boxesIntersect(a, b vec.Box) bool {
	return a.Min.X < b.Max.X && b.Min.X < a.Max.X &&
		a.Min.Y < b.Max.Y && b.Min.Y < a.Max.Y &&
		a.Min.Z < b.Max.Z && b.Min.Z < a.Max.Z
}

// boxInside reports whether a lies within b, faces included. A cell
// (never empty) inside b also intersects it, and so do all its
// descendants.
func boxInside(a, b vec.Box) bool {
	return b.Min.X <= a.Min.X && a.Max.X <= b.Max.X &&
		b.Min.Y <= a.Min.Y && a.Max.Y <= b.Max.Y &&
		b.Min.Z <= a.Min.Z && a.Max.Z <= b.Max.Z
}

// cellOrigin returns the minimum corner of the cell with the given key
// at a level.
func cellOrigin(level int, key uint64) vec.I3 {
	x, y, z := unmorton(key)
	s := 1 << level
	return vec.I3{X: x * s, Y: y * s, Z: z * s}
}

// cellBox returns the bounds of the cell with the given key at a level.
func cellBox(level int, key uint64) vec.Box {
	o := cellOrigin(level, key).F()
	return vec.NewBox(o, o.Add(vec.Splat(float64(int(1)<<level))))
}

// morton interleaves three 21-bit coordinates into a 63-bit key.
func morton(x, y, z int) uint64 {
	return spread(uint64(x)) | spread(uint64(y))<<1 | spread(uint64(z))<<2
}

// unmorton is the inverse of morton.
func unmorton(key uint64) (x, y, z int) {
	return int(compact(key)), int(compact(key >> 1)), int(compact(key >> 2))
}

func spread(x uint64) uint64 {
	x &= 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

func compact(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x | x>>2) & 0x10c30c30c30c30c3
	x = (x | x>>4) & 0x100f00f00f00f00f
	x = (x | x>>8) & 0x1f0000ff0000ff
	x = (x | x>>16) & 0x1f00000000ffff
	x = (x | x>>32) & 0x1fffff
	return x
}
