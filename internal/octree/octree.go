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
	"cmp"
	"fmt"
	"math"
	"slices"

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
func (n *Node) Origin() vec.I3 {
	x, y, z := unmorton(n.Key)
	s := 1 << n.Level
	return vec.I3{X: x * s, Y: y * s, Z: z * s}
}

// Size returns the cell edge length in lattice units.
func (n *Node) Size() int { return 1 << n.Level }

// Box returns the cell bounds in lattice coordinates.
func (n *Node) Box() vec.Box {
	o := n.Origin().F()
	s := float64(n.Size())
	return vec.NewBox(o, o.Add(vec.Splat(s)))
}

// Tree is the level-indexed hierarchy. levels[0] holds the finest
// cells; levels[len-1] holds the single root. Each level is one slab of
// cells in ascending Z-order, so a cell's children are a contiguous run
// of the level below: firstChild[l][i] is where the run of cell i of
// level l starts and firstChild[l][i+1] where it ends (firstChild[0] is
// nil — sites have no children).
type Tree struct {
	levels     [][]Node
	firstChild [][]int32
	dims       vec.I3
}

// Fields carries per-site scalar inputs for aggregation. Velocity
// components are mandatory; WSS may be nil.
type Fields struct {
	Rho        []float64
	Ux, Uy, Uz []float64
	WSS        []float64
}

// Build aggregates the fields of every fluid site of dom into a
// multi-resolution tree. Children fold into their parent in Z-order, so
// the same fields always give the same tree, bit for bit.
func Build(dom *geometry.Domain, f Fields) (*Tree, error) {
	n := dom.NumSites()
	if len(f.Rho) != n || len(f.Ux) != n || len(f.Uy) != n || len(f.Uz) != n {
		return nil, fmt.Errorf("octree: field lengths must equal %d sites", n)
	}
	if f.WSS != nil && len(f.WSS) != n {
		return nil, fmt.Errorf("octree: WSS length %d != %d", len(f.WSS), n)
	}
	maxDim := dom.Dims.X
	if dom.Dims.Y > maxDim {
		maxDim = dom.Dims.Y
	}
	if dom.Dims.Z > maxDim {
		maxDim = dom.Dims.Z
	}
	depth := 1
	for (1 << (depth - 1)) < maxDim {
		depth++
	}
	t := &Tree{levels: make([][]Node, depth), firstChild: make([][]int32, depth), dims: dom.Dims}

	// Finest level: one node per site, in Z-order.
	type keyed struct {
		key  uint64
		site int32
	}
	order := make([]keyed, n)
	for i := range dom.Sites {
		p := dom.Sites[i].Pos
		order[i] = keyed{morton(p.X, p.Y, p.Z), int32(i)}
	}
	slices.SortFunc(order, func(a, b keyed) int { return cmp.Compare(a.key, b.key) })
	leaves := make([]Node, n)
	for at, o := range order {
		i := o.site
		wss := 0.0
		if f.WSS != nil {
			wss = f.WSS[i]
		}
		leaves[at] = Node{
			Level:   0,
			Key:     o.key,
			Count:   1,
			MeanRho: f.Rho[i],
			MeanU:   vec.New(f.Ux[i], f.Uy[i], f.Uz[i]),
			MaxWSS:  wss,
			MeanWSS: wss,
		}
	}
	t.levels[0] = leaves

	// Aggregate upward: siblings are adjacent in the level below.
	for l := 1; l < depth; l++ {
		kids := t.levels[l-1]
		parents := 0
		for i := range kids {
			if i == 0 || kids[i].Key>>3 != kids[i-1].Key>>3 {
				parents++
			}
		}
		level := make([]Node, 0, parents)
		first := make([]int32, 0, parents+1)
		for i := range kids {
			child := &kids[i]
			pk := child.Key >> 3
			if i == 0 || pk != kids[i-1].Key>>3 {
				level = append(level, Node{Level: l, Key: pk})
				first = append(first, int32(i))
			}
			p := &level[len(level)-1]
			w := float64(child.Count)
			pw := float64(p.Count)
			tot := pw + w
			p.MeanRho = (p.MeanRho*pw + child.MeanRho*w) / tot
			p.MeanU = p.MeanU.Mul(pw / tot).Add(child.MeanU.Mul(w / tot))
			p.MeanWSS = (p.MeanWSS*pw + child.MeanWSS*w) / tot
			if child.MaxWSS > p.MaxWSS {
				p.MaxWSS = child.MaxWSS
			}
			p.Count += child.Count
		}
		t.levels[l] = level
		t.firstChild[l] = append(first, int32(len(kids)))
	}
	return t, nil
}

// Depth returns the number of levels (finest = 0).
func (t *Tree) Depth() int { return len(t.levels) }

// NodeCount returns the number of cells at a level.
func (t *Tree) NodeCount(level int) int {
	if level < 0 || level >= len(t.levels) {
		return 0
	}
	return len(t.levels[level])
}

// search returns the index in level of the first cell whose key is at
// least key.
func (t *Tree) search(level int, key uint64) int {
	i, _ := slices.BinarySearchFunc(t.levels[level], key, func(n Node, key uint64) int { return cmp.Compare(n.Key, key) })
	return i
}

// At returns the node with the given key at a level, or nil.
func (t *Tree) At(level int, key uint64) *Node {
	if level < 0 || level >= len(t.levels) {
		return nil
	}
	nodes := t.levels[level]
	if i := t.search(level, key); i < len(nodes) && nodes[i].Key == key {
		return &nodes[i]
	}
	return nil
}

// Level returns all cells of one level in ascending Z-order — the
// adaptive-traversal order of the hierarchical index.
func (t *Tree) Level(level int) []*Node {
	if level < 0 || level >= len(t.levels) {
		return nil
	}
	nodes := t.levels[level]
	out := make([]*Node, len(nodes))
	for i := range nodes {
		out[i] = &nodes[i]
	}
	return out
}

// Root returns the top-level node containing everything (key 0 at the
// top level).
func (t *Tree) Root() *Node { return t.At(len(t.levels)-1, 0) }

// Children returns the up-to-8 children of a node in Z-order.
func (t *Tree) Children(n *Node) []*Node {
	if n.Level <= 0 || n.Level >= len(t.levels) {
		return nil
	}
	kids := t.levels[n.Level-1]
	var out []*Node
	for i := t.search(n.Level-1, n.Key<<3); i < len(kids) && kids[i].Key>>3 == n.Key; i++ {
		out = append(out, &kids[i])
	}
	return out
}

// ROI is a region-of-interest request: cells intersecting Box are
// refined to DetailLevel; everything else is reported at ContextLevel
// (coarser). Box is in lattice coordinates.
type ROI struct {
	Box          vec.Box
	DetailLevel  int // finer (smaller) level, e.g. 0
	ContextLevel int // coarser level, e.g. 3
}

// Query returns a non-overlapping cover of the fluid domain honouring
// the ROI: the paper's "context and detail" access pattern. Nodes
// outside the ROI appear at ContextLevel; nodes intersecting it are
// subdivided down to DetailLevel.
func (t *Tree) Query(roi ROI) ([]*Node, error) {
	if roi.DetailLevel < 0 || roi.ContextLevel >= len(t.levels) || roi.DetailLevel > roi.ContextLevel {
		return nil, fmt.Errorf("octree: invalid ROI levels detail=%d context=%d depth=%d",
			roi.DetailLevel, roi.ContextLevel, len(t.levels))
	}
	top := len(t.levels) - 1
	if len(t.levels[top]) == 0 {
		return nil, nil
	}
	return t.cover(nil, &roi, top, 0), nil
}

// cover appends to out the cover of cell i of the given level.
func (t *Tree) cover(out []*Node, roi *ROI, level, i int) []*Node {
	n := &t.levels[level][i]
	if level <= roi.DetailLevel || (level <= roi.ContextLevel && !boxesIntersect(n.Box(), roi.Box)) {
		return append(out, n)
	}
	first := t.firstChild[level]
	for c := int(first[i]); c < int(first[i+1]); c++ {
		out = t.cover(out, roi, level-1, c)
	}
	return out
}

// CoverCount returns the total fluid sites covered by a node list —
// used to assert Query covers the domain exactly once.
func CoverCount(nodes []*Node) int {
	total := 0
	for _, n := range nodes {
		total += n.Count
	}
	return total
}

// DataVolume returns the bytes needed to ship a node list to a
// post-processing client (the reduction §V is after): each node costs
// one position key + the aggregated fields.
func DataVolume(nodes []*Node) int {
	const perNode = 8 + 8 + 3*8 + 8 + 8 // key, rho, u, maxWSS, meanWSS
	return perNode * len(nodes)
}

func boxesIntersect(a, b vec.Box) bool {
	return a.Min.X < b.Max.X && b.Min.X < a.Max.X &&
		a.Min.Y < b.Max.Y && b.Min.Y < a.Max.Y &&
		a.Min.Z < b.Max.Z && b.Min.Z < a.Max.Z
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

// SampleVelocity returns the mean velocity of the finest cell
// containing lattice point p at or above minLevel, or (zero, false) if
// no fluid exists there. Visualisation uses it to interpolate on
// reduced data.
func (t *Tree) SampleVelocity(p vec.I3, minLevel int) (vec.V3, bool) {
	if minLevel < 0 {
		minLevel = 0
	}
	key := morton(p.X, p.Y, p.Z) >> (3 * uint(minLevel))
	for l := minLevel; l < len(t.levels); l++ {
		if n := t.At(l, key); n != nil {
			return n.MeanU, true
		}
		key >>= 3
	}
	return vec.V3{}, false
}

// LevelResolution returns the effective lattice spacing multiplier of a
// level (2^level).
func LevelResolution(level int) float64 { return math.Pow(2, float64(level)) }
