// Package partition provides the domain-decomposition layer of the
// co-design: the role ParMETIS plays in HemeLB (section IV-A/B of the
// paper). It builds the site-connectivity graph from a voxelised
// geometry and offers several partitioners — a multilevel k-way method
// of the ParMETIS family, recursive coordinate bisection, a Morton
// space-filling-curve method and a naive contiguous-block split — plus
// the balance and edge-cut metrics the paper's "balance equation"
// discussion needs, including combined solver+visualisation vertex
// weights and adaptive repartitioning.
package partition

import (
	"fmt"
	"math"

	"repro/internal/geometry"
	"repro/internal/vec"
)

// Graph is an undirected weighted graph in CSR form. Vertex i's
// neighbours are Adjncy[Xadj[i]:Xadj[i+1]] with parallel edge weights
// EWgt. VWgt holds per-vertex computational weights; Coords optional
// vertex positions for geometric partitioners.
type Graph struct {
	N      int
	Xadj   []int32
	Adjncy []int32
	VWgt   []float64
	EWgt   []float64
	Coords []vec.V3
}

// TotalVWgt returns the sum of all vertex weights.
func (g *Graph) TotalVWgt() float64 {
	s := 0.0
	for _, w := range g.VWgt {
		s += w
	}
	return s
}

// FromDomain builds the site graph of a voxelised vessel: one vertex
// per fluid site, one edge per fluid link (each undirected edge stored
// twice in CSR). Vertex weights default to 1 (pure fluid-solver cost);
// edge weights default to 1 per shared link (halo-exchange volume).
func FromDomain(d *geometry.Domain) *Graph {
	n := d.NumSites()
	g := &Graph{
		N:      n,
		Xadj:   make([]int32, n+1),
		VWgt:   make([]float64, n),
		Coords: make([]vec.V3, n),
	}
	// A vertex's degree is its number of fluid links: counting them
	// needs no neighbour lookup, so each link is resolved once, below.
	for si := range d.Sites {
		deg := int32(0)
		for _, l := range d.Sites[si].Links {
			if l.Type == geometry.LinkFluid {
				deg++
			}
		}
		g.Xadj[si+1] = g.Xadj[si] + deg
		g.VWgt[si] = 1
		g.Coords[si] = d.Sites[si].Pos.F()
	}
	g.Adjncy = make([]int32, g.Xadj[n])
	g.EWgt = make([]float64, g.Xadj[n])
	var nb [32]int32 // room for any model's Q-1 directions
	for si := range d.Sites {
		at := g.Xadj[si]
		d.Neighbours(si, nb[:])
		for i, l := range d.Sites[si].Links {
			if l.Type == geometry.LinkFluid && nb[i] >= 0 {
				g.Adjncy[at] = nb[i]
				g.EWgt[at] = 1
				at++
			}
		}
	}
	return g
}

// ApplyVizWeights augments vertex weights with a visualisation cost
// term, the paper's key pre-processing extension: "costs of other
// simulation parts, like visualisation, must be involved in the balance
// equation". vizCost[i] is added to the solver weight of vertex i
// scaled by alpha.
func (g *Graph) ApplyVizWeights(vizCost []float64, alpha float64) error {
	if len(vizCost) != g.N {
		return fmt.Errorf("partition: viz cost length %d != %d vertices", len(vizCost), g.N)
	}
	for i := range g.VWgt {
		g.VWgt[i] += alpha * vizCost[i]
	}
	return nil
}

// Partition assigns each vertex to a part in [0, K).
type Partition struct {
	K     int
	Parts []int32
}

// Valid reports whether every vertex has a part in range, with an
// explanatory error otherwise.
func (p *Partition) Valid(n int) error {
	if len(p.Parts) != n {
		return fmt.Errorf("partition: %d assignments for %d vertices", len(p.Parts), n)
	}
	for v, part := range p.Parts {
		if part < 0 || int(part) >= p.K {
			return fmt.Errorf("partition: vertex %d assigned to part %d outside [0,%d)", v, part, p.K)
		}
	}
	return nil
}

// PartWeights returns the total vertex weight of each part.
func (p *Partition) PartWeights(g *Graph) []float64 {
	w := make([]float64, p.K)
	for v, part := range p.Parts {
		w[part] += g.VWgt[v]
	}
	return w
}

// Imbalance returns max part weight divided by mean part weight; 1.0 is
// perfect balance.
func (p *Partition) Imbalance(g *Graph) float64 {
	w := p.PartWeights(g)
	total, maxW := 0.0, 0.0
	for _, x := range w {
		total += x
		if x > maxW {
			maxW = x
		}
	}
	if total == 0 {
		return 1
	}
	return maxW / (total / float64(p.K))
}

// EdgeCut returns the total weight of edges crossing part boundaries
// (each undirected edge counted once).
func (p *Partition) EdgeCut(g *Graph) float64 {
	cut := 0.0
	for v := 0; v < g.N; v++ {
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			u := g.Adjncy[e]
			if int32(v) < u && p.Parts[v] != p.Parts[u] {
				cut += g.EWgt[e]
			}
		}
	}
	return cut
}

// BoundaryVertices returns the number of vertices with at least one
// neighbour in another part — the halo size the solver must exchange.
func (p *Partition) BoundaryVertices(g *Graph) int {
	n := 0
	for v := 0; v < g.N; v++ {
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			if p.Parts[g.Adjncy[e]] != p.Parts[v] {
				n++
				break
			}
		}
	}
	return n
}

// MigrationVolume returns the number of vertices whose assignment
// differs between p and q — the data-redistribution cost of a
// repartitioning step.
func MigrationVolume(p, q *Partition) int {
	n := 0
	for i := range p.Parts {
		if p.Parts[i] != q.Parts[i] {
			n++
		}
	}
	return n
}

// quality summarises a partition for benches and logs.
type Quality struct {
	Imbalance float64
	EdgeCut   float64
	Boundary  int
}

// Measure computes the standard quality triple.
func Measure(g *Graph, p *Partition) Quality {
	return Quality{
		Imbalance: p.Imbalance(g),
		EdgeCut:   p.EdgeCut(g),
		Boundary:  p.BoundaryVertices(g),
	}
}

// sanity guards shared by all partitioners.
func checkArgs(g *Graph, k int) error {
	if g == nil || g.N == 0 {
		return fmt.Errorf("partition: empty graph")
	}
	if k <= 0 {
		return fmt.Errorf("partition: k must be positive, got %d", k)
	}
	return nil
}

// Block splits vertices into K contiguous index ranges of near-equal
// vertex weight. It ignores connectivity entirely — the baseline the
// paper's "initial approximate load balance" improves on.
func Block(g *Graph, k int) (*Partition, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	p := &Partition{K: k, Parts: make([]int32, g.N)}
	total := g.TotalVWgt()
	target := total / float64(k)
	part, acc := 0, 0.0
	for v := 0; v < g.N; v++ {
		if acc >= target*float64(part+1) && part < k-1 {
			part++
		}
		p.Parts[v] = int32(part)
		acc += g.VWgt[v]
	}
	return p, nil
}

// Morton orders vertices along a Z-order space-filling curve of their
// coordinates and cuts the curve into K equal-weight segments. SFC
// partitions have good locality at near-zero cost — a common ParMETIS
// alternative for lattice codes.
func Morton(g *Graph, k int) (*Partition, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	if g.Coords == nil {
		return nil, fmt.Errorf("partition: Morton needs coordinates")
	}
	order := make([]int, g.N)
	keys := make([]uint64, g.N)
	for v := 0; v < g.N; v++ {
		order[v] = v
		keys[v] = mortonKey(g.Coords[v])
	}
	sortByKey(order, keys)
	p := &Partition{K: k, Parts: make([]int32, g.N)}
	total := g.TotalVWgt()
	target := total / float64(k)
	part, acc := 0, 0.0
	for _, v := range order {
		if acc >= target*float64(part+1) && part < k-1 {
			part++
		}
		p.Parts[v] = int32(part)
		acc += g.VWgt[v]
	}
	return p, nil
}

// mortonKey interleaves the low 21 bits of each (truncated) coordinate.
func mortonKey(c vec.V3) uint64 {
	x := uint64(int64(math.Max(0, c.X))) & ((1 << 21) - 1)
	y := uint64(int64(math.Max(0, c.Y))) & ((1 << 21) - 1)
	z := uint64(int64(math.Max(0, c.Z))) & ((1 << 21) - 1)
	return spread3(x) | spread3(y)<<1 | spread3(z)<<2
}

// spread3 spaces the low 21 bits of x three apart.
func spread3(x uint64) uint64 {
	x &= 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// sortByKey sorts order by ascending keys (simple in-place introsort
// replacement via sort-friendly slices would pull in reflection; a
// bottom-up merge keeps it allocation-predictable for large N).
func sortByKey(order []int, keys []uint64) {
	n := len(order)
	tmpO := make([]int, n)
	tmpK := make([]uint64, n)
	for width := 1; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid := min(lo+width, n)
			hi := min(lo+2*width, n)
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if keys[i] <= keys[j] {
					tmpO[k], tmpK[k] = order[i], keys[i]
					i++
				} else {
					tmpO[k], tmpK[k] = order[j], keys[j]
					j++
				}
				k++
			}
			for i < mid {
				tmpO[k], tmpK[k] = order[i], keys[i]
				i++
				k++
			}
			for j < hi {
				tmpO[k], tmpK[k] = order[j], keys[j]
				j++
				k++
			}
		}
		copy(order, tmpO)
		copy(keys, tmpK)
	}
}

// RCB partitions by recursive coordinate bisection: split the widest
// axis at the weighted median, recurse. Produces compact axis-aligned
// subdomains.
func RCB(g *Graph, k int) (*Partition, error) {
	if err := checkArgs(g, k); err != nil {
		return nil, err
	}
	if g.Coords == nil {
		return nil, fmt.Errorf("partition: RCB needs coordinates")
	}
	p := &Partition{K: k, Parts: make([]int32, g.N)}
	verts := make([]int, g.N)
	for i := range verts {
		verts[i] = i
	}
	rcbRecurse(g, verts, 0, k, p)
	return p, nil
}

func rcbRecurse(g *Graph, verts []int, base, k int, p *Partition) {
	if k == 1 || len(verts) == 0 {
		for _, v := range verts {
			p.Parts[v] = int32(base)
		}
		return
	}
	kl := k / 2
	kr := k - kl
	// Widest axis over this subset.
	lo := g.Coords[verts[0]]
	hi := lo
	for _, v := range verts[1:] {
		lo = lo.Min(g.Coords[v])
		hi = hi.Max(g.Coords[v])
	}
	size := hi.Sub(lo)
	axis := 0
	if size.Y > size.X && size.Y >= size.Z {
		axis = 1
	} else if size.Z > size.X && size.Z > size.Y {
		axis = 2
	}
	coord := func(v int) float64 {
		c := g.Coords[v]
		switch axis {
		case 0:
			return c.X
		case 1:
			return c.Y
		}
		return c.Z
	}
	// Sort subset by axis coordinate, then cut at the weighted split
	// proportional to kl/k.
	keys := make([]uint64, len(verts))
	for i, v := range verts {
		keys[i] = math.Float64bits(coord(v) + 1e9) // shift positive keeps order for our coords
	}
	sortByKey(verts, keys)
	total := 0.0
	for _, v := range verts {
		total += g.VWgt[v]
	}
	target := total * float64(kl) / float64(k)
	acc := 0.0
	split := 0
	for i, v := range verts {
		if acc >= target {
			split = i
			break
		}
		acc += g.VWgt[v]
		split = i + 1
	}
	rcbRecurse(g, verts[:split], base, kl, p)
	rcbRecurse(g, verts[split:], base+kl, kr, p)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
