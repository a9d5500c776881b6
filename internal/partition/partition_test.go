package partition

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/geometry"
	"repro/internal/lattice"
	"repro/internal/vec"
)

// linkNeighbour is the site a fluid link of site si in direction q
// leads to, -1 for any other link: the per-link lookup the graph
// oracle resolves neighbours with, independent of Domain.Neighbours.
func linkNeighbour(d *geometry.Domain, si, q int) int {
	s := &d.Sites[si]
	if s.Links[q-1].Type != geometry.LinkFluid {
		return -1
	}
	c := d.Model.C[q]
	return d.SiteAt(s.Pos.Add(vec.I3{X: c[0], Y: c[1], Z: c[2]}))
}

// gridGraph builds an nx x ny 2D grid graph with unit weights.
func gridGraph(nx, ny int) *Graph {
	n := nx * ny
	g := &Graph{N: n, Xadj: make([]int32, n+1), VWgt: make([]float64, n), Coords: make([]vec.V3, n)}
	var adj []int32
	var ew []float64
	id := func(x, y int) int32 { return int32(y*nx + x) }
	for y := 0; y < ny; y++ {
		for x := 0; x < nx; x++ {
			v := id(x, y)
			g.VWgt[v] = 1
			g.Coords[v] = vec.New(float64(x), float64(y), 0)
			if x > 0 {
				adj = append(adj, id(x-1, y))
				ew = append(ew, 1)
			}
			if x < nx-1 {
				adj = append(adj, id(x+1, y))
				ew = append(ew, 1)
			}
			if y > 0 {
				adj = append(adj, id(x, y-1))
				ew = append(ew, 1)
			}
			if y < ny-1 {
				adj = append(adj, id(x, y+1))
				ew = append(ew, 1)
			}
			g.Xadj[v+1] = int32(len(adj))
		}
	}
	g.Adjncy = adj
	g.EWgt = ew
	return g
}

func pipeGraph(t testing.TB) *Graph {
	t.Helper()
	d, err := geometry.Voxelise(geometry.Pipe(24, 4), 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	return FromDomain(d)
}

func TestFromDomainSymmetric(t *testing.T) {
	g := pipeGraph(t)
	// CSR must be symmetric: edge (v,u) implies (u,v).
	type pair struct{ a, b int32 }
	seen := map[pair]bool{}
	for v := 0; v < g.N; v++ {
		for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
			seen[pair{int32(v), g.Adjncy[e]}] = true
		}
	}
	for p := range seen {
		if !seen[pair{p.b, p.a}] {
			t.Fatalf("edge (%d,%d) has no reverse", p.a, p.b)
		}
	}
}

func TestFromDomainDegreesBounded(t *testing.T) {
	g := pipeGraph(t)
	for v := 0; v < g.N; v++ {
		if d := g.Xadj[v+1] - g.Xadj[v]; d < 1 || d > 18 {
			t.Fatalf("vertex %d degree %d outside [1,18]", v, d)
		}
	}
}

func TestAllMethodsProduceValidPartitions(t *testing.T) {
	g := pipeGraph(t)
	for _, m := range Methods() {
		for _, k := range []int{1, 2, 4, 8} {
			p, err := ByMethod(m, g, k, 7)
			if err != nil {
				t.Fatalf("%s k=%d: %v", m, k, err)
			}
			if err := p.Valid(g.N); err != nil {
				t.Fatalf("%s k=%d: %v", m, k, err)
			}
			// Every part must be non-empty for reasonable k.
			w := p.PartWeights(g)
			for part, x := range w {
				if x == 0 {
					t.Errorf("%s k=%d: part %d empty", m, k, part)
				}
			}
		}
	}
}

func TestImbalanceBounds(t *testing.T) {
	g := pipeGraph(t)
	for _, m := range Methods() {
		p, err := ByMethod(m, g, 8, 7)
		if err != nil {
			t.Fatal(err)
		}
		imb := p.Imbalance(g)
		if imb < 1.0 {
			t.Errorf("%s: imbalance %v < 1", m, imb)
		}
		limit := 1.35
		if m == MethodMultilevel {
			limit = 1.15
		}
		if imb > limit {
			t.Errorf("%s: imbalance %v exceeds %v", m, imb, limit)
		}
	}
}

func TestMultilevelBeatsBlockOnEdgeCut(t *testing.T) {
	g := gridGraph(40, 40)
	pb, err := Block(g, 8)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := MultilevelKWay(g, 8, MLOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cb, cm := pb.EdgeCut(g), pm.EdgeCut(g)
	if cm >= cb {
		t.Errorf("multilevel cut %v should beat block cut %v", cm, cb)
	}
}

func TestEdgeCutZeroForK1(t *testing.T) {
	g := gridGraph(10, 10)
	p, err := MultilevelKWay(g, 1, MLOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if cut := p.EdgeCut(g); cut != 0 {
		t.Errorf("k=1 edge cut = %v", cut)
	}
	if imb := p.Imbalance(g); imb != 1 {
		t.Errorf("k=1 imbalance = %v", imb)
	}
}

// TestPartitionInvariantProperty: for random small grids and k, every
// partitioner assigns every vertex exactly one part in range and
// conserves total weight.
func TestPartitionInvariantProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx := 4 + rng.Intn(12)
		ny := 4 + rng.Intn(12)
		k := 1 + rng.Intn(6)
		g := gridGraph(nx, ny)
		for _, m := range Methods() {
			p, err := ByMethod(m, g, k, seed)
			if err != nil {
				return false
			}
			if p.Valid(g.N) != nil {
				return false
			}
			w := p.PartWeights(g)
			sum := 0.0
			for _, x := range w {
				sum += x
			}
			if sum != g.TotalVWgt() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestMortonKeyLocality(t *testing.T) {
	// Adjacent points must have closer Morton keys than far points,
	// statistically: check the basic bit interleave on exact values.
	k000 := mortonKey(vec.New(0, 0, 0))
	k100 := mortonKey(vec.New(1, 0, 0))
	k010 := mortonKey(vec.New(0, 1, 0))
	k001 := mortonKey(vec.New(0, 0, 1))
	if k000 != 0 {
		t.Errorf("key(0,0,0) = %d", k000)
	}
	if k100 != 1 || k010 != 2 || k001 != 4 {
		t.Errorf("unit keys = %d %d %d, want 1 2 4", k100, k010, k001)
	}
}

func TestSpread3(t *testing.T) {
	if spread3(0b111) != 0b100100100&0x1249249249249249|0b100100100 {
		// spread3(7) must be 0b100100100.
		if spread3(7) != 0x49 {
			t.Errorf("spread3(7) = %#x, want 0x49", spread3(7))
		}
	}
	if spread3(1) != 1 {
		t.Errorf("spread3(1) = %d", spread3(1))
	}
}

func TestSortByKey(t *testing.T) {
	order := []int{0, 1, 2, 3, 4}
	keys := []uint64{5, 3, 4, 1, 2}
	sortByKey(order, keys)
	want := []int{3, 4, 1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("keys not sorted: %v", keys)
		}
	}
}

func TestApplyVizWeightsChangesBalanceTarget(t *testing.T) {
	g := gridGraph(20, 20)
	// Viz cost concentrated on the left half (e.g. the region a user's
	// ROI renders).
	viz := make([]float64, g.N)
	for v := 0; v < g.N; v++ {
		if g.Coords[v].X < 10 {
			viz[v] = 3
		}
	}
	if err := g.ApplyVizWeights(viz, 1.0); err != nil {
		t.Fatal(err)
	}
	p, err := MultilevelKWay(g, 4, MLOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if imb := p.Imbalance(g); imb > 1.15 {
		t.Errorf("viz-weighted imbalance = %v", imb)
	}
	// The left (expensive) half should hold fewer vertices per part on
	// average than the right half.
	leftCount := map[int32]int{}
	for v := 0; v < g.N; v++ {
		if g.Coords[v].X < 10 {
			leftCount[p.Parts[v]]++
		}
	}
	// At least two parts should share the expensive region.
	if len(leftCount) < 2 {
		t.Errorf("expensive region assigned to only %d part(s)", len(leftCount))
	}
}

func TestApplyVizWeightsLengthMismatch(t *testing.T) {
	g := gridGraph(4, 4)
	if err := g.ApplyVizWeights([]float64{1}, 1); err == nil {
		t.Error("length mismatch must error")
	}
}

func TestRepartitionRestoresBalance(t *testing.T) {
	g := gridGraph(30, 30)
	p0, err := MultilevelKWay(g, 6, MLOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Perturb weights: one corner becomes 5x as expensive (viz hotspot).
	for v := 0; v < g.N; v++ {
		c := g.Coords[v]
		if c.X < 10 && c.Y < 10 {
			g.VWgt[v] = 5
		}
	}
	imbBefore := p0.Imbalance(g)
	p1, err := Repartition(g, p0, 1.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	imbAfter := p1.Imbalance(g)
	if imbAfter >= imbBefore {
		t.Errorf("repartition did not improve balance: %v -> %v", imbBefore, imbAfter)
	}
	// Migration should move far fewer vertices than a from-scratch
	// partition would (cheap adaptation is its purpose).
	mig := MigrationVolume(p0, p1)
	if mig == 0 {
		t.Error("expected some migration")
	}
	if mig > g.N/2 {
		t.Errorf("migration volume %d too high for diffusive repartition (n=%d)", mig, g.N)
	}
}

func TestRepartitionValidates(t *testing.T) {
	g := gridGraph(5, 5)
	bad := &Partition{K: 2, Parts: make([]int32, 3)}
	if _, err := Repartition(g, bad, 1.05, 0); err == nil {
		t.Error("invalid old partition must error")
	}
}

func TestMeasureConsistency(t *testing.T) {
	g := gridGraph(12, 12)
	p, err := RCB(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	q := Measure(g, p)
	if q.EdgeCut != p.EdgeCut(g) || q.Imbalance != p.Imbalance(g) || q.Boundary != p.BoundaryVertices(g) {
		t.Error("Measure disagrees with direct metrics")
	}
	if q.Boundary <= 0 || q.EdgeCut <= 0 {
		t.Errorf("grid 4-way split should have boundary and cut: %+v", q)
	}
}

func TestByMethodUnknown(t *testing.T) {
	g := gridGraph(4, 4)
	if _, err := ByMethod("nope", g, 2, 0); err == nil {
		t.Error("unknown method must error")
	}
}

func TestCheckArgs(t *testing.T) {
	if err := checkArgs(nil, 2); err == nil {
		t.Error("nil graph must error")
	}
	g := gridGraph(3, 3)
	if err := checkArgs(g, 0); err == nil {
		t.Error("k=0 must error")
	}
}

func TestKGreaterThanN(t *testing.T) {
	g := gridGraph(2, 2) // 4 vertices
	p, err := MultilevelKWay(g, 3, MLOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Valid(g.N); err != nil {
		t.Fatal(err)
	}
}

func TestCoarsenPreservesWeight(t *testing.T) {
	g := gridGraph(16, 16)
	rng := rand.New(rand.NewSource(4))
	c, cmap := coarsen(g, rng)
	if c.N >= g.N {
		t.Errorf("coarsening did not shrink: %d -> %d", g.N, c.N)
	}
	if c.TotalVWgt() != g.TotalVWgt() {
		t.Errorf("weight not conserved: %v -> %v", g.TotalVWgt(), c.TotalVWgt())
	}
	for v := 0; v < g.N; v++ {
		if cmap[v] < 0 || int(cmap[v]) >= c.N {
			t.Fatalf("cmap[%d] = %d out of range", v, cmap[v])
		}
	}
	// Coarse graph must not have self-loops.
	for cv := 0; cv < c.N; cv++ {
		for e := c.Xadj[cv]; e < c.Xadj[cv+1]; e++ {
			if c.Adjncy[e] == int32(cv) {
				t.Fatalf("self-loop at coarse vertex %d", cv)
			}
		}
	}
}

func BenchmarkMultilevelPipe8(b *testing.B) {
	g := pipeGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MultilevelKWay(g, 8, MLOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMortonPipe8(b *testing.B) {
	g := pipeGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Morton(g, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOnePartIsAllZeros: at k = 1 every partitioner, run in full,
// assigns every vertex to part 0 — which is what lets ByMethod skip
// them — and ByMethod returns exactly that without walking the graph.
func TestOnePartIsAllZeros(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	graphs := []*Graph{pipeGraph(t), gridGraph(1, 1)}
	for i := 0; i < 4; i++ {
		graphs = append(graphs, gridGraph(1+rng.Intn(12), 1+rng.Intn(12)))
	}
	full := map[Method]func(*Graph) (*Partition, error){
		MethodBlock:      func(g *Graph) (*Partition, error) { return Block(g, 1) },
		MethodMorton:     func(g *Graph) (*Partition, error) { return Morton(g, 1) },
		MethodRCB:        func(g *Graph) (*Partition, error) { return RCB(g, 1) },
		MethodMultilevel: func(g *Graph) (*Partition, error) { return MultilevelKWay(g, 1, MLOptions{Seed: 3}) },
	}
	allZero := func(who string, g *Graph, p *Partition, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", who, err)
		}
		if p.K != 1 || len(p.Parts) != g.N {
			t.Fatalf("%s: K=%d with %d parts for %d vertices", who, p.K, len(p.Parts), g.N)
		}
		for v, part := range p.Parts {
			if part != 0 {
				t.Fatalf("%s: vertex %d in part %d", who, v, part)
			}
		}
	}
	for _, g := range graphs {
		for _, m := range Methods() {
			p, err := full[m](g)
			allZero(string(m)+" in full", g, p, err)
			p, err = ByMethod(m, g, 1, 3)
			allZero("ByMethod "+string(m), g, p, err)
		}
	}

	big := pipeGraph(t)
	for _, m := range Methods() {
		if allocs := testing.AllocsPerRun(10, func() {
			if _, err := ByMethod(m, big, 1, 3); err != nil {
				t.Fatal(err)
			}
		}); allocs > 3 {
			t.Errorf("ByMethod(%s, k=1) makes %.0f allocations on a %d-vertex graph, want O(1)", m, allocs, big.N)
		}
	}
	if _, err := ByMethod("nope", big, 1, 0); err == nil {
		t.Error("unknown method must error at k=1 too")
	}
	if _, err := ByMethod(MethodMultilevel, &Graph{}, 1, 0); err == nil {
		t.Error("empty graph must error at k=1 too")
	}
}

// fromDomainOld is FromDomain as it was: a SiteAt lookup per link to
// count degrees and a second one to fill the adjacency.
func fromDomainOld(d *geometry.Domain) *Graph {
	n := d.NumSites()
	g := &Graph{
		N:      n,
		Xadj:   make([]int32, n+1),
		VWgt:   make([]float64, n),
		Coords: make([]vec.V3, n),
	}
	deg := make([]int32, n)
	for si := range d.Sites {
		for q := 1; q < d.Model.Q; q++ {
			if linkNeighbour(d, si, q) >= 0 {
				deg[si]++
			}
		}
	}
	for i := 0; i < n; i++ {
		g.Xadj[i+1] = g.Xadj[i] + deg[i]
		g.VWgt[i] = 1
		g.Coords[i] = d.Sites[i].Pos.F()
	}
	g.Adjncy = make([]int32, g.Xadj[n])
	g.EWgt = make([]float64, g.Xadj[n])
	fill := make([]int32, n)
	for si := range d.Sites {
		for q := 1; q < d.Model.Q; q++ {
			nb := linkNeighbour(d, si, q)
			if nb < 0 {
				continue
			}
			at := g.Xadj[si] + fill[si]
			g.Adjncy[at] = int32(nb)
			g.EWgt[at] = 1
			fill[si]++
		}
	}
	return g
}

// TestFromDomainMatchesOldRoutine: counting degrees from the link types
// and resolving each neighbour once yields the CSR graph the
// two-lookup routine built.
func TestFromDomainMatchesOldRoutine(t *testing.T) {
	for _, dc := range []struct {
		preset string
		scale  float64
	}{{"tree", 1.3}, {"aneurysm", 2.0}} {
		v, err := geometry.VesselByName(dc.preset, dc.scale)
		if err != nil {
			t.Fatal(err)
		}
		dom, err := geometry.Voxelise(v, 1, lattice.D3Q19())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := FromDomain(dom), fromDomainOld(dom); !reflect.DeepEqual(got, want) {
			t.Errorf("%s@%g: FromDomain differs from the old routine (N %d/%d, %d/%d edges)",
				dc.preset, dc.scale, got.N, want.N, len(got.Adjncy), len(want.Adjncy))
		}
	}
}
