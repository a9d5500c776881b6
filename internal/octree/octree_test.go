package octree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geometry"
	"repro/internal/lattice"
	"repro/internal/vec"
)

// Root returns the top-level node containing everything: the one cell
// of the top level. Only the tests walk the tree from its root.
func (t *Tree) Root() *Node { return &t.levels[len(t.levels)-1][0] }

// levelReply decodes tree's /data reply of the whole domain at
// detail = context = level: the level's cells in Z-order.
func levelReply(t testing.TB, dom *geometry.Domain, tree *Tree, level int) []*Node {
	t.Helper()
	nodes, err := DecodeNodes(tree.Answer(dom.Dims.F(), vec.V3{}, vec.V3{}, level, level).Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

// covered returns the fluid sites a node list covers.
func covered(nodes []*Node) int {
	total := 0
	for _, n := range nodes {
		total += n.Count
	}
	return total
}

func testTree(t testing.TB) (*geometry.Domain, *Tree, Fields) {
	t.Helper()
	dom, err := geometry.Voxelise(geometry.Aneurysm(16, 3, 4), 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	n := dom.NumSites()
	f := Fields{
		Rho: make([]float64, n),
		Ux:  make([]float64, n),
		Uy:  make([]float64, n),
		Uz:  make([]float64, n),
		WSS: make([]float64, n),
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < n; i++ {
		f.Rho[i] = 1 + 0.01*rng.NormFloat64()
		f.Ux[i] = rng.NormFloat64() * 0.01
		f.Uy[i] = rng.NormFloat64() * 0.01
		f.Uz[i] = 0.05 + 0.01*rng.NormFloat64()
		f.WSS[i] = math.Abs(rng.NormFloat64()) * 0.001
	}
	tree, err := Build(dom, f)
	if err != nil {
		t.Fatal(err)
	}
	return dom, tree, f
}

func TestMortonRoundTripProperty(t *testing.T) {
	f := func(x, y, z uint32) bool {
		xi, yi, zi := int(x%2048), int(y%2048), int(z%2048)
		gx, gy, gz := unmorton(morton(xi, yi, zi))
		return gx == xi && gy == yi && gz == zi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMortonParentChild(t *testing.T) {
	// A child's key shifted right by 3 gives its parent cell.
	k := morton(5, 3, 7)
	pk := k >> 3
	px, py, pz := unmorton(pk)
	if px != 2 || py != 1 || pz != 3 {
		t.Errorf("parent of (5,3,7) = (%d,%d,%d), want (2,1,3)", px, py, pz)
	}
}

func TestBuildValidatesFieldLengths(t *testing.T) {
	dom, _, _ := testTree(t)
	if _, err := Build(dom, Fields{Rho: []float64{1}}); err == nil {
		t.Error("short fields accepted")
	}
}

func TestLeafCountEqualsSites(t *testing.T) {
	dom, tree, _ := testTree(t)
	if got := tree.NodeCount(0); got != dom.NumSites() {
		t.Errorf("level 0 has %d nodes, want %d sites", got, dom.NumSites())
	}
	if root := tree.Root(); root == nil || root.Count != dom.NumSites() {
		t.Errorf("root count = %+v, want %d", root, dom.NumSites())
	}
}

func TestLevelCountsDecrease(t *testing.T) {
	_, tree, _ := testTree(t)
	for l := 1; l < tree.Depth(); l++ {
		if tree.NodeCount(l) > tree.NodeCount(l-1) {
			t.Errorf("level %d has more nodes (%d) than level %d (%d)",
				l, tree.NodeCount(l), l-1, tree.NodeCount(l-1))
		}
	}
	if tree.NodeCount(tree.Depth()-1) != 1 {
		t.Errorf("top level should hold the single root, has %d", tree.NodeCount(tree.Depth()-1))
	}
}

func TestAggregationConservesMeans(t *testing.T) {
	dom, tree, f := testTree(t)
	// Root mean velocity must equal the site average.
	var sum vec.V3
	var rhoSum, wssMax float64
	for i := 0; i < dom.NumSites(); i++ {
		sum = sum.Add(vec.New(f.Ux[i], f.Uy[i], f.Uz[i]))
		rhoSum += f.Rho[i]
		if f.WSS[i] > wssMax {
			wssMax = f.WSS[i]
		}
	}
	n := float64(dom.NumSites())
	root := tree.Root()
	if root.MeanU.Dist(sum.Div(n)) > 1e-9 {
		t.Errorf("root mean U %v, want %v", root.MeanU, sum.Div(n))
	}
	if math.Abs(root.MeanRho-rhoSum/n) > 1e-9 {
		t.Errorf("root mean rho %v, want %v", root.MeanRho, rhoSum/n)
	}
	if math.Abs(root.MaxWSS-wssMax) > 1e-12 {
		t.Errorf("root max WSS %v, want %v", root.MaxWSS, wssMax)
	}
}

func TestCountConservationPerLevel(t *testing.T) {
	dom, tree, _ := testTree(t)
	for l := 0; l < tree.Depth(); l++ {
		if total := covered(levelReply(t, dom, tree, l)); total != dom.NumSites() {
			t.Errorf("level %d covers %d sites, want %d", l, total, dom.NumSites())
		}
	}
}

// TestChildrenLinkage: every cell of level l ≥ 1 has a non-empty run of
// children in the level below, each under its key, whose counts (1 for
// a leaf) add up to its own.
func TestChildrenLinkage(t *testing.T) {
	_, tree, _ := testTree(t)
	for l := 1; l < tree.Depth(); l++ {
		first := tree.lay.firstChild[l]
		for i, n := range tree.levels[l] {
			lo, hi := int(first[i]), int(first[i+1])
			if lo >= hi {
				t.Fatalf("level %d node %d has no children", l, n.Key)
			}
			count := hi - lo
			if l > 1 {
				count = 0
				for _, c := range tree.levels[l-1][lo:hi] {
					count += c.Count
				}
			}
			for _, k := range tree.lay.keys[l-1][lo:hi] {
				if k>>3 != n.Key {
					t.Fatalf("child key %d not under parent %d", k, n.Key)
				}
			}
			if count != n.Count {
				t.Fatalf("children cover %d, parent says %d", count, n.Count)
			}
		}
	}
}

func TestLevelIsZOrdered(t *testing.T) {
	dom, tree, _ := testTree(t)
	nodes := levelReply(t, dom, tree, 1)
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1].Key >= nodes[i].Key {
			t.Fatal("level reply not in ascending Z-order")
		}
	}
}

func TestQueryCoversDomainOnce(t *testing.T) {
	dom, tree, _ := testTree(t)
	mid := dom.Sites[dom.NumSites()/2].Pos.F()
	nodes, err := DecodeNodes(tree.Answer(dom.Dims.F(), mid.Sub(vec.Splat(4)), mid.Add(vec.Splat(4)), 0, 3).Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if covered(nodes) != dom.NumSites() {
		t.Errorf("query covers %d sites, want %d", covered(nodes), dom.NumSites())
	}
	// There must be a mix of levels: detail inside, context outside.
	levels := map[int]int{}
	for _, n := range nodes {
		levels[n.Level]++
	}
	if levels[0] == 0 {
		t.Error("no detail-level nodes in ROI")
	}
	coarse := 0
	for l, c := range levels {
		if l > 0 {
			coarse += c
		}
	}
	if coarse == 0 {
		t.Error("no context-level nodes outside ROI")
	}
}

func TestQueryReducesDataVolume(t *testing.T) {
	dom, tree, _ := testTree(t)
	dims := dom.Dims.F()
	full := tree.Answer(dims, vec.V3{}, vec.V3{}, 0, 0)
	roi := tree.Answer(dims, vec.New(10, 10, 10), vec.New(14, 14, 14), 0, 4)
	if roi.Size() >= full.Size() {
		t.Errorf("ROI reply %d bytes should be below full-res %d", roi.Size(), full.Size())
	}
}

func TestNodeGeometry(t *testing.T) {
	n := &Node{Level: 2, Key: morton(1, 2, 3) /* cell coords at level 2 */}
	o := n.Origin()
	if o.X != 4 || o.Y != 8 || o.Z != 12 {
		t.Errorf("origin = %v, want (4,8,12)", o)
	}
	if n.Size() != 4 {
		t.Errorf("size = %d", n.Size())
	}
	b := n.Box()
	if b.Min.X != 4 || b.Max.X != 8 {
		t.Errorf("box = %+v", b)
	}
}

// benchCases are bench/'s two domains: tree@3.0 (kernel-large) and
// aneurysm@2.0 (kernel-small, ckpt-long).
var benchCases = []struct {
	preset string
	scale  float64
}{{"tree", 3.0}, {"aneurysm", 2.0}}

// BenchmarkBuild is a Build along the kept layout on both bench/
// domains: the octree a /data read of a new snapshot waits for.
func BenchmarkBuild(b *testing.B) {
	for _, dc := range benchCases {
		b.Run(dc.preset, func(b *testing.B) {
			dom, f := benchDomain(b, dc.preset, dc.scale)
			if _, err := Build(dom, f); err != nil { // derive the layout
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(dom, f); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
