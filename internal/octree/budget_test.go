package octree

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/geometry"
	"repro/internal/lattice"
	"repro/internal/vec"
)

// buildByMap is the tree the way Build made it before the slab layout:
// one heap node per cell in a map per level, children folded into their
// parent in map-iteration order. It is the reference the slab build is
// compared against.
func buildByMap(dom *geometry.Domain, f Fields, depth int) []map[uint64]*Node {
	levels := make([]map[uint64]*Node, depth)
	for l := range levels {
		levels[l] = map[uint64]*Node{}
	}
	for i, s := range dom.Sites {
		key := morton(s.Pos.X, s.Pos.Y, s.Pos.Z)
		wss := 0.0
		if f.WSS != nil {
			wss = f.WSS[i]
		}
		levels[0][key] = &Node{
			Level: 0, Key: key, Count: 1,
			MeanRho: f.Rho[i], MeanU: vec.New(f.Ux[i], f.Uy[i], f.Uz[i]),
			MaxWSS: wss, MeanWSS: wss,
		}
	}
	for l := 1; l < depth; l++ {
		for _, child := range levels[l-1] {
			pk := child.Key >> 3
			p := levels[l][pk]
			if p == nil {
				p = &Node{Level: l, Key: pk}
				levels[l][pk] = p
			}
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
	}
	return levels
}

// TestBuildMatchesMapReference: on a seeded field the slab build has
// the cells the map build has — same keys and counts on every level,
// level 0 identical, upper-level means equal up to the order the
// children were folded in (the map build's order changes from run to
// run; the slab build's does not, which TestBuildIsDeterministic pins).
func TestBuildMatchesMapReference(t *testing.T) {
	dom, tree, f := testTree(t)
	ref := buildByMap(dom, f, tree.Depth())
	near := func(got, want float64) bool {
		return math.Abs(got-want) <= 1e-12*math.Max(math.Abs(want), 1e-300)
	}
	for l := 0; l < tree.Depth(); l++ {
		if tree.NodeCount(l) != len(ref[l]) {
			t.Fatalf("level %d: %d cells, reference has %d", l, tree.NodeCount(l), len(ref[l]))
		}
		for _, n := range tree.Level(l) {
			want := ref[l][n.Key]
			if want == nil {
				t.Fatalf("level %d: cell %d not in the reference", l, n.Key)
			}
			if n.Level != l || n.Count != want.Count {
				t.Fatalf("level %d cell %d: level %d count %d, reference count %d", l, n.Key, n.Level, n.Count, want.Count)
			}
			if l == 0 && *n != *want {
				t.Fatalf("leaf %d: %+v, reference %+v", n.Key, *n, *want)
			}
			if n.MaxWSS != want.MaxWSS {
				t.Fatalf("level %d cell %d: MaxWSS %v, reference %v", l, n.Key, n.MaxWSS, want.MaxWSS)
			}
			for _, c := range [][2]float64{
				{n.MeanRho, want.MeanRho}, {n.MeanWSS, want.MeanWSS},
				{n.MeanU.X, want.MeanU.X}, {n.MeanU.Y, want.MeanU.Y}, {n.MeanU.Z, want.MeanU.Z},
			} {
				if !near(c[0], c[1]) {
					t.Fatalf("level %d cell %d: mean %v, reference %v", l, n.Key, c[0], c[1])
				}
			}
		}
	}
}

// TestBuildIsDeterministic: two builds over the same fields are the
// same tree bit for bit, so /data replies of one snapshot never differ.
func TestBuildIsDeterministic(t *testing.T) {
	dom, a, f := testTree(t)
	b, err := Build(dom, f)
	if err != nil {
		t.Fatal(err)
	}
	for l := 0; l < a.Depth(); l++ {
		la, lb := a.Level(l), b.Level(l)
		if len(la) != len(lb) {
			t.Fatalf("level %d: %d vs %d cells", l, len(la), len(lb))
		}
		for i := range la {
			if *la[i] != *lb[i] {
				t.Fatalf("level %d cell %d differs between builds: %+v vs %+v", l, i, *la[i], *lb[i])
			}
		}
	}
}

// TestDataSweepAllocationBudget guards the /data diet: one sweep of the
// kernel-small domain (aneurysm@2.0) as the service runs it — build the
// tree, query the eight octants at detail 0 / context 3, encode each
// reply — stays under a byte and an object ceiling set about 20 % above
// what it takes today (1.75 MB, 123 objects; the map build with
// per-node heap objects took 4.4 MB and 21 700). Garbage here is what
// puts a GC cycle inside a client's sweep.
func TestDataSweepAllocationBudget(t *testing.T) {
	v, err := geometry.VesselByName("aneurysm", 2.0)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := geometry.Voxelise(v, 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	n := dom.NumSites()
	rng := rand.New(rand.NewSource(4))
	f := Fields{Rho: make([]float64, n), Ux: make([]float64, n), Uy: make([]float64, n), Uz: make([]float64, n)}
	for i := 0; i < n; i++ {
		f.Rho[i], f.Ux[i], f.Uy[i], f.Uz[i] = 1+0.01*rng.Float64(), 0.01*rng.Float64(), 0.01*rng.Float64(), 0.05*rng.Float64()
	}
	h := dom.Dims.F().Mul(0.5)
	sweep := func() {
		tree, err := Build(dom, f)
		if err != nil {
			t.Fatal(err)
		}
		for o := 0; o < 8; o++ {
			lo := vec.New(float64(o&1)*h.X, float64(o>>1&1)*h.Y, float64(o>>2&1)*h.Z)
			nodes, err := tree.Query(ROI{Box: vec.NewBox(lo, lo.Add(h)), DetailLevel: 0, ContextLevel: 3})
			if err != nil {
				t.Fatal(err)
			}
			if CoverCount(nodes) != n {
				t.Fatalf("octant %d covers %d of %d sites", o, CoverCount(nodes), n)
			}
			if len(EncodeNodes(nodes)) == 0 {
				t.Fatal("empty reply")
			}
		}
	}
	sweep() // warm
	const rounds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		sweep()
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	objects := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("one sweep of %d sites: %.0f bytes, %.0f objects", n, bytes, objects)
	const maxBytes, maxObjects = 2.1e6, 150
	if bytes > maxBytes || objects > maxObjects {
		t.Errorf("one /data sweep allocates %.0f bytes in %.0f objects, budget %.0f bytes / %d objects", bytes, objects, maxBytes, maxObjects)
	}
}
