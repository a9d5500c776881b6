package octree

import (
	"bytes"
	"cmp"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

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
// the leaves of the whole-domain reply the reference's as a reply
// carries them, upper-level means equal up to the order the children
// were folded in (the map build's order changes from run to run; the
// slab build's does not, which TestBuildIsDeterministic pins).
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
		if l == 0 {
			for _, n := range levelReply(t, dom, tree, 0) {
				if want := ref[0][n.Key]; want == nil || !sameNode(n, onWire(want)) {
					t.Fatalf("leaf %d: %+v, reference %+v", n.Key, *n, want)
				}
			}
			continue
		}
		for i := range tree.levels[l] {
			n := &tree.levels[l][i]
			want := ref[l][n.Key]
			if want == nil {
				t.Fatalf("level %d: cell %d not in the reference", l, n.Key)
			}
			if n.Level != l || n.Count != want.Count {
				t.Fatalf("level %d cell %d: level %d count %d, reference count %d", l, n.Key, n.Level, n.Count, want.Count)
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

// buildSorting is Build the way it was before the layout was kept on
// the Domain: it sorts the sites into Z-order and discovers every
// level's cells on each call. It is the node-for-node reference of the
// memoised build.
func buildSorting(dom *geometry.Domain, f Fields) *leafTree {
	n := dom.NumSites()
	depth := 1
	for (1 << (depth - 1)) < max(dom.Dims.X, dom.Dims.Y, dom.Dims.Z) {
		depth++
	}
	t := &leafTree{levels: make([][]Node, depth), firstChild: make([][]int32, depth)}
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
			Level: 0, Key: o.key, Count: 1,
			MeanRho: f.Rho[i], MeanU: vec.New(f.Ux[i], f.Uy[i], f.Uz[i]),
			MaxWSS: wss, MeanWSS: wss,
		}
	}
	t.levels[0] = leaves
	for l := 1; l < depth; l++ {
		kids := t.levels[l-1]
		var level []Node
		var first []int32
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
	return t
}

// TestBuildMatchesSortingBuild: on both bench/ domains, with and
// without wall shear stress, a Build along the kept layout — the one
// that derives it and the ones that find it — is the sorting build and
// the leaf-copying build node for node (the leaves as the whole-domain
// reply carries them, every upper level bit for bit) and child run for
// child run.
func TestBuildMatchesSortingBuild(t *testing.T) {
	for _, dc := range []struct {
		preset string
		scale  float64
	}{{"aneurysm", 2.0}, {"tree", 3.0}} {
		v, err := geometry.VesselByName(dc.preset, dc.scale)
		if err != nil {
			t.Fatal(err)
		}
		dom, err := geometry.Voxelise(v, 1.0, lattice.D3Q19())
		if err != nil {
			t.Fatal(err)
		}
		n := dom.NumSites()
		rng := rand.New(rand.NewSource(int64(n)))
		f := Fields{Rho: make([]float64, n), Ux: make([]float64, n), Uy: make([]float64, n), Uz: make([]float64, n)}
		for round := 0; round < 3; round++ {
			for i := 0; i < n; i++ {
				f.Rho[i], f.Ux[i], f.Uy[i], f.Uz[i] = 1+0.01*rng.Float64(), 0.01*rng.NormFloat64(), 0.01*rng.NormFloat64(), 0.05*rng.Float64()
			}
			if round == 2 {
				f.WSS = make([]float64, n)
				for i := range f.WSS {
					f.WSS[i] = 0.001 * rng.Float64()
				}
			}
			got, err := Build(dom, f)
			if err != nil {
				t.Fatal(err)
			}
			leafy, err := buildLeaves(dom, f)
			if err != nil {
				t.Fatal(err)
			}
			for _, want := range []*leafTree{buildSorting(dom, f), leafy} {
				if got.Depth() != len(want.levels) {
					t.Fatalf("%s@%g: depth %d, reference %d", dc.preset, dc.scale, got.Depth(), len(want.levels))
				}
				if !bytes.Equal(got.Answer(dom.Dims.F(), vec.V3{}, vec.V3{}, 0, 0).Bytes(), encodeNodes(pointers(want.levels[0]))) {
					t.Fatalf("%s@%g round %d: leaves differ from the reference", dc.preset, dc.scale, round)
				}
				for l := range want.levels {
					if l > 0 && !slices.Equal(got.levels[l], want.levels[l]) {
						t.Fatalf("%s@%g round %d: kept level %d differs from the reference", dc.preset, dc.scale, round, l)
					}
					if !slices.Equal(got.lay.firstChild[l], want.firstChild[l]) {
						t.Fatalf("%s@%g round %d: child runs of level %d differ", dc.preset, dc.scale, round, l)
					}
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
		if l > 0 && !slices.Equal(a.levels[l], b.levels[l]) {
			t.Fatalf("level %d differs between builds", l)
		}
		dims := dom.Dims.F()
		if !bytes.Equal(a.Answer(dims, vec.V3{}, vec.V3{}, l, l).Bytes(), b.Answer(dims, vec.V3{}, vec.V3{}, l, l).Bytes()) {
			t.Fatalf("level %d reply differs between builds", l)
		}
	}
}

// benchDomains holds the voxelised bench/ domains by preset, so each
// is voxelised once per test binary.
var benchDomains = map[string]*geometry.Domain{}

// benchDomain is one of bench/'s domains — aneurysm@2.0 (kernel-small,
// ckpt-long) or tree@3.0 (kernel-large) — with a seeded field on it:
// wall shear stress on about a third of the sites, zero elsewhere.
func benchDomain(t testing.TB, preset string, scale float64) (*geometry.Domain, Fields) {
	t.Helper()
	dom := benchDomains[preset]
	if dom == nil {
		v, err := geometry.VesselByName(preset, scale)
		if err != nil {
			t.Fatal(err)
		}
		if dom, err = geometry.Voxelise(v, 1.0, lattice.D3Q19()); err != nil {
			t.Fatal(err)
		}
		benchDomains[preset] = dom
	}
	n := dom.NumSites()
	rng := rand.New(rand.NewSource(4))
	f := Fields{Rho: make([]float64, n), Ux: make([]float64, n), Uy: make([]float64, n), Uz: make([]float64, n), WSS: make([]float64, n)}
	for i := 0; i < n; i++ {
		f.Rho[i], f.Ux[i], f.Uy[i], f.Uz[i] = 1+0.01*rng.Float64(), 0.01*rng.Float64(), 0.01*rng.Float64(), 0.05*rng.Float64()
		if rng.Intn(3) == 0 {
			f.WSS[i] = 0.001 * rng.Float64()
		}
	}
	return dom, f
}

// benchSmallDomain is bench/'s kernel-small domain (aneurysm@2.0) with a
// seeded field on it.
func benchSmallDomain(t testing.TB) (*geometry.Domain, Fields) {
	return benchDomain(t, "aneurysm", 2.0)
}

// octants returns the eight octant boxes of dom — the regions bench/'s
// /data reads ask for.
func octants(dom *geometry.Domain) []vec.Box {
	h := dom.Dims.F().Mul(0.5)
	var boxes []vec.Box
	for o := 0; o < 8; o++ {
		lo := vec.New(float64(o&1)*h.X, float64(o>>1&1)*h.Y, float64(o>>2&1)*h.Z)
		boxes = append(boxes, vec.NewBox(lo, lo.Add(h)))
	}
	return boxes
}

// TestDataSweepAllocationBudget guards the /data diet: one sweep of the
// kernel-small domain (aneurysm@2.0) as the service runs it — build the
// tree along the kept layout, then size and stream the replies of the
// eight octants at detail 0 / context 3 — stays under a byte and an
// object ceiling set about 20 % above what it takes today (0.13 MB in
// 9 objects, all of it the node slabs of levels 1 and up: the leaves
// are read from the fields, and a reply allocates nothing that grows
// with it. With a leaf Node copied per site it was 0.87 MB in 10; with
// a cover list and a full-size buffer per reply, and the Z-order sorted
// per build, 1.75 MB in 123; the map build with per-node heap objects
// took 4.4 MB and 21 700).
// Garbage here is what puts a GC cycle inside a client's sweep, and
// fresh buffers are what makes /data latency depend on the heap.
func TestDataSweepAllocationBudget(t *testing.T) {
	dom, f := benchSmallDomain(t)
	n := dom.NumSites()
	dims := dom.Dims.F()
	h := dims.Mul(0.5)
	sweep := func() {
		tree, err := Build(dom, f)
		if err != nil {
			t.Fatal(err)
		}
		for o := 0; o < 8; o++ {
			lo := vec.New(float64(o&1)*h.X, float64(o>>1&1)*h.Y, float64(o>>2&1)*h.Z)
			reply := tree.Answer(dims, lo, lo.Add(h), 0, 3)
			if written, err := reply.WriteTo(io.Discard); err != nil || written != int64(reply.Size()) || reply.Nodes() == 0 {
				t.Fatalf("octant %d: wrote %d of %d bytes (%d nodes), err %v", o, written, reply.Size(), reply.Nodes(), err)
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
	const maxBytes, maxObjects = 160e3, 12
	if !raceEnabled && (bytes > maxBytes || objects > maxObjects) {
		t.Errorf("one /data sweep allocates %.0f bytes in %.0f objects, budget %.0f bytes / %d objects", bytes, objects, maxBytes, maxObjects)
	}
}

// TestBuildAllocatesNothingPerLeaf: a Build on tree@3.0 along the kept
// layout allocates the cells of levels 1 and up and a handful of
// headers — less than one byte per leaf beyond those cells, where a
// leaf Node copied per site was 72.
func TestBuildAllocatesNothingPerLeaf(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	dom, f := benchDomain(t, "tree", 3.0)
	tree, err := Build(dom, f)
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for l := 1; l < tree.Depth(); l++ {
		cells += tree.NodeCount(l)
	}
	const rounds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		if _, err := Build(dom, f); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	objects := float64(after.Mallocs-before.Mallocs) / rounds
	beyond := bytes - float64(cells)*float64(unsafe.Sizeof(Node{}))
	t.Logf("Build of %d sites: %.0f bytes in %.0f objects, %d upper cells, %.2f bytes per leaf beyond them",
		tree.NodeCount(0), bytes, objects, cells, beyond/float64(tree.NodeCount(0)))
	if beyond >= float64(tree.NodeCount(0)) || objects > float64(tree.Depth()+2) {
		t.Errorf("Build allocates %.0f bytes in %.0f objects: %.0f beyond its %d upper cells, budget one byte a leaf and %d objects",
			bytes, objects, beyond, cells, tree.Depth()+2)
	}
}
