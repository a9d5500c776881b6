package lb

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/geometry"
	"repro/internal/partition"
	"repro/internal/vec"
)

// linkNeighbour is the site a fluid link of site g in direction q
// leads to, -1 for any other link: the per-link lookup the oracles
// below resolve neighbours with, independent of Domain.Neighbours.
func linkNeighbour(dom *geometry.Domain, g, q int) int {
	s := &dom.Sites[g]
	if s.Links[q-1].Type != geometry.LinkFluid {
		return -1
	}
	c := dom.Model.C[q]
	return dom.SiteAt(s.Pos.Add(vec.I3{X: c[0], Y: c[1], Z: c[2]}))
}

// oraclePlan is the plan the way newKernel + NewDist built it on every
// call before plans were kept on the Domain: the rank's stream table
// read off Site.Links, cross-rank links collected and patched in, the
// receive side found by walking the neighbour ranks' link records. It
// is the reference restrictPlan (which reads no link record) is compared
// against, field by field.
func oraclePlan(dom *geometry.Domain, part *partition.Partition, me int) *plan {
	m := dom.Model
	Q := m.Q
	K := part.K
	pl := &plan{local: make([]int32, dom.NumSites())}
	for g := range pl.local {
		pl.local[g] = -1
		if int(part.Parts[g]) == me {
			pl.local[g] = int32(len(pl.owned))
			pl.owned = append(pl.owned, g)
		}
	}
	pl.n = len(pl.owned)
	pl.stream = make([]int32, pl.n*Q)
	off := make([]vec.I3, Q)
	for q, c := range m.C {
		off[q] = vec.I3{X: c[0], Y: c[1], Z: c[2]}
	}
	type crossLink struct{ li, q, dst int }
	var cross []crossLink
	for li, g := range pl.owned {
		site := &dom.Sites[g]
		base := li * Q
		pl.stream[base] = int32(base)
		for q := 1; q < Q; q++ {
			link := &site.Links[q-1]
			switch link.Type {
			case geometry.LinkFluid:
				j := dom.SiteAt(site.Pos.Add(off[q]))
				if lj := int(pl.local[j]); lj >= 0 {
					pl.stream[base+q] = int32(lj*Q + q)
				} else {
					cross = append(cross, crossLink{li, q, j})
				}
			case geometry.LinkWall:
				pl.stream[base+q] = int32(base + m.Opp[q])
			default:
				pl.stream[base+q] = int32(encodeIolet - link.Iolet)
			}
		}
	}
	pl.sendOff = make([]int, K+1)
	for _, cl := range cross {
		pl.sendOff[part.Parts[cl.dst]+1]++
	}
	for r := 0; r < K; r++ {
		pl.sendOff[r+1] += pl.sendOff[r]
	}
	next := append([]int(nil), pl.sendOff[:K]...)
	for _, cl := range cross {
		r := part.Parts[cl.dst]
		pl.stream[cl.li*Q+cl.q] = streamCrossBase - int32(next[r])
		next[r]++
	}
	pl.recvFix = make([][]int32, K)
	for g := range dom.Sites {
		r := int(part.Parts[g])
		if pl.sendOff[r+1] == pl.sendOff[r] {
			continue
		}
		for q := 1; q < Q; q++ {
			if dom.Sites[g].Links[q-1].Type != geometry.LinkFluid {
				continue
			}
			if lj := pl.local[linkNeighbour(dom, g, q)]; lj >= 0 {
				pl.recvFix[r] = append(pl.recvFix[r], lj*int32(Q)+int32(q))
			}
		}
	}
	for r := 0; r < K; r++ {
		if pl.sendOff[r+1] > pl.sendOff[r] {
			pl.neighbors = append(pl.neighbors, r)
		}
	}
	return pl
}

// samePlan reports the first field in which got differs from want.
func samePlan(got, want *plan) error {
	if got.n != want.n {
		return fmt.Errorf("n %d, oracle %d", got.n, want.n)
	}
	if !slices.Equal(got.owned, want.owned) {
		return fmt.Errorf("owned differs")
	}
	for g := range want.local {
		if got.localOf(g) != int(want.local[g]) {
			return fmt.Errorf("local[%d] %d, oracle %d", g, got.localOf(g), want.local[g])
		}
	}
	if len(got.stream) != len(want.stream) {
		return fmt.Errorf("stream length %d, oracle %d", len(got.stream), len(want.stream))
	}
	for i := range want.stream {
		if Q := len(want.stream) / want.n; got.stream[i] != want.stream[i] {
			return fmt.Errorf("stream[site %d, q %d] %d, oracle %d", i/Q, i%Q, got.stream[i], want.stream[i])
		}
	}
	if !slices.Equal(got.sendOff, want.sendOff) {
		return fmt.Errorf("sendOff %v, oracle %v", got.sendOff, want.sendOff)
	}
	if !slices.Equal(got.neighbors, want.neighbors) {
		return fmt.Errorf("neighbors %v, oracle %v", got.neighbors, want.neighbors)
	}
	if len(got.recvFix) != len(want.recvFix) {
		return fmt.Errorf("recvFix for %d ranks, oracle %d", len(got.recvFix), len(want.recvFix))
	}
	for r := range want.recvFix {
		if !slices.Equal(got.recvFix[r], want.recvFix[r]) {
			return fmt.Errorf("recvFix[%d] differs (%d entries, oracle %d)", r, len(got.recvFix[r]), len(want.recvFix[r]))
		}
	}
	return nil
}

// checkHalo is the brute-force oracle of the halo plan (ROADMAP 5(e)):
// it lists every fluid link of the domain whose ends lie on different
// ranks, O(links), sorts them into the wire order — sender, receiver,
// source site, direction — and demands that the sender's table holds
// exactly that slot for the link and the receiver scatters that slot
// into the target site's q-th population.
func checkHalo(dom *geometry.Domain, part *partition.Partition, plans []*plan) error {
	Q := dom.Model.Q
	type link struct{ from, to, g, q, j int }
	var links []link
	for g := range dom.Sites {
		for q := 1; q < Q; q++ {
			if j := linkNeighbour(dom, g, q); j >= 0 && part.Parts[j] != part.Parts[g] {
				links = append(links, link{int(part.Parts[g]), int(part.Parts[j]), g, q, j})
			}
		}
	}
	sort.SliceStable(links, func(a, b int) bool {
		if links[a].from != links[b].from {
			return links[a].from < links[b].from
		}
		return links[a].to < links[b].to
	})
	at := 0 // position within the current (from, to) message
	for i, l := range links {
		if i > 0 && (links[i-1].from != l.from || links[i-1].to != l.to) {
			at = 0
		}
		snd, rcv := plans[l.from], plans[l.to]
		slot := snd.sendOff[l.to] + at
		if got := snd.stream[snd.localOf(l.g)*Q+l.q]; got != streamCrossBase-int32(slot) {
			return fmt.Errorf("link %d→%d dir %d: sender %d has entry %d, want slot %d", l.g, l.j, l.q, l.from, got, slot)
		}
		if at >= len(rcv.recvFix[l.from]) {
			return fmt.Errorf("rank %d expects %d populations from %d, link %d→%d is the %d-th", l.to, len(rcv.recvFix[l.from]), l.from, l.g, l.j, at+1)
		}
		if got, want := rcv.recvFix[l.from][at], int32(rcv.localOf(l.j)*Q+l.q); got != want {
			return fmt.Errorf("link %d→%d dir %d: receiver %d scatters to %d, want %d", l.g, l.j, l.q, l.to, got, want)
		}
		at++
	}
	total := 0
	for _, pl := range plans {
		total += pl.sendOff[len(pl.sendOff)-1]
	}
	if total != len(links) {
		return fmt.Errorf("plans hold %d send slots, the domain has %d cross-rank links", total, len(links))
	}
	return nil
}

// TestPlanMatchesOracle generates its cases: every vessel preset at two
// scales, K ∈ {1, 2, 3, 5}, three partitioners plus seeded random
// assignments (ragged, many-neighbour decompositions no partitioner
// would produce). The kept construction must equal the old one in every
// field, and the halo plan must be the brute-force one.
func TestPlanMatchesOracle(t *testing.T) {
	presets := []string{"pipe", "bend", "bifurcation", "aneurysm", "tree", "stenosis"}
	for _, name := range presets {
		for _, scale := range []float64{0.7, 1.5} {
			dom := presetDomain(t, name, scale)
			whole, _, err := wholePlan(dom)
			if err != nil {
				t.Fatal(err)
			}
			graph := partition.FromDomain(dom)
			rng := rand.New(rand.NewSource(int64(dom.NumSites())))
			for _, k := range []int{1, 2, 3, 5} {
				parts := map[string]*partition.Partition{}
				for _, m := range []partition.Method{partition.MethodMultilevel, partition.MethodMorton, partition.MethodRCB} {
					p, err := partition.ByMethod(m, graph, k, 7)
					if err != nil {
						t.Fatal(err)
					}
					parts[string(m)] = p
				}
				random := &partition.Partition{K: k, Parts: make([]int32, dom.NumSites())}
				for g := range random.Parts {
					random.Parts[g] = int32(rng.Intn(k))
				}
				parts["random"] = random
				for label, part := range parts {
					plans := make([]*plan, k)
					for r := range plans {
						if k == 1 {
							plans[r] = whole
						} else {
							plans[r] = restrictPlan(whole, dom.Model.Q, part, r)
						}
						if err := samePlan(plans[r], oraclePlan(dom, part, r)); err != nil {
							t.Fatalf("%s@%g k=%d %s rank %d: %v", name, scale, k, label, r, err)
						}
					}
					if err := checkHalo(dom, part, plans); err != nil {
						t.Fatalf("%s@%g k=%d %s: %v", name, scale, k, label, err)
					}
				}
			}
		}
	}
}

// serialWholePlan is buildWholePlan as it was before its passes ran on
// guard's participants: one goroutine, sites in order, the first
// inconsistent site returned at once. It is the reference
// TestWholePlanMatchesSerial and TestWholePlanRejectsInconsistentGeometry
// hold the parallel build to.
func serialWholePlan(dom *geometry.Domain) (*plan, error) {
	m := dom.Model
	Q := m.Q
	n := dom.NumSites()
	if n*Q > math.MaxInt32 {
		return nil, fmt.Errorf("lb: %d sites × Q=%d overflow the stream table's 32-bit indices", n, Q)
	}
	pl := &plan{n: n, stream: make([]int32, n*Q), owned: make([]int, n), sendOff: []int{0, 0}, recvFix: make([][]int32, 1)}
	for g := range dom.Sites {
		pl.owned[g] = g
		site := &dom.Sites[g]
		base := g * Q
		row := pl.stream[base : base+Q]
		row[0] = int32(base) // rest population stays
		for q := 1; q < Q; q++ {
			switch link := &site.Links[q-1]; link.Type {
			case geometry.LinkFluid:
				j := linkNeighbour(dom, g, q)
				if j < 0 {
					return nil, fmt.Errorf("lb: inconsistent geometry: fluid link %d of site %v leads to no site", q, site.Pos)
				}
				row[q] = int32(j*Q + q)
			case geometry.LinkWall:
				row[q] = int32(base + m.Opp[q])
			default: // inlet or outlet
				if link.Iolet < 0 || link.Iolet >= len(dom.Iolets) {
					return nil, fmt.Errorf("lb: inconsistent geometry: site %v names iolet %d of %d", site.Pos, link.Iolet, len(dom.Iolets))
				}
				row[q] = int32(encodeIolet - link.Iolet)
			}
		}
	}
	for g := 0; g < n; g++ {
		for q := 1; q < Q; q++ {
			to := int(pl.stream[g*Q+q])
			if to < g*Q || to >= (g+1)*Q {
				if back := to - q + m.Opp[q]; to >= 0 && int(pl.stream[back]) != g*Q+m.Opp[q] {
					return nil, fmt.Errorf("lb: inconsistent geometry: fluid link %d of site %v has no fluid link coming back", q, dom.Sites[g].Pos)
				}
			}
		}
	}
	return pl, nil
}

// planWorkers are the participant counts the parallel plan passes are
// held to the serial one at: serial, at and above a 2-core host, and
// well past any preset's chunk count per participant.
var planWorkers = []int{1, 2, 3, 7}

// TestWholePlanMatchesSerial: on every preset at two sizings, the
// whole-domain plan built on 1, 2, 3 and 7 participants is the serial
// one — stream table, owned, and the (empty) halo fields.
func TestWholePlanMatchesSerial(t *testing.T) {
	for _, name := range []string{"pipe", "bend", "bifurcation", "aneurysm", "tree", "stenosis"} {
		for _, scale := range []float64{1, 2} {
			dom := presetDomain(t, name, scale)
			want, err := serialWholePlan(dom)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range planWorkers {
				got, err := buildWholePlan(dom, w)
				if err != nil {
					t.Fatalf("%s@%g, %d workers: %v", name, scale, w, err)
				}
				if err := samePlan(got, want); err != nil {
					t.Fatalf("%s@%g (%d sites), %d workers: %v", name, scale, dom.NumSites(), w, err)
				}
			}
		}
	}
}

// TestWholePlanRejectsInconsistentGeometry: a link record that claims a
// fluid neighbour where there is none (a damaged geometry file) is an
// error from New and NewDist, not a population streamed into slot 0.
// With damage in several chunks the parallel build reports what the
// serial one meets first, at every worker count: the lowest broken
// site, whether the others lie in its chunk or in another, and a
// broken table row before a missing return link at a lower site.
func TestWholePlanRejectsInconsistentGeometry(t *testing.T) {
	good := pipeDomain(t, 24, 4, 1.0)
	if good.NumSites() < 3*parcelSites {
		t.Fatalf("%d sites: the damage needs three parcels", good.NumSites())
	}
	// damage copies good's sites and applies each edit: at the first
	// site from on with a link of type had, that link becomes become.
	// It returns the domain and the edited sites' positions.
	type edit struct {
		from         int
		had, becomes geometry.LinkType
	}
	damage := func(edits ...edit) (*geometry.Domain, []vec.I3) {
		sites := make([]geometry.Site, len(good.Sites))
		for i, s := range good.Sites {
			sites[i] = s
			sites[i].Links = slices.Clone(s.Links)
		}
		var at []vec.I3
		for _, e := range edits {
			for i := e.from; i < len(sites); i++ {
				if q := slices.IndexFunc(sites[i].Links, func(l geometry.Link) bool { return l.Type == e.had }); q >= 0 {
					sites[i].Links[q].Type = e.becomes
					at = append(at, sites[i].Pos)
					break
				}
			}
		}
		dom, err := geometry.Reassemble(good.Model, good.Dims, good.Origin, good.H, good.Iolets, sites, good.LinkDists())
		if err != nil {
			t.Fatal(err)
		}
		return dom, at
	}
	last := good.NumSites() - parcelSites/2
	one, _ := damage(edit{0, geometry.LinkWall, geometry.LinkFluid})
	if _, err := New(one, Params{Tau: 0.9}); err == nil {
		t.Fatal("New accepted a fluid link with no site behind it")
	}
	// Three broken sites: one in the last chunk, two in the second.
	two, at := damage(edit{last, geometry.LinkWall, geometry.LinkFluid},
		edit{parcelSites + 1, geometry.LinkWall, geometry.LinkFluid},
		edit{parcelSites + parcelSites/2, geometry.LinkWall, geometry.LinkFluid})
	chunk := func(p vec.I3) int { return good.SiteAt(p) / parcelSites }
	if chunk(at[1]) != chunk(at[2]) || chunk(at[0]) == chunk(at[1]) {
		t.Fatalf("broken sites %v fall in chunks %d, %d, %d", at, chunk(at[0]), chunk(at[1]), chunk(at[2]))
	}
	lower := fmt.Sprint(at[1])
	// A fluid link retyped as wall leaves its neighbour's link with
	// nothing coming back: caught by the second pass, at a lower site
	// than the first pass's damage, which still wins.
	mixed, _ := damage(edit{0, geometry.LinkFluid, geometry.LinkWall}, edit{last, geometry.LinkWall, geometry.LinkFluid})
	for _, c := range []struct {
		name string
		dom  *geometry.Domain
		want string // a substring the error must hold
	}{
		{"three broken sites", two, lower + " leads to no site"},
		{"table row after a missing return", mixed, "leads to no site"},
	} {
		_, serr := serialWholePlan(c.dom)
		if serr == nil || !strings.Contains(serr.Error(), c.want) {
			t.Fatalf("%s: serial build says %v, want %q", c.name, serr, c.want)
		}
		for _, w := range planWorkers {
			if _, err := buildWholePlan(c.dom, w); err == nil || err.Error() != serr.Error() {
				t.Errorf("%s, %d workers: %v, serial %v", c.name, w, err, serr)
			}
		}
	}
	if _, err := New(two, Params{Tau: 0.9}); err == nil || !strings.Contains(err.Error(), lower) {
		t.Errorf("New on three broken sites: %v, want the one at %s", err, lower)
	}
}

// TestWholePlanIsKeptRankPlansAreNot: every solver on a Domain steps
// the one whole-domain plan Prepare reports; a rank's plan of a
// partition is cut for the solver that asks and kept nowhere.
func TestWholePlanIsKeptRankPlansAreNot(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	if hit, err := Prepare(dom); err != nil || hit {
		t.Fatalf("first Prepare: hit=%v err=%v", hit, err)
	}
	if hit, err := Prepare(dom); err != nil || !hit {
		t.Fatalf("second Prepare: hit=%v err=%v", hit, err)
	}
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	one, err := partition.OnePart(partition.MethodMultilevel, dom.NumSites())
	if err != nil {
		t.Fatal(err)
	}
	if pl, _ := planFor(dom, one, 0); pl != s.plan {
		t.Error("a 1-rank partition got a plan other than the Domain's")
	}
	part, err := partition.ByMethod(partition.MethodMultilevel, partition.FromDomain(dom), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := planFor(dom, part, 1)
	b, _ := planFor(dom, part, 1)
	if a == b || a == s.plan {
		t.Error("a rank plan was shared")
	} else if err := samePlan(a, b); err != nil {
		t.Errorf("two cuts of one partition differ: %v", err)
	}
}
