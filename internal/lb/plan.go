package lb

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/geometry"
	"repro/internal/guard"
	"repro/internal/partition"
)

// plan is what one rank's solver derives from (Domain, Partition, rank)
// alone — the paper's "fixed distribution": which sites the rank owns,
// where every population streams to, and which slots of the halo
// messages go where. It is never written after construction, so any
// number of kernels may step one plan at once; a Solver or Dist is a
// plan plus its own populations and buffers.
//
// The whole-domain plan rides the Domain (geometry.Domain.Derive) and
// goes when the Domain is dropped; the plan of one rank of a partition
// is cut out of it (restrictPlan) for the solver that asks.
type plan struct {
	n int // local sites
	// stream[i*Q+q] is the destination of direction q out of local
	// site i (see the encoding at streamCrossBase).
	stream []int32
	// owned maps local index -> global site id (ascending); local maps
	// global site id -> local index or -1, nil meaning the identity (the
	// whole-domain plan).
	owned []int
	local []int32
	// sendOff[r]:sendOff[r+1] is the send-buffer slot range destined for
	// rank r. recvFix[r] lists the local fNew flat indices rank r's
	// message scatters into, in sender order. neighbors are the ranks
	// exchanged with. All empty on a whole-domain plan.
	sendOff   []int
	recvFix   [][]int32
	neighbors []int
}

// localOf returns the local index of global site g, or -1.
func (pl *plan) localOf(g int) int {
	if pl.local == nil {
		return g
	}
	return int(pl.local[g])
}

// streamPending marks, between the two passes of restrictPlan, a
// cross-rank link whose send slot is not assigned yet.
const streamPending = math.MinInt32

type wholeKey struct{}

// wholeEntry is the Derive value of the whole-domain plan: a geometry
// read from a file can be inconsistent, and every solver built on it
// must get the same error.
type wholeEntry struct {
	pl  *plan
	err error
}

// wholePlan returns dom's whole-domain plan — the K = 1 plan of Solver
// and 1-rank Dist, and the table every per-rank plan is cut from —
// building it on first use, on up to GOMAXPROCS participants.
func wholePlan(dom *geometry.Domain) (pl *plan, built bool, err error) {
	v, built := dom.Derive(wholeKey{}, func() any {
		pl, err := buildWholePlan(dom, runtime.GOMAXPROCS(0))
		return wholeEntry{pl, err}
	})
	e := v.(wholeEntry)
	return e.pl, built, e.err
}

// buildWholePlan reads the stream table of the whole domain off the
// sites' link records, in (site, direction) order. It is the only place
// the solver looks at Site.Links. Both of its passes — the table, then
// the check that every fluid link has one coming back — run on up to
// workers participants, parcelSites sites per claim. Every row is its
// own, so the table does not depend on how many; a chunk stops at its
// first inconsistent site, and the lowest chunk's error is returned:
// the one a serial pass meets first.
func buildWholePlan(dom *geometry.Domain, workers int) (*plan, error) {
	m := dom.Model
	Q := m.Q
	n := dom.NumSites()
	if n*Q > math.MaxInt32 {
		return nil, fmt.Errorf("lb: %d sites × Q=%d overflow the stream table's 32-bit indices", n, Q)
	}
	pl := &plan{n: n, stream: make([]int32, n*Q), owned: make([]int, n), sendOff: []int{0, 0}, recvFix: make([][]int32, 1)}
	chunks := (n + parcelSites - 1) / parcelSites
	errs := make([]error, chunks)
	pass := func(site func(g int) error) error {
		guard.ForChunks(chunks, workers, func(c int) {
			for g := c * parcelSites; g < min((c+1)*parcelSites, n); g++ {
				if err := site(g); err != nil {
					errs[c] = err
					return
				}
			}
		})
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	err := pass(func(g int) error {
		pl.owned[g] = g
		site := &dom.Sites[g]
		base := g * Q
		row := pl.stream[base : base+Q]
		dom.Neighbours(g, row[1:]) // neighbour ids, turned into destinations below
		row[0] = int32(base)       // rest population stays
		for q := 1; q < Q; q++ {
			switch link := &site.Links[q-1]; link.Type {
			case geometry.LinkFluid:
				j := int(row[q])
				if j < 0 {
					return fmt.Errorf("lb: inconsistent geometry: fluid link %d of site %v leads to no site", q, site.Pos)
				}
				row[q] = int32(j*Q + q)
			case geometry.LinkWall:
				row[q] = int32(base + m.Opp[q])
			default: // inlet or outlet
				if link.Iolet < 0 || link.Iolet >= len(dom.Iolets) {
					return fmt.Errorf("lb: inconsistent geometry: site %v names iolet %d of %d", site.Pos, link.Iolet, len(dom.Iolets))
				}
				row[q] = int32(encodeIolet - link.Iolet)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Every fluid link has a fluid link coming back: the halo plans
	// count on one population returning for each one sent. True of any
	// voxelised domain; a geometry file can say otherwise.
	err = pass(func(g int) error {
		for q := 1; q < Q; q++ {
			to := int(pl.stream[g*Q+q])
			if to < g*Q || to >= (g+1)*Q { // a fluid link: iolets are negative, walls stay on the site
				if back := to - q + m.Opp[q]; to >= 0 && int(pl.stream[back]) != g*Q+m.Opp[q] {
					return fmt.Errorf("lb: inconsistent geometry: fluid link %d of site %v has no fluid link coming back", q, dom.Sites[g].Pos)
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pl, nil
}

// restrictPlan cuts rank me's plan of part out of the whole-domain
// table: an entry that stays on the rank is renumbered to local
// indices, one that leaves it gets a send slot, ordered by destination
// rank and then (source site, direction) — the order the receiver
// reconstructs from the same table. No link record is read again, and
// the per-site direction order is the whole table's, so the populations
// a kernel computes do not depend on which plan it steps.
func restrictPlan(whole *plan, Q int, part *partition.Partition, me int) *plan {
	K := part.K
	pl := &plan{local: make([]int32, whole.n)}
	for g, r := range part.Parts {
		pl.local[g] = -1
		if int(r) == me {
			pl.local[g] = int32(pl.n)
			pl.n++
		}
	}
	pl.owned = make([]int, 0, pl.n)
	for g, r := range part.Parts {
		if int(r) == me {
			pl.owned = append(pl.owned, g)
		}
	}

	// Pass 1: everything that stays on the rank; count what leaves it
	// per destination rank.
	pl.stream = make([]int32, pl.n*Q)
	pl.sendOff = make([]int, K+1)
	for li, g := range pl.owned {
		src := whole.stream[g*Q : (g+1)*Q]
		dst := pl.stream[li*Q : (li+1)*Q]
		for q, to := range src {
			switch j := int(to) / Q; {
			case to < 0: // iolet
				dst[q] = to
			case j == g: // rest, or a wall's bounce into the site's own slot
				dst[q] = to + int32((li-g)*Q)
			case pl.local[j] >= 0:
				dst[q] = pl.local[j]*int32(Q) + int32(q)
			default:
				dst[q] = streamPending
				pl.sendOff[part.Parts[j]+1]++
			}
		}
	}
	for r := 0; r < K; r++ {
		pl.sendOff[r+1] += pl.sendOff[r]
	}

	// Pass 2: assign the send slots. The slots handed out must be the
	// slots counted (the computed-vs-actual self-check of a parcel
	// split): a mismatch would silently mis-deliver populations.
	next := append([]int(nil), pl.sendOff[:K]...)
	for li, g := range pl.owned {
		for q := 1; q < Q; q++ {
			if pl.stream[li*Q+q] != streamPending {
				continue
			}
			r := part.Parts[int(whole.stream[g*Q+q])/Q]
			pl.stream[li*Q+q] = streamCrossBase - int32(next[r])
			next[r]++
		}
	}
	for r := 0; r < K; r++ {
		if next[r] != pl.sendOff[r+1] {
			panic(fmt.Sprintf("lb: rank %d assigned %d send slots for rank %d, counted %d",
				me, next[r]-pl.sendOff[r], r, pl.sendOff[r+1]-pl.sendOff[r]))
		}
	}

	// Receive plan: for each rank r this rank exchanges with, the links
	// (g owned by r, dir q) whose target is owned by me, in (g, q) order
	// — exactly the sender's packing order. Lattice links are symmetric
	// (buildWholePlan checked), so the ranks that send to me are the
	// ranks I send to, one population back for each one out; the sites
	// of every other rank are skipped unread.
	pl.recvFix = make([][]int32, K)
	for r := 0; r < K; r++ {
		if c := pl.sendOff[r+1] - pl.sendOff[r]; c > 0 {
			pl.neighbors = append(pl.neighbors, r)
			pl.recvFix[r] = make([]int32, 0, c)
		}
	}
	for g, r := range part.Parts {
		if pl.recvFix[r] == nil {
			continue // me, or a rank sharing no link with me
		}
		for q, to := range whole.stream[g*Q : (g+1)*Q] {
			if j := int(to) / Q; to >= 0 && j != g && pl.local[j] >= 0 {
				pl.recvFix[r] = append(pl.recvFix[r], pl.local[j]*int32(Q)+int32(q))
			}
		}
	}
	for _, r := range pl.neighbors {
		if got, want := len(pl.recvFix[r]), pl.sendOff[r+1]-pl.sendOff[r]; got != want {
			panic(fmt.Sprintf("lb: rank %d receives %d populations from rank %d but sends it %d", me, got, r, want))
		}
	}
	return pl
}

// planFor returns rank's plan of part on dom: the whole-domain plan at
// K = 1, and otherwise one cut out of it for this caller and kept
// nowhere — the partition is the run's, not the Domain's.
func planFor(dom *geometry.Domain, part *partition.Partition, rank int) (*plan, error) {
	whole, _, err := wholePlan(dom)
	if err != nil || part.K == 1 {
		return whole, err
	}
	return restrictPlan(whole, dom.Model.Q, part, rank), nil
}

// Prepare builds dom's whole-domain plan unless the Domain already
// keeps it (hit). New and NewDist do so themselves on first use; a
// caller that wants the cost, or an inconsistent geometry's error,
// before its run starts calls this first.
func Prepare(dom *geometry.Domain) (hit bool, err error) {
	_, built, err := wholePlan(dom)
	return !built, err
}
