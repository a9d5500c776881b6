package partition

import (
	"fmt"
	"math/rand"
	"slices"
)

// Method names a partitioning algorithm for harnesses and CLIs.
type Method string

// Available partitioning methods.
const (
	MethodBlock      Method = "block"
	MethodMorton     Method = "morton"
	MethodRCB        Method = "rcb"
	MethodMultilevel Method = "multilevel"
)

// OnePart is every method's answer at k = 1, all n vertices in part 0,
// without the graph: a 1-rank run needs no partitioner (the multilevel
// one would coarsen the whole graph to find that out — it was the
// largest line of a 1-rank job's setup) and so no site graph either.
func OnePart(m Method, n int) (*Partition, error) {
	if !slices.Contains(Methods(), m) {
		return nil, fmt.Errorf("partition: unknown method %q", m)
	}
	if n <= 0 {
		return nil, fmt.Errorf("partition: empty graph")
	}
	return &Partition{K: 1, Parts: make([]int32, n)}, nil
}

// ByMethod dispatches to a partitioner by name; k = 1 is OnePart.
func ByMethod(m Method, g *Graph, k int, seed int64) (*Partition, error) {
	if k == 1 {
		if g == nil {
			return nil, fmt.Errorf("partition: empty graph")
		}
		return OnePart(m, g.N)
	}
	switch m {
	case MethodBlock:
		return Block(g, k)
	case MethodMorton:
		return Morton(g, k)
	case MethodRCB:
		return RCB(g, k)
	case MethodMultilevel:
		return MultilevelKWay(g, k, MLOptions{Seed: seed})
	}
	return nil, fmt.Errorf("partition: unknown method %q", m)
}

// Methods lists all available methods in comparison order.
func Methods() []Method {
	return []Method{MethodBlock, MethodMorton, MethodRCB, MethodMultilevel}
}

// Repartition adapts an existing partition to changed vertex weights
// (e.g. after visualisation cost was added to the balance equation,
// section IV-B's "opportunity to adjust the partitioning mid-term").
// It runs diffusive boundary refinement from the old assignment rather
// than partitioning from scratch, which keeps migration volume low.
// maxImbalance is the target max/mean ratio (e.g. 1.05).
func Repartition(g *Graph, old *Partition, maxImbalance float64, seed int64) (*Partition, error) {
	if err := checkArgs(g, old.K); err != nil {
		return nil, err
	}
	if err := old.Valid(g.N); err != nil {
		return nil, err
	}
	if maxImbalance <= 1 {
		maxImbalance = 1.05
	}
	parts := append([]int32(nil), old.Parts...)
	k := old.K
	rng := rand.New(rand.NewSource(seed + 17))

	weights := make([]float64, k)
	total := 0.0
	for v := 0; v < g.N; v++ {
		weights[parts[v]] += g.VWgt[v]
		total += g.VWgt[v]
	}
	target := total / float64(k)
	maxAllowed := maxImbalance * target

	// Diffusion passes: overweight parts shed boundary vertices to
	// their lightest neighbouring part; then polish with gain-based
	// refinement to recover edge cut.
	for pass := 0; pass < 8; pass++ {
		movedAny := false
		order := rng.Perm(g.N)
		for _, v := range order {
			home := parts[v]
			if weights[home] <= maxAllowed {
				continue
			}
			// Lightest adjacent part.
			best := home
			bestW := weights[home]
			for e := g.Xadj[v]; e < g.Xadj[v+1]; e++ {
				p := parts[g.Adjncy[e]]
				if p != home && weights[p] < bestW {
					best, bestW = p, weights[p]
				}
			}
			if best != home && weights[best]+g.VWgt[v] < weights[home] {
				weights[home] -= g.VWgt[v]
				weights[best] += g.VWgt[v]
				parts[v] = best
				movedAny = true
			}
		}
		if !movedAny {
			break
		}
	}
	newP := &Partition{K: k, Parts: parts}
	refine(g, parts, k, MLOptions{ImbalanceTol: maxImbalance, RefinePasses: 3, Seed: seed}.withDefaults(k), rng)
	return newP, nil
}
