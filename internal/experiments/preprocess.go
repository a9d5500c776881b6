package experiments

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/geometry"
	"repro/internal/gmy"
	"repro/internal/lattice"
	"repro/internal/lb"
	"repro/internal/octree"
	"repro/internal/par"
	"repro/internal/partition"
	"repro/internal/vec"
)

// GmyReadRow measures one reader-subset size of the two-level read
// (E8): the paper's knob for "the balance between file I/O and
// distribution communication".
type GmyReadRow struct {
	Ranks      int
	Readers    int
	Wall       time.Duration
	DistBytes  int64 // redistribution traffic
	BalanceMax float64
}

// GmyReadSweep writes an aneurysm geometry to an in-memory file and
// replays the parallel read with varying reader counts.
func GmyReadSweep(ranks int, readerCounts []int) ([]GmyReadRow, error) {
	if ranks == 0 {
		ranks = 8
	}
	if len(readerCounts) == 0 {
		readerCounts = []int{1, 2, 4, 8}
	}
	dom, err := geometry.Voxelise(geometry.Aneurysm(24, 4, 6), 1.0, lattice.D3Q19())
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gmy.Write(&buf, dom); err != nil {
		return nil, err
	}
	file := buf.Bytes()
	var rows []GmyReadRow
	for _, readers := range readerCounts {
		if readers > ranks {
			continue
		}
		rt := par.NewRuntime(ranks)
		var quality float64
		t0 := time.Now()
		var readErr error
		rt.Run(func(c *par.Comm) {
			h, assign, _, err := gmy.ParallelRead(c, file, readers)
			if err != nil {
				if c.Rank() == 0 {
					readErr = err
				}
				return
			}
			if c.Rank() == 0 {
				quality = gmy.BalanceQuality(h.BlockFluid, assign, ranks)
			}
		})
		if readErr != nil {
			return nil, readErr
		}
		rows = append(rows, GmyReadRow{
			Ranks:      ranks,
			Readers:    readers,
			Wall:       time.Since(t0),
			DistBytes:  rt.Traffic().Bytes(),
			BalanceMax: quality,
		})
	}
	return rows, nil
}

// FormatGmyRead renders E8 rows.
func FormatGmyRead(rows []GmyReadRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "two-level geometry read (%d ranks)\n", rows[0].Ranks)
	fmt.Fprintf(&b, "%8s %12s %14s %14s\n", "readers", "wall", "dist bytes", "coarse bal")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %12s %14d %14.3f\n",
			r.Readers, r.Wall.Round(time.Millisecond), r.DistBytes, r.BalanceMax)
	}
	return b.String()
}

// PartitionerRow compares decomposition methods (the ParMETIS-role
// study behind §IV-A/B).
type PartitionerRow struct {
	Method    partition.Method
	Wall      time.Duration
	EdgeCut   float64
	Imbalance float64
	Boundary  int
}

// PartitionerComparison partitions the cerebral tree with every
// available method.
func PartitionerComparison(k int, scale float64) ([]PartitionerRow, error) {
	if k == 0 {
		k = 8
	}
	if scale == 0 {
		scale = 1.2
	}
	dom, err := geometry.Voxelise(geometry.CerebralTree(scale), 1.0, lattice.D3Q19())
	if err != nil {
		return nil, err
	}
	g := partition.FromDomain(dom)
	var rows []PartitionerRow
	for _, m := range partition.Methods() {
		t0 := time.Now()
		p, err := partition.ByMethod(m, g, k, 11)
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		q := partition.Measure(g, p)
		rows = append(rows, PartitionerRow{
			Method: m, Wall: wall,
			EdgeCut: q.EdgeCut, Imbalance: q.Imbalance, Boundary: q.Boundary,
		})
	}
	return rows, nil
}

// FormatPartitioners renders the comparison.
func FormatPartitioners(rows []PartitionerRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %12s %12s %10s %10s\n", "method", "wall", "edge cut", "imbalance", "boundary")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %12s %12.0f %10.3f %10d\n",
			r.Method, r.Wall.Round(time.Microsecond), r.EdgeCut, r.Imbalance, r.Boundary)
	}
	return b.String()
}

// RepartitionRow records E9: the balance equation with and without
// visualisation weights, and the cost of adapting.
type RepartitionRow struct {
	Alpha           float64
	ImbalanceBefore float64 // under viz-augmented weights, old partition
	ImbalanceAfter  float64 // after diffusive repartitioning
	MigratedSites   int
	MigrationShare  float64
}

// RepartitionSweep measures mid-run rebalancing for growing viz-cost
// weight on an ROI covering the aneurysm sac.
func RepartitionSweep(k int, alphas []float64) ([]RepartitionRow, error) {
	if k == 0 {
		k = 8
	}
	if len(alphas) == 0 {
		alphas = []float64{0.5, 1, 2, 4}
	}
	dom, err := geometry.Voxelise(geometry.Aneurysm(20, 3.5, 5), 1.0, lattice.D3Q19())
	if err != nil {
		return nil, err
	}
	var rows []RepartitionRow
	for _, alpha := range alphas {
		g := partition.FromDomain(dom)
		p0, err := partition.MultilevelKWay(g, k, partition.MLOptions{Seed: 7})
		if err != nil {
			return nil, err
		}
		// ROI: the sac half of the domain (x above the vessel axis).
		vizCost := make([]float64, g.N)
		for i, site := range dom.Sites {
			if float64(site.Pos.X) > float64(dom.Dims.X)*0.55 {
				vizCost[i] = 1
			}
		}
		if err := g.ApplyVizWeights(vizCost, alpha); err != nil {
			return nil, err
		}
		before := p0.Imbalance(g)
		p1, err := partition.Repartition(g, p0, 1.05, 7)
		if err != nil {
			return nil, err
		}
		mig := partition.MigrationVolume(p0, p1)
		rows = append(rows, RepartitionRow{
			Alpha:           alpha,
			ImbalanceBefore: before,
			ImbalanceAfter:  p1.Imbalance(g),
			MigratedSites:   mig,
			MigrationShare:  float64(mig) / float64(g.N),
		})
	}
	return rows, nil
}

// FormatRepartition renders E9 rows.
func FormatRepartition(rows []RepartitionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "viz-aware repartitioning (balance equation incl. visualisation)\n")
	fmt.Fprintf(&b, "%8s %14s %14s %10s %10s\n", "alpha", "imb before", "imb after", "migrated", "share")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8.2f %14.3f %14.3f %10d %10.3f\n",
			r.Alpha, r.ImbalanceBefore, r.ImbalanceAfter, r.MigratedSites, r.MigrationShare)
	}
	return b.String()
}

// MultiresRow records E10: the /data reply's nodes and wire bytes at
// each level-of-detail / ROI configuration, and the time to produce it.
type MultiresRow struct {
	Label        string
	Nodes        int
	Bytes        int
	ReductionPct float64
	QueryTime    time.Duration
}

// MultiresSweep builds the octree over a developed aneurysm flow and
// compares the full-resolution reply (the whole domain at detail 0)
// against LOD replies (detail = context = l) and a context+detail ROI
// reply, each produced the way the /data route streams it.
func MultiresSweep() ([]MultiresRow, error) {
	dom, err := geometry.Voxelise(geometry.Aneurysm(20, 3.5, 5), 1.0, lattice.D3Q19())
	if err != nil {
		return nil, err
	}
	solver, err := lb.New(dom, lb.Params{Tau: 0.9})
	if err != nil {
		return nil, err
	}
	solver.Advance(300)
	rho, ux, uy, uz, wss := solver.Fields(nil, nil, nil, nil, nil)
	tree, err := octree.Build(dom, octree.Fields{Rho: rho, Ux: ux, Uy: uy, Uz: uz, WSS: wss})
	if err != nil {
		return nil, err
	}
	dims := dom.Dims.F()
	fullBytes := tree.Answer(dims, vec.V3{}, vec.V3{}, 0, 0).Size()
	var rows []MultiresRow
	add := func(label string, lo, hi vec.V3, detail, context int) {
		t0 := time.Now()
		reply := tree.Answer(dims, lo, hi, detail, context)
		_, _ = reply.WriteTo(io.Discard) // io.Discard never fails
		dt := time.Since(t0)
		rows = append(rows, MultiresRow{
			Label: label, Nodes: reply.Nodes(), Bytes: reply.Size(),
			ReductionPct: 100 * (1 - float64(reply.Size())/float64(fullBytes)),
			QueryTime:    dt,
		})
	}
	add("full-res", vec.V3{}, vec.V3{}, 0, 0)
	for l := 1; l <= 3 && l < tree.Depth(); l++ {
		add(fmt.Sprintf("lod-%d (1/%d)", l, 1<<l), vec.V3{}, vec.V3{}, l, l)
	}
	// ROI query: detail on the sac, coarse context elsewhere.
	mid := dom.Sites[dom.NumSites()/2].Pos.F()
	add("roi+context", mid.Sub(vec.Splat(6)), mid.Add(vec.Splat(6)), 0, 3)
	return rows, nil
}

// FormatMultires renders E10 rows.
func FormatMultires(rows []MultiresRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "multi-resolution extraction (octree over aneurysm flow)\n")
	fmt.Fprintf(&b, "%-16s %10s %12s %12s %12s\n", "config", "nodes", "bytes", "reduction", "query")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %10d %12d %11.1f%% %12s\n",
			r.Label, r.Nodes, r.Bytes, r.ReductionPct, r.QueryTime.Round(time.Microsecond))
	}
	return b.String()
}
