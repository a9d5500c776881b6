// Package repro's top-level benchmark suite regenerates every table
// and figure of the paper, one benchmark per artefact (the E-numbers
// of DESIGN.md). Run with:
//
//	go test -bench=. -benchmem
//
// Custom metrics carry the reproduction observables: comm bytes,
// message counts, modelled efficiency, reduction percentages. The same
// harnesses back cmd/vizbench and cmd/scalebench. These reproduce the
// paper's tables (modelled or counted over simulated ranks); ns/op here
// is not wall-clock evidence about the system — that is a paired
// parent/change run of bash bench/run.sh.
package repro

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/geometry"
	"repro/internal/gmy"
	"repro/internal/insitu"
	"repro/internal/lattice"
	"repro/internal/lb"
	"repro/internal/par"
	"repro/internal/partition"
)

// BenchmarkTableI_E1 regenerates Table I: the four visualisation
// techniques measured for communication cost (absolute and growth with
// data size), message frequency and work imbalance.
func BenchmarkTableI_E1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.TableI(experiments.TableIConfig{
			Ranks: 8, ImageW: 64, ImageH: 48, Steps: 300, Seeds: 12, TraceSteps: 300,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				b.ReportMetric(float64(r.CommBytes), r.Technique+"-comm-B")
				b.ReportMetric(r.CommGrowth, r.Technique+"-growth")
			}
			b.Log("\n" + experiments.FormatTableI(rows))
		}
	}
}

// BenchmarkFig1_E2 regenerates the Fig. 1 artefact: voxelising a
// sparse vessel onto the regular lattice, the discretisation the
// figure illustrates.
func BenchmarkFig1_E2(b *testing.B) {
	v := geometry.Bifurcation(12, 10, 3, 0.6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dom, err := geometry.Voxelise(v, 1.0, lattice.D3Q19())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(dom.NumSites()), "fluid-sites")
			b.ReportMetric(100*dom.FluidFraction(), "fluid-%")
		}
	}
}

// BenchmarkFig2_E3 exercises the closed loop of Fig. 2: a distributed
// simulation advancing with in situ rendering each interval (steering
// protocol tested separately in internal/core).
func BenchmarkFig2_E3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sim, err := core.New(core.Config{
			Vessel: geometry.Aneurysm(16, 3, 4), H: 1, Tau: 0.9,
			Ranks: 4, VizEvery: 20,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Run(60); err != nil {
			b.Fatal(err)
		}
		if sim.LastImage == nil {
			b.Fatal("no in situ image")
		}
		sim.Close()
	}
}

// BenchmarkFig3_E4 times the post-processing pipeline stages (extract
// → filter → render) of Fig. 3.
func BenchmarkFig3_E4(b *testing.B) {
	dom, err := geometry.Voxelise(geometry.Aneurysm(20, 3.5, 5), 1.0, lattice.D3Q19())
	if err != nil {
		b.Fatal(err)
	}
	solver, err := lb.New(dom, lb.Params{Tau: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	solver.Advance(300)
	p := insitu.NewPipeline(solver)
	req := insitu.DefaultRequest()
	req.W, req.H = 96, 72
	b.ResetTimer()
	var last *insitu.Result
	for i := 0; i < b.N; i++ {
		res, err := p.Run(req)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Extract.Seconds()*1e3, "extract-ms")
	b.ReportMetric(last.Filter.Seconds()*1e3, "filter-ms")
	b.ReportMetric(last.Render.Seconds()*1e3, "render-ms")
	b.ReportMetric(100*(1-float64(last.ReducedBytes)/float64(last.FullBytes)), "reduction-%")
}

// BenchmarkFig4a_E5 regenerates the volume-rendered aneurysm image.
func BenchmarkFig4a_E5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		img, err := experiments.Figure4a(experiments.FigureConfig{Steps: 300, W: 160, H: 120})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*img.CoveredFraction(), "covered-%")
		}
	}
}

// BenchmarkFig4b_E6 regenerates the streamline image.
func BenchmarkFig4b_E6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		img, err := experiments.Figure4b(experiments.FigureConfig{Steps: 300, W: 160, H: 120})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(100*img.CoveredFraction(), "covered-%")
		}
	}
}

// BenchmarkScaling_E7 regenerates the strong-scaling study (the §II
// reference result): counted halo traffic + modelled interconnect.
func BenchmarkScaling_E7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.StrongScaling(experiments.ScalingConfig{
			RankCounts: []int{1, 2, 4, 8, 16, 32}, Steps: 10, Scale: 1.0,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Ranks == 32 {
					b.ReportMetric(r.Speedup, "speedup@32")
					b.ReportMetric(r.Efficiency, "eff@32")
				}
			}
			b.Log("\n" + experiments.FormatScaling(rows, false))
		}
	}
}

// BenchmarkGmyRead_E8 regenerates the two-level read sweep: reader
// subset size vs redistribution traffic.
func BenchmarkGmyRead_E8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.GmyReadSweep(8, []int{1, 2, 4, 8})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rows[0].DistBytes), "1reader-B")
			b.ReportMetric(float64(rows[len(rows)-1].DistBytes), "8readers-B")
		}
	}
}

// BenchmarkRepartition_E9 regenerates the viz-aware rebalancing sweep.
func BenchmarkRepartition_E9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RepartitionSweep(8, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := rows[len(rows)-1]
			b.ReportMetric(last.ImbalanceBefore, "imb-before")
			b.ReportMetric(last.ImbalanceAfter, "imb-after")
			b.ReportMetric(last.MigrationShare, "migration-share")
		}
	}
}

// BenchmarkMultires_E10 regenerates the §V data-reduction table.
func BenchmarkMultires_E10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.MultiresSweep()
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, r := range rows {
				if r.Label == "roi+context" {
					b.ReportMetric(r.ReductionPct, "roi-reduction-%")
				}
			}
		}
	}
}

// BenchmarkSolverMLUPS measures raw solver throughput (the headline
// lattice-code metric).
func BenchmarkSolverMLUPS(b *testing.B) {
	dom, err := geometry.Voxelise(geometry.CerebralTree(1.2), 1.0, lattice.D3Q19())
	if err != nil {
		b.Fatal(err)
	}
	s, err := lb.New(dom, lb.Params{Tau: 0.9})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.CollideStreamLocal()
		s.Swap()
	}
	b.ReportMetric(float64(s.NumSites())*float64(b.N)/b.Elapsed().Seconds()/1e6, "MLUPS")
}

// BenchmarkGmyWrite measures the geometry-format serialisation cost.
func BenchmarkGmyWrite(b *testing.B) {
	dom, err := geometry.Voxelise(geometry.Aneurysm(20, 3.5, 5), 1.0, lattice.D3Q19())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := gmy.Write(&buf, dom); err != nil {
			b.Fatal(err)
		}
		n = buf.Len()
	}
	b.ReportMetric(float64(n), "file-bytes")
	b.ReportMetric(float64(n)/float64(dom.NumSites()), "B/site")
}

// BenchmarkPartitionMethods compares the decomposition algorithms
// (ablation for the ParMETIS-role choice).
func BenchmarkPartitionMethods(b *testing.B) {
	dom, err := geometry.Voxelise(geometry.CerebralTree(1.2), 1.0, lattice.D3Q19())
	if err != nil {
		b.Fatal(err)
	}
	g := partition.FromDomain(dom)
	for _, m := range partition.Methods() {
		b.Run(string(m), func(b *testing.B) {
			var q partition.Quality
			for i := 0; i < b.N; i++ {
				p, err := partition.ByMethod(m, g, 8, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				q = partition.Measure(g, p)
			}
			b.ReportMetric(q.EdgeCut, "edge-cut")
			b.ReportMetric(q.Imbalance, "imbalance")
		})
	}
}

// BenchmarkHaloExchange isolates the per-step communication cost of
// the distributed solver.
func BenchmarkHaloExchange(b *testing.B) {
	dom, err := geometry.Voxelise(geometry.Aneurysm(20, 3.5, 5), 1.0, lattice.D3Q19())
	if err != nil {
		b.Fatal(err)
	}
	g := partition.FromDomain(dom)
	p, err := partition.MultilevelKWay(g, 8, partition.MLOptions{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	rt := par.NewRuntime(8)
	b.ResetTimer()
	rt.Run(func(c *par.Comm) {
		d, err := lb.NewDist(c, dom, p, lb.Params{Tau: 0.9})
		if err != nil {
			panic(err)
		}
		for i := 0; i < b.N; i++ {
			d.Step()
		}
	})
	b.ReportMetric(float64(rt.Traffic().Bytes())/float64(b.N), "halo-B/step")
}
