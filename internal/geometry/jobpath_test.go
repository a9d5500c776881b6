package geometry_test

import (
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/geometry"
	"repro/internal/lattice"
)

// TestJobPathDerivesNoLinkDists: a job's cold start on a fresh domain —
// Voxelise, core.New, the first step — spends exactly the primitive SDF
// evaluations Voxelise alone spends, and leaves the distance table
// unbuilt: nothing a job runs reads a link distance.
func TestJobPathDerivesNoLinkDists(t *testing.T) {
	for _, preset := range []string{"aneurysm", "tree"} {
		for _, ranks := range []int{1, 2} {
			v, err := geometry.VesselByName(preset, 1)
			if err != nil {
				t.Fatal(err)
			}
			var n atomic.Int64
			cv := *v
			cv.Shape = geometry.Counted(v.Shape, &n)
			d, err := geometry.Voxelise(&cv, 1, lattice.D3Q19())
			if err != nil {
				t.Fatal(err)
			}
			voxelise := n.Load()
			sim, err := core.New(core.Config{Domain: d, Tau: 0.9, Ranks: ranks, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := sim.Run(1); err != nil {
				t.Fatal(err)
			}
			sim.Close()
			if got := n.Load(); got != voxelise {
				t.Errorf("%s@1, %d ranks: %d SDF evaluations after the first step, Voxelise alone %d", preset, ranks, got, voxelise)
			}
			if geometry.LinkDistsBuilt(d) {
				t.Errorf("%s@1, %d ranks: the job built the link distance table", preset, ranks)
			}
			if d.LinkDists(); !geometry.LinkDistsBuilt(d) || n.Load() == voxelise {
				t.Errorf("%s@1: LinkDists did not build the table on the domain's shape", preset)
			}
		}
	}
}
