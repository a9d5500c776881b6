package lb

import (
	"fmt"
	"testing"

	"repro/internal/geometry"
	"repro/internal/lattice"
)

// presetDomain voxelises a named vessel preset at the given scale.
func presetDomain(t testing.TB, name string, scale float64) *geometry.Domain {
	t.Helper()
	v, err := geometry.VesselByName(name, scale)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := geometry.Voxelise(v, 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	return dom
}

// BenchmarkKernelStep is the kernel's inner-loop benchmark: ns per site
// update on the two domains bench/ runs (aneurysm@2.0 = kernel-small,
// tree@3.0 = kernel-large), unrolled D3Q19 body against the generic-Q
// oracle, both operators. Kernel work iterates on this in seconds; the
// claim itself is still a paired bench/ run.
//
//	go test -run '^$' -bench KernelStep -benchtime 50x ./internal/lb
func BenchmarkKernelStep(b *testing.B) {
	for _, dc := range []struct {
		preset string
		scale  float64
	}{{"aneurysm", 2.0}, {"tree", 3.0}} {
		dom := presetDomain(b, dc.preset, dc.scale)
		for _, kind := range []Collision{BGK, TRT} {
			for _, body := range []string{"d3q19", "generic"} {
				b.Run(fmt.Sprintf("%s@%g/%v/%s", dc.preset, dc.scale, kind, body), func(b *testing.B) {
					s, err := New(dom, Params{Tau: 0.9, Kind: kind})
					if err != nil {
						b.Fatal(err)
					}
					s.d3q19 = body == "d3q19"
					s.Advance(2)
					b.ResetTimer()
					s.Advance(b.N)
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(s.NumSites()), "ns/site")
				})
			}
		}
	}
}
