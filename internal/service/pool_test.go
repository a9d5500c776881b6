package service

import (
	"bytes"
	"image/png"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geometry"
	"repro/internal/insitu"
	"repro/internal/lattice"
)

// TestFrameAllocationBudget guards the frame-path diet on the
// kernel-large domain (tree@3.0, 79 746 sites): a cache-miss 256×192
// volume frame through a pool worker allocates the PNG it returns and
// little else — the worker keeps its image, scalar table, 8-bit image
// and compressor state (16 KB in 8 objects with this field's 11 KB
// PNG). It took ≈ 4.7 MB per frame, each fresh page a first-touch fault
// on a tight heap; the ceiling leaves room for a larger PNG only.
func TestFrameAllocationBudget(t *testing.T) {
	v, err := geometry.VesselByName("tree", 3.0)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := geometry.Voxelise(v, 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	n := dom.NumSites()
	rng := rand.New(rand.NewSource(4))
	f := &field.Field{Dom: dom, Rho: make([]float64, n), Ux: make([]float64, n), Uy: make([]float64, n), Uz: make([]float64, n)}
	for i := 0; i < n; i++ {
		f.Rho[i], f.Ux[i], f.Uy[i], f.Uz[i] = 1+0.01*rng.Float64(), 0.01*rng.Float64(), 0.01*rng.Float64(), 0.05*rng.Float64()
	}
	pool := NewRenderPool(1, 1, nil)
	defer pool.Close()
	snap := &core.Snapshot{Field: f}
	frame := func(i int) []byte {
		req := insitu.DefaultRequest()
		req.W, req.H, req.Azimuth = 256, 192, 0.5+0.37*float64(i)
		data, w, h, err := pool.Render(snap, req)
		if err != nil || w != 256 || h != 192 {
			t.Fatalf("frame %d: %dx%d, %v", i, w, h, err)
		}
		return data
	}
	img, err := png.Decode(bytes.NewReader(frame(0))) // warm: bricks, worker buffers
	if err != nil || img.Bounds().Dx() != 256 {
		t.Fatalf("warm frame does not decode: %v", err)
	}
	const rounds = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pngBytes := 0
	for r := 1; r <= rounds; r++ {
		pngBytes += len(frame(r))
	}
	runtime.ReadMemStats(&after)
	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / rounds
	objects := float64(after.Mallocs-before.Mallocs) / rounds
	t.Logf("one frame of %d sites: %.0f bytes in %.0f objects, of which PNG %d bytes", n, perFrame, objects, pngBytes/rounds)
	const maxBytes, maxObjects = 0.5e6, 40
	if !raceEnabled && (perFrame > maxBytes || objects > maxObjects) {
		t.Errorf("one frame allocates %.0f bytes in %.0f objects, budget %.0f bytes / %d objects", perFrame, objects, maxBytes, maxObjects)
	}
}
