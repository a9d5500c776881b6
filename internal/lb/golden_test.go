package lb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"repro/internal/geometry"
	"repro/internal/lattice"
	"repro/internal/par"
	"repro/internal/partition"
)

// stateHash is FNV-1a over the little-endian Float64bits of a
// population vector: any single-bit change in any population moves it.
func stateHash(f []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range f {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenStepper is what a golden case drives; Solver and Dist both
// satisfy it, so one script runs against either.
type goldenStepper interface {
	Advance(int)
	SetIoletDensity(int, float64) error
	SetPulse(int, *Pulse) error
}

// TestGoldenStateHash pins the kernel's arithmetic: the hashes below
// were recorded on the commit *before* Solver and Dist were merged onto
// one collide+stream loop, and every later kernel rewrite (ROADMAP item
// 2) must reproduce them — from the serial solver, from the distributed
// one at 1/2/3 ranks, tiled and untiled — or bump the checkpoint magic
// deliberately. It also pins that serial and distributed checkpoints
// are the same bytes.
func TestGoldenStateHash(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The constants are amd64 values (default GOAMD64=v1). On arm64,
		// ppc64le, s390x, riscv64 — and amd64 built with GOAMD64=v3 — the
		// Go compiler may fuse x*y+z into one rounding, which legitimately
		// changes the low bits.
		t.Skipf("golden hashes are amd64 values; %s may fuse multiply-add", runtime.GOARCH)
	}
	for _, tc := range goldenCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			var serialCkpt []byte
			for _, threads := range []int{1, 3} {
				s, err := New(tc.dom, Params{Tau: 0.9, Kind: tc.kind, Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				s.setWorkers(threads)
				tc.drive(s)
				if got := stateHash(s.F()); got != tc.want {
					t.Errorf("Solver threads=%d: state hash %#016x, want %#016x", threads, got, tc.want)
				}
				if threads == 1 {
					serialCkpt = solverRecord(s)
				}
				s.Close()
			}
			for _, k := range []int{1, 2, 3} {
				part := pipePartition(t, tc.dom, k, partition.MethodMultilevel)
				for _, threads := range []int{1, 3} {
					var got uint64
					var ckpt []byte
					par.NewRuntime(k).Run(func(c *par.Comm) {
						d, err := NewDist(c, tc.dom, part, Params{Tau: 0.9, Kind: tc.kind, Threads: threads})
						must(err)
						d.setWorkers(threads)
						defer d.Close()
						tc.drive(d)
						if st := d.GatherState(nil); st != nil {
							got = stateHash(st.F)
							ckpt = stateRecord(st)
						}
					})
					id := fmt.Sprintf("Dist ranks=%d threads=%d", k, threads)
					if got != tc.want {
						t.Errorf("%s: state hash %#016x, want %#016x", id, got, tc.want)
					}
					if !bytes.Equal(ckpt, serialCkpt) {
						t.Errorf("%s: checkpoint bytes differ from the Solver's", id)
					}
				}
			}
		})
	}
}

// must panics on err: golden drives run inside rank goroutines.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// goldenCase is one configuration TestGoldenStateHash pins: a domain,
// a collision kind, a drive script and the state hash it must end at.
type goldenCase struct {
	name  string
	dom   *geometry.Domain
	kind  Collision
	drive func(goldenStepper)
	want  uint64
}

// goldenCases builds the golden configurations.
func goldenCases(t testing.TB) []goldenCase {
	voxelise := func(v *geometry.Vessel, m *lattice.Model) *geometry.Domain {
		dom, err := geometry.Voxelise(v, 1.0, m)
		if err != nil {
			t.Fatal(err)
		}
		return dom
	}
	advance40 := func(s goldenStepper) { s.Advance(40) }
	return []goldenCase{
		{"pipe-bgk", voxelise(geometry.Pipe(16, 3), lattice.D3Q19()), BGK, advance40, goldenPipeBGK},
		{"pipe-trt", voxelise(geometry.Pipe(16, 3), lattice.D3Q19()), TRT, advance40, goldenPipeTRT},
		{"aneurysm-pulsed-steered", voxelise(geometry.Aneurysm(16, 3, 5), lattice.D3Q19()), BGK, func(s goldenStepper) {
			must(s.SetPulse(0, &Pulse{Amp: 0.01, Period: 20}))
			s.Advance(25)
			must(s.SetIoletDensity(1, 0.99))
			s.Advance(25)
		}, goldenAneurysm},
		{"pipe-d3q15", voxelise(geometry.Pipe(16, 3), lattice.D3Q15()), BGK, advance40, goldenPipeD3Q15},
	}
}

// Recorded on the parent of the one-kernel refactor (amd64, go1.22+).
const (
	goldenPipeBGK   uint64 = 0x2a0f49f0e9dd6a85
	goldenPipeTRT   uint64 = 0x89307dbcba249480
	goldenAneurysm  uint64 = 0x0912fa7e1eeb2b2e
	goldenPipeD3Q15 uint64 = 0x76d3481885d6ac39
)
