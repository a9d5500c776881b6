package lb

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"repro/internal/par"
	"repro/internal/partition"
)

// TestSolverTiledBitIdentical is the tentpole guarantee: the tiled
// collide+stream pass must produce byte-identical populations to the
// serial kernel for every tile count — tiling changes scheduling, never
// arithmetic — including under mid-run steering (iolet change) and a
// pulsed inlet.
func TestSolverTiledBitIdentical(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	run := func(threads int) *Solver {
		s, err := New(dom, Params{Tau: 0.9, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		s.setWorkers(threads)
		if err := s.SetPulse(0, &Pulse{Amp: 0.002, Period: 13}); err != nil {
			t.Fatal(err)
		}
		s.Advance(17)
		if err := s.SetIoletDensity(1, 0.995); err != nil {
			t.Fatal(err)
		}
		s.Advance(16)
		return s
	}
	serial := run(0)
	for _, threads := range []int{1, 2, 3, 7} {
		tiled := run(threads)
		if want := max(threads, 1); tiled.Threads() != want {
			t.Errorf("threads=%d: Threads() = %d, want %d", threads, tiled.Threads(), want)
		}
		sf, tf := serial.F(), tiled.F()
		for i := range sf {
			if math.Float64bits(sf[i]) != math.Float64bits(tf[i]) {
				t.Fatalf("threads=%d: f[%d] = %v differs from serial %v", threads, i, tf[i], sf[i])
			}
		}
		// Checkpoints must be byte-identical too: a resume taken from a
		// tiled run replays bit-exactly on a serial one and vice versa.
		if !bytes.Equal(solverRecord(serial), solverRecord(tiled)) {
			t.Errorf("threads=%d: checkpoint bytes differ from serial", threads)
		}
		tiled.Close()
		// Close is a no-op; the solver must keep producing the serial
		// trajectory.
		serial.Advance(3)
		tiled.Advance(3)
		sf, tf = serial.F(), tiled.F()
		for i := range sf {
			if math.Float64bits(sf[i]) != math.Float64bits(tf[i]) {
				t.Fatalf("threads=%d after Close: f[%d] differs from serial", threads, i)
			}
		}
		// Rewind the serial reference for the next tile count.
		serial = run(0)
	}
}

// TestDistTiledBitIdentical extends bit-exactness to the distributed
// driver: tiled ranks (including the packed cross-rank sendBuf writes)
// must match the serial-rank run byte for byte, checkpoint included.
func TestDistTiledBitIdentical(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	const steps = 33
	for _, ranks := range []int{1, 2} {
		part := pipePartition(t, dom, ranks, partition.MethodMultilevel)
		run := func(threads int) []byte {
			var ckpt []byte
			rt := par.NewRuntime(ranks)
			rt.Run(func(c *par.Comm) {
				d, err := NewDist(c, dom, part, Params{Tau: 0.9, Threads: threads})
				if err != nil {
					panic(err)
				}
				defer d.Close()
				d.setWorkers(threads)
				if err := d.SetPulse(0, &Pulse{Amp: 0.002, Period: 13}); err != nil {
					panic(err)
				}
				d.Advance(steps)
				if rec := distRecord(d); c.Rank() == 0 {
					ckpt = rec
				}
			})
			return ckpt
		}
		serial := run(0)
		for _, threads := range []int{2, 3, 7} {
			if tiled := run(threads); !bytes.Equal(serial, tiled) {
				t.Errorf("ranks=%d threads=%d: checkpoint differs from serial run", ranks, threads)
			}
		}
	}
}

// TestRedistributeCarriesThreads: a mid-run repartition must rebuild
// the solver with the same worker count, and the migrated state must
// still match the serial trajectory bit for bit.
func TestRedistributeCarriesThreads(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	part := pipePartition(t, dom, 2, partition.MethodMultilevel)
	newPart := pipePartition(t, dom, 2, partition.MethodRCB)
	run := func(threads int) []byte {
		var ckpt []byte
		rt := par.NewRuntime(2)
		rt.Run(func(c *par.Comm) {
			d, err := NewDist(c, dom, part, Params{Tau: 0.9, Threads: threads})
			if err != nil {
				panic(err)
			}
			d.setWorkers(threads)
			d.Advance(9)
			nd, err := d.Redistribute(newPart)
			if err != nil {
				panic(err)
			}
			d.Close()
			d = nd
			defer d.Close()
			if threads > 1 && d.Threads() != threads {
				panic("redistribute dropped the thread count")
			}
			if d.workers != Participants(d.NumOwned(), threads) {
				panic("redistribute did not derive the participants from the sites it owns")
			}
			d.setWorkers(threads)
			d.Advance(9)
			if rec := distRecord(d); c.Rank() == 0 {
				ckpt = rec
			}
		})
		return ckpt
	}
	serial := run(1)
	if tiled := run(3); !bytes.Equal(serial, tiled) {
		t.Error("tiled run across a repartition differs from serial")
	}
}

// TestParticipantsRule pins how many participants a pass takes: one
// per 50 parcels, at least one, at most the cap and GOMAXPROCS. The
// scale-1 presets (3-5 parcels) and the 40-parcel aneurysm stay serial
// at any cap, and the floor binds before GOMAXPROCS does only on a host
// wider than its share.
func TestParticipantsRule(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	parcels := []int{3, 5, 40, 99, 100, 312}
	// want[procs][cap] lists the count per parcels entry; cap 0 is
	// core's automatic cap, GOMAXPROCS itself.
	want := map[int]map[int][]int{
		1: {1: {1, 1, 1, 1, 1, 1}, 2: {1, 1, 1, 1, 1, 1}, 4: {1, 1, 1, 1, 1, 1}, 0: {1, 1, 1, 1, 1, 1}},
		2: {1: {1, 1, 1, 1, 1, 1}, 2: {1, 1, 1, 1, 2, 2}, 4: {1, 1, 1, 1, 2, 2}, 0: {1, 1, 1, 1, 2, 2}},
		4: {1: {1, 1, 1, 1, 1, 1}, 2: {1, 1, 1, 1, 2, 2}, 4: {1, 1, 1, 1, 2, 4}, 0: {1, 1, 1, 1, 2, 4}},
		8: {1: {1, 1, 1, 1, 1, 1}, 2: {1, 1, 1, 1, 2, 2}, 4: {1, 1, 1, 1, 2, 4}, 0: {1, 1, 1, 1, 2, 6}},
	}
	for _, procs := range []int{1, 2, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, threads := range []int{1, 2, 4, 0} {
			limit := threads
			if limit == 0 {
				limit = procs
			}
			for i, n := range parcels {
				for _, sites := range []int{n * parcelSites, n*parcelSites - parcelSites/2} {
					if got := Participants(sites, limit); got != want[procs][threads][i] {
						t.Errorf("GOMAXPROCS=%d cap=%d: %d sites (%d parcels) take %d participants, want %d",
							procs, limit, sites, n, got, want[procs][threads][i])
					}
				}
			}
		}
		if got := Participants(100*parcelSites, 0); got != 1 {
			t.Errorf("GOMAXPROCS=%d: lb's zero cap takes %d participants, want 1 (serial)", procs, got)
		}
	}
	// A kernel derives its count from its own sites: the few parcels of
	// the test pipe stay serial under any cap.
	s, err := New(pipeDomain(t, 16, 3, 1.0), Params{Tau: 0.9, Threads: 4})
	if err != nil {
		t.Fatal(err)
	}
	if s.workers != 1 || s.Threads() != 4 {
		t.Errorf("a %d-site solver at cap 4 takes %d participants (cap %d), want 1 (cap 4)",
			s.NumSites(), s.workers, s.Threads())
	}
}

// TestMaxSpeedPropagatesDivergence: a NaN in the populations must make
// MaxSpeed report NaN and latch Diverged — the old `v > maxV`
// comparison was false for NaN, so a blown-up run reported a
// reassuring low max speed.
func TestMaxSpeedPropagatesDivergence(t *testing.T) {
	dom := closedBox(t)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(2)
	if v := s.MaxSpeed(); math.IsNaN(v) {
		t.Fatalf("healthy solver reports MaxSpeed NaN")
	}
	if s.Diverged() {
		t.Fatal("healthy solver reports Diverged")
	}
	// Poison one mid-domain site the way a blow-up does.
	s.F()[(s.NumSites()/2)*s.M.Q] = math.NaN()
	if v := s.MaxSpeed(); !math.IsNaN(v) {
		t.Errorf("MaxSpeed over NaN populations = %v, want NaN", v)
	}
	if !s.Diverged() {
		t.Error("Diverged not latched after NaN MaxSpeed")
	}
	// Inf must propagate too, and InitEquilibrium must clear the latch.
	s.InitEquilibrium(1)
	if s.Diverged() {
		t.Error("InitEquilibrium did not clear the diverged latch")
	}
	s.F()[0] = math.Inf(1)
	if v := s.MaxSpeed(); !math.IsNaN(v) {
		t.Errorf("MaxSpeed over Inf populations = %v, want NaN", v)
	}
	if !s.Diverged() {
		t.Error("Diverged not latched after Inf MaxSpeed")
	}
}

// TestFieldsSingleMomentPassConsistent: Fields now feeds its own
// moments into the WSS kernel instead of recomputing them per site —
// the output must stay bitwise what the standalone accessors produce.
func TestFieldsSingleMomentPassConsistent(t *testing.T) {
	dom := pipeDomain(t, 12, 3, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	s.Advance(25)
	rho, ux, uy, uz, wss := s.Fields(nil, nil, nil, nil, nil)
	sawWall := false
	for i := 0; i < s.NumSites(); i++ {
		r, x, y, z := s.moments(i)
		if rho[i] != r || ux[i] != x || uy[i] != y || uz[i] != z {
			t.Fatalf("site %d: Fields moments differ from accessors", i)
		}
		if w := s.WallShearStress(i); math.Float64bits(wss[i]) != math.Float64bits(w) {
			t.Fatalf("site %d: Fields wss %v != WallShearStress %v", i, wss[i], w)
		}
		if wss[i] != 0 {
			sawWall = true
		}
	}
	if !sawWall {
		t.Fatal("test domain produced no wall shear stress at all; WSS path not exercised")
	}
}

// TestDistWallShearStressMatchesSolver: the distributed WSS accessor
// (moments precomputed by the caller) must agree bitwise with the
// serial solver's.
func TestDistWallShearStressMatchesSolver(t *testing.T) {
	dom := pipeDomain(t, 12, 3, 1.0)
	s, err := New(dom, Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	const steps = 20
	s.Advance(steps)
	part := pipePartition(t, dom, 2, partition.MethodMultilevel)
	rt := par.NewRuntime(2)
	rt.Run(func(c *par.Comm) {
		d, err := NewDist(c, dom, part, Params{Tau: 0.9})
		if err != nil {
			panic(err)
		}
		d.Advance(steps)
		for li, g := range d.Owned {
			want := s.WallShearStress(g)
			if got := d.WallShearStress(li); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("site %d: dist wss %v != solver wss %v", g, got, want)
				return
			}
		}
	})
}

// TestTiledStepAllocationFlat extends the hot-loop allocation audit to
// threaded stepping: a pass hands the kernel's kept Parcels and method
// value to guard's helpers, so a warmed threaded Dist must still step
// with zero allocations.
func TestTiledStepAllocationFlat(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	part := pipePartition(t, dom, 1, partition.MethodMultilevel)
	rt := par.NewRuntime(1)
	rt.Run(func(c *par.Comm) {
		d, err := NewDist(c, dom, part, Params{Tau: 0.9, Threads: 4})
		if err != nil {
			panic(err)
		}
		defer d.Close()
		d.setWorkers(4)
		d.Advance(4)
		if allocs := testing.AllocsPerRun(50, d.Step); allocs != 0 {
			t.Errorf("tiled Dist.Step allocates %.1f objects per step, want 0", allocs)
		}
	})
}

// TestSolverAdvanceAllocationFlat guards the rhoIo hoist: the
// standalone solver's steady-state Advance loop must not allocate (the
// per-step iolet density slice used to be made fresh every call).
func TestSolverAdvanceAllocationFlat(t *testing.T) {
	dom := pipeDomain(t, 16, 3, 1.0)
	for _, threads := range []int{0, 3} {
		s, err := New(dom, Params{Tau: 0.9, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		s.setWorkers(threads)
		s.Advance(4)
		if allocs := testing.AllocsPerRun(50, func() { s.Advance(1) }); allocs != 0 {
			t.Errorf("threads=%d: Solver.Advance allocates %.1f objects per step, want 0", threads, allocs)
		}
		s.Close()
	}
}

// TestParamsValidateThreads: negative thread counts are rejected like
// any other bad parameter.
func TestParamsValidateThreads(t *testing.T) {
	dom := closedBox(t)
	if _, err := New(dom, Params{Tau: 0.9, Threads: -1}); err == nil {
		t.Error("negative Threads must be rejected")
	}
	if _, err := New(dom, Params{Tau: 0.9, Threads: 64}); err != nil {
		t.Errorf("large Threads rejected: %v", err)
	}
}
