package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"repro/internal/field"
	"repro/internal/geometry"
	"repro/internal/lattice"
	"repro/internal/lb"
	"repro/internal/leaktest"
	"repro/internal/steering"
)

func voxelised(t testing.TB, v *geometry.Vessel) *geometry.Domain {
	t.Helper()
	dom, err := geometry.Voxelise(v, 1, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	return dom
}

// TestRunLoopAllocationFlat: a 1-rank run with a steering controller
// attached and no visualisation — every daemon job — allocates nothing
// per step. The command word of the steering boundary (every 16 steps)
// is the run's own and a 1-rank broadcast hands it back uncopied, so a
// run 256 steps longer makes no more allocations than a short one.
func TestRunLoopAllocationFlat(t *testing.T) {
	dom := voxelised(t, geometry.Pipe(16, 3))
	mallocs := func(steps int) uint64 {
		ctrl := steering.NewController()
		defer ctrl.Close()
		s, err := New(Config{Domain: dom, Tau: 0.9, Controller: ctrl})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := s.Run(steps); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs
	}
	mallocs(64) // derive the plan, warm the runtime
	// The runtime's own background allocations land in either run; the
	// smallest of a few tries of each is the loop's.
	short, long := uint64(math.MaxUint64), uint64(math.MaxUint64)
	for try := 0; try < 4; try++ {
		short, long = min(short, mallocs(64)), min(long, mallocs(64+256))
	}
	t.Logf("Run(64) %d objects, Run(320) %d", short, long)
	if long > short {
		t.Errorf("256 more steps made %d more allocations (%.3f per step), want 0", long-short, float64(long-short)/256)
	}
}

func sameField(got, want *field.Field) error {
	for _, a := range []struct {
		name      string
		got, want []float64
	}{{"rho", got.Rho, want.Rho}, {"ux", got.Ux, want.Ux}, {"uy", got.Uy, want.Uy}, {"uz", got.Uz, want.Uz}, {"wss", got.WSS, want.WSS}} {
		if len(a.got) != len(a.want) {
			return fmt.Errorf("%s has %d values, want %d", a.name, len(a.got), len(a.want))
		}
		for i := range a.want {
			if math.Float64bits(a.got[i]) != math.Float64bits(a.want[i]) {
				return fmt.Errorf("%s[%d] = %v, solo run has %v", a.name, i, a.got[i], a.want[i])
			}
		}
	}
	return nil
}

// TestSharedPlanIsReadOnly runs three jobs at once on one Domain — one
// rank and steered, two ranks with an octree built from every snapshot,
// two ranks × two threads and cancelled mid-run — that between them
// step the whole-domain plan, cut four rank plans out of it and read
// the octree layout, all concurrently. The two that finish end
// bit-identical to the same jobs run alone, and a content hash of
// everything reachable from the Domain — sites, index, plan, layout —
// is what it was before they started. CI
// also runs it under -race at GOMAXPROCS=4, where a write to anything
// shared is a reported race with the readers beside it.
func TestSharedPlanIsReadOnly(t *testing.T) {
	dom := voxelised(t, geometry.Aneurysm(16, 3, 4))
	const steps = 120

	// job returns a started run: wait blocks until it ends and returns
	// its final snapshot.
	type handle struct {
		sim  *Simulation
		ctrl *steering.Controller
		wait func() *Snapshot
	}
	job := func(cfg Config, total int, steer bool) handle {
		cfg.Domain, cfg.Tau, cfg.Seed = dom, 0.9, 3
		ctrl := steering.NewController()
		cfg.Controller = ctrl
		cfg.StartPaused = steer
		var last *Snapshot
		cfg.SnapshotEvery = 8
		cfg.OnSnapshot = func(sn *Snapshot) {
			if _, err := sn.Octree(); err != nil {
				t.Error(err)
			}
			last = sn
		}
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Run(total); err != nil {
				t.Error(err)
			}
		}()
		if steer {
			// Parked before step 1: the density change lands on the same
			// step in every run.
			for _, msg := range []steering.ClientMsg{
				{Op: steering.OpSetIolet, Iolet: 0, Density: 1.02},
				{Op: steering.OpResume},
			} {
				if rep, err := ctrl.Do(msg); err != nil || rep.Error != "" {
					t.Errorf("%s: %v %s", msg.Op, err, rep.Error)
				}
			}
		}
		return handle{s, ctrl, func() *Snapshot {
			wg.Wait()
			ctrl.Close()
			s.Close()
			return last
		}}
	}
	steered := func() handle { return job(Config{Ranks: 1}, steps, true) }
	twoRanks := func() handle { return job(Config{Ranks: 2}, steps, false) }

	soloA := steered().wait()
	soloB := twoRanks().wait()
	if soloA == nil || soloB == nil || soloA.Step != steps || soloB.Step != steps {
		t.Fatalf("solo runs ended without a final snapshot: %+v %+v", soloA, soloB)
	}
	if sameField(soloA.Field, soloB.Field) == nil {
		t.Fatal("the steered run equals the unsteered one: set-iolet was not applied")
	}
	objects, before := leaktest.Census(dom)
	if objects["lb.plan"] != 1 || objects["partition.Partition"] != 0 || objects["octree.layout"] != 1 {
		t.Fatalf("before the concurrent runs the domain reaches %d plans, %d partitions, %d layouts; want 1, 0, 1",
			objects["lb.plan"], objects["partition.Partition"], objects["octree.layout"])
	}

	a, b := steered(), twoRanks()
	c := job(Config{Ranks: 2, Threads: 2}, 1<<30, false)
	for _, sim := range []*Simulation{a.sim, b.sim, c.sim} {
		if !sim.PlanHit {
			t.Error("a job on the prepared domain built a plan of its own")
		}
	}
	gotA, gotB := a.wait(), b.wait()
	if rep, err := c.ctrl.Do(steering.ClientMsg{Op: steering.OpQuit}); err != nil || rep.Error != "" {
		t.Errorf("quit: %v %s", err, rep.Error)
	}
	if sn := c.wait(); sn == nil || c.sim.StepsDone == 0 || c.sim.StepsDone >= 1<<30 {
		t.Errorf("the cancelled job ended at step %d with snapshot %v", c.sim.StepsDone, sn != nil)
	}
	if err := sameField(gotA.Field, soloA.Field); err != nil {
		t.Errorf("1-rank steered job beside two others: %v", err)
	}
	if err := sameField(gotB.Field, soloB.Field); err != nil {
		t.Errorf("2-rank job beside two others: %v", err)
	}
	if _, after := leaktest.Census(dom); after != before {
		t.Error("the domain, its plan or its octree layout changed under three concurrent jobs")
	}
}

// TestWarmRunTakesSpare: a job started on a domain the size of the
// last finished one steps in that job's released populations, so its
// New + Run(1), snapshots off, allocates less than one population
// array (n·Q·8 bytes) where a fresh f and fNew would be two.
func TestWarmRunTakesSpare(t *testing.T) {
	defer lb.DropSpare()
	dom := voxelised(t, geometry.Pipe(40, 5))
	population := uint64(dom.NumSites() * dom.Model.Q * 8)
	run := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s, err := New(Config{Domain: dom, Tau: 0.9})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(1); err != nil {
			t.Fatal(err)
		}
		s.Close()
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	lb.DropSpare()
	cold := run() // derives the plan, then releases the populations
	warm := uint64(math.MaxUint64)
	for try := 0; try < 3; try++ {
		warm = min(warm, run())
	}
	t.Logf("%d sites: cold start %d B, warm %d B, one population array %d B", dom.NumSites(), cold, warm, population)
	if warm >= population {
		t.Errorf("a warm New + Run(1) allocates %d B, want less than one population array (%d B)", warm, population)
	}
}

// TestConcurrentJobsShareSpare: jobs that start and finish beside each
// other on one domain, at 1 and 2 ranks, hand the spare population
// pair around, and every one ends on the fields a job on fresh memory
// reaches. CI also runs it under -race at GOMAXPROCS=4, where a pair
// one job still steps in while another writes it is a reported race.
func TestConcurrentJobsShareSpare(t *testing.T) {
	defer lb.DropSpare()
	dom := voxelised(t, geometry.Pipe(16, 3))
	const steps = 24
	final := func(ranks int) (*Snapshot, error) {
		var last *Snapshot
		s, err := New(Config{Domain: dom, Tau: 0.9, Ranks: ranks, Seed: 1,
			SnapshotEvery: steps, OnSnapshot: func(sn *Snapshot) { last = sn }})
		if err != nil {
			return nil, err
		}
		defer s.Close()
		if err := s.Run(steps); err != nil {
			return nil, err
		}
		return last, nil
	}
	lb.DropSpare()
	want, err := final(1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(ranks int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				got, err := final(ranks)
				if err != nil {
					t.Error(err)
					return
				}
				for _, f := range [][2][]float64{{got.Field.Rho, want.Field.Rho}, {got.Field.Ux, want.Field.Ux}, {got.Field.Uy, want.Field.Uy}, {got.Field.Uz, want.Field.Uz}} {
					for g := range f[1] {
						if math.Float64bits(f[0][g]) != math.Float64bits(f[1][g]) {
							t.Errorf("ranks=%d job %d: site %d differs from a job on fresh memory", ranks, i, g)
							return
						}
					}
				}
			}
		}(1 + w%2)
	}
	wg.Wait()
}

// BenchmarkWarmStart is what stands between a worker slot and a job's
// first step once its geometry is voxelised — core.New + Run(1) — on
// both bench/ domains at 1 and 2 ranks: cold on a Domain nothing has
// been derived from yet (a fresh daemon's first job on a geometry), warm
// on one that keeps its plan (every later job, and every Run after the
// first). plan-ms is Simulation.PlanTime: the whole-domain stream table
// when cold, the lookup when warm; at 2 ranks either start also
// partitions and cuts both rank plans out of the table. A smoke in CI,
// no thresholds.
//
//	go test -run '^$' -bench WarmStart -benchtime 3x ./internal/core
func BenchmarkWarmStart(b *testing.B) {
	for _, dc := range []struct {
		preset string
		scale  float64
	}{{"aneurysm", 2.0}, {"tree", 3.0}} {
		v, err := geometry.VesselByName(dc.preset, dc.scale)
		if err != nil {
			b.Fatal(err)
		}
		dom := voxelised(b, v)
		for _, ranks := range []int{1, 2} {
			for _, warm := range []bool{false, true} {
				state := map[bool]string{false: "cold", true: "warm"}[warm]
				b.Run(fmt.Sprintf("%s@%g/ranks=%d/%s", dc.preset, dc.scale, ranks, state), func(b *testing.B) {
					b.ReportAllocs()
					if warm { // make sure the domain keeps its plan
						if _, err := lb.Prepare(dom); err != nil {
							b.Fatal(err)
						}
					}
					planMs := 0.0
					for i := 0; i < b.N; i++ {
						d := dom
						if !warm {
							// The same sites under a new Domain: nothing
							// derived rides it yet.
							b.StopTimer()
							if d, err = geometry.Reassemble(dom.Model, dom.Dims, dom.Origin, dom.H, dom.Iolets, dom.Sites, dom.LinkDists()); err != nil {
								b.Fatal(err)
							}
							b.StartTimer()
						}
						s, err := New(Config{Domain: d, Tau: 0.9, Ranks: ranks, Seed: 1})
						if err != nil {
							b.Fatal(err)
						}
						if err := s.Run(1); err != nil {
							b.Fatal(err)
						}
						s.Close()
						if s.PlanHit != warm {
							b.Fatalf("warm=%v iteration %d: PlanHit=%v", warm, i, s.PlanHit)
						}
						planMs += float64(s.PlanTime.Nanoseconds()) / 1e6
					}
					b.ReportMetric(planMs/float64(b.N), "plan-ms")
				})
			}
		}
	}
}
