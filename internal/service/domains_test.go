package service

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/geometry"
	"repro/internal/insitu"
	"repro/internal/lattice"
	"repro/internal/leaktest"
	"repro/internal/obs"
	"repro/internal/steering"
)

// uncachedFields runs spec on a bare, serial core.Simulation that
// voxelises its own private domain — no manager, no cache, no parcels —
// and returns the final snapshot's fields.
func uncachedFields(t *testing.T, spec JobSpec) *field.Field {
	t.Helper()
	cfg, err := spec.withDefaults().coreConfig()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Threads = 1
	var last *core.Snapshot
	cfg.OnSnapshot = func(s *core.Snapshot) { last = s }
	sim, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if err := sim.Run(spec.Steps); err != nil {
		t.Fatal(err)
	}
	if last == nil || last.Step != spec.Steps {
		t.Fatalf("uncached run published no final snapshot: %+v", last)
	}
	return last.Field
}

// finalFields waits for j to finish and returns its final snapshot's
// fields.
func finalFields(t *testing.T, j *Job) *field.Field {
	t.Helper()
	waitFor(t, j.ID+" terminal", func() bool { return j.State().Terminal() })
	if st := j.State(); st != StateDone {
		t.Fatalf("%s ended %s: %s", j.ID, st, j.Info().Error)
	}
	snap, _ := j.LatestSnapshot()
	if snap == nil || snap.Step != j.Spec.Steps {
		t.Fatalf("%s has no final snapshot: %+v", j.ID, snap)
	}
	return snap.Field
}

func sameFields(t *testing.T, who string, got, want *field.Field) {
	t.Helper()
	for _, a := range []struct {
		name      string
		got, want []float64
	}{{"rho", got.Rho, want.Rho}, {"ux", got.Ux, want.Ux}, {"uy", got.Uy, want.Uy}, {"uz", got.Uz, want.Uz}, {"wss", got.WSS, want.WSS}} {
		if len(a.got) != len(a.want) {
			t.Fatalf("%s: %s has %d values, want %d", who, a.name, len(a.got), len(a.want))
		}
		for i := range a.want {
			if math.Float64bits(a.got[i]) != math.Float64bits(a.want[i]) {
				t.Fatalf("%s: %s[%d] = %v, uncached run has %v", who, a.name, i, a.got[i], a.want[i])
			}
		}
	}
}

func dispatchDetail(t *testing.T, j *Job) string {
	t.Helper()
	for _, ev := range j.rec.Events() {
		if ev.Type == obs.EvDispatched {
			return ev.Detail
		}
	}
	t.Fatalf("%s has no dispatched event", j.ID)
	return ""
}

// TestDomainCacheSingleFlight: two jobs on one geometry submitted
// together voxelise once — one miss, one hit, one Domain between them —
// and both end in bitwise the fields of a run that never saw the cache.
func TestDomainCacheSingleFlight(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	m := NewManagerOpts(Options{Workers: 2, QueueCap: 4})
	defer m.Close()
	spec := JobSpec{Preset: "Aneurysm", Steps: 48, PulseAmp: 0.01, PulsePeriod: 20}
	var jobs [2]*Job
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if jobs[i], err = m.Submit(spec); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	want := uncachedFields(t, spec)
	for _, j := range jobs {
		sameFields(t, j.ID, finalFields(t, j), want)
	}
	if finalFields(t, jobs[0]).Dom != finalFields(t, jobs[1]).Dom {
		t.Error("the two jobs run on different Domain values")
	}
	if miss, hit := m.metrics.DomainCacheMiss.Load(), m.metrics.DomainCacheHits.Load(); miss != 1 || hit != 1 {
		t.Errorf("domain cache misses = %d, hits = %d; want 1 and 1", miss, hit)
	}
	if n := m.metrics.Preprocess.Count(); n != 2 {
		t.Errorf("preprocess histogram has %d samples, want 2", n)
	}
	// The cold layers are sampled on their misses only: one build of
	// the domain, one of its stream table.
	if n := m.metrics.Voxelise.Count(); n != 1 {
		t.Errorf("voxelise histogram has %d samples, want 1 (the miss)", n)
	}
	if n, miss := m.metrics.Plan.Count(), m.metrics.SolverPlanMiss.Load(); n != 1 || miss != 1 {
		t.Errorf("plan histogram has %d samples for %d plan misses, want 1 and 1", n, miss)
	}
	details := dispatchDetail(t, jobs[0]) + " | " + dispatchDetail(t, jobs[1])
	if strings.Count(details, "cache=miss") != 1 || strings.Count(details, "cache=hit") != 1 || strings.Count(details, "voxelise_ms=") != 2 {
		t.Errorf("dispatched events carry %q; want one cache=miss, one cache=hit, voxelise_ms on both", details)
	}
	// Case and defaults do not split the key.
	if k1, k2 := spec.domainKey(), (JobSpec{Preset: "aneurysm", Scale: 1, H: 1}).domainKey(); k1 != k2 {
		t.Errorf("keys differ: %+v vs %+v", k1, k2)
	}
}

// TestSharedDomainIsolation: a job that is steered, paused, resumed and
// cancelled, and a sibling that is cancelled outright, leave a third
// job on the same shared Domain with exactly the fields of an uncached
// run. Under -race this is also the proof that nothing on those paths
// writes to the Domain.
func TestSharedDomainIsolation(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	m := NewManagerOpts(Options{Workers: 3, QueueCap: 4})
	defer m.Close()
	quiet := JobSpec{Preset: "bifurcation", Steps: 4000}
	busy := quiet
	busy.Steps = 4_000_000
	control, err := m.Submit(quiet)
	if err != nil {
		t.Fatal(err)
	}
	steered, err := m.Submit(busy)
	if err != nil {
		t.Fatal(err)
	}
	doomed, err := m.Submit(busy)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "siblings stepping", func() bool { return control.Step() > 0 && steered.Step() > 0 && doomed.Step() > 0 })
	domainOf := func(j *Job) *geometry.Domain {
		snap, err := m.freshSnapshot(j)
		if err != nil {
			t.Fatal(err)
		}
		return snap.Field.Dom
	}
	if domainOf(steered) != domainOf(control) || domainOf(doomed) != domainOf(control) {
		t.Fatal("the three jobs do not share one Domain")
	}
	if err := m.Steer(steered, steering.ClientMsg{Op: steering.OpSetIolet, Iolet: 0, Density: 1.03}); err != nil {
		t.Fatal(err)
	}
	if err := m.Cancel(doomed); err != nil {
		t.Fatal(err)
	}
	if err := m.Pause(steered); err != nil {
		t.Fatal(err)
	}
	// A frame of the paused job builds the Domain's brick grid, the one
	// lazily initialised part of it, while the control job reads sites.
	if _, _, _, err := m.Frame(steered, insitu.DefaultRequest()); err != nil {
		t.Fatal(err)
	}
	if err := m.Resume(context.Background(), steered); err != nil {
		t.Fatal(err)
	}
	sameFields(t, "control job", finalFields(t, control), uncachedFields(t, quiet))
	if err := m.Cancel(steered); err != nil && !errors.Is(err, ErrFinished) {
		t.Fatal(err)
	}
	if hit := m.metrics.DomainCacheHits.Load(); hit != 2 {
		t.Errorf("domain cache hits = %d, want 2", hit)
	}
}

func voxelised(t *testing.T, preset string) func() (*geometry.Domain, error) {
	return func() (*geometry.Domain, error) {
		v, err := geometry.VesselByName(preset, 1)
		if err != nil {
			t.Fatal(err)
		}
		return geometry.Voxelise(v, 1, lattice.D3Q19())
	}
}

// domainLRU is the manager's domain lru at another budget.
func domainLRU(mt *Metrics, budget int) *lru[domainKey, *geometry.Domain] {
	return newLRU[domainKey](budget, func(d *geometry.Domain) int { return d.NumSites() }, &mt.DomainCacheHits, &mt.DomainCacheMiss, nil)
}

// TestDomainCacheBudget: the cache keeps at most its site budget —
// least recently used entries go first, an entry larger than the whole
// budget is handed out but never kept — and purge empties it.
func TestDomainCacheBudget(t *testing.T) {
	pipe, err := voxelised(t, "pipe")()
	if err != nil {
		t.Fatal(err)
	}
	bend, err := voxelised(t, "bend")()
	if err != nil {
		t.Fatal(err)
	}
	key := func(p string) domainKey { return JobSpec{Preset: p}.domainKey() }

	mt := &Metrics{}
	c := domainLRU(mt, pipe.NumSites()-1)
	for i := 0; i < 2; i++ {
		dom, hit, err := c.get(key("pipe"), voxelised(t, "pipe"))
		if err != nil || hit || dom.NumSites() != pipe.NumSites() {
			t.Fatalf("over-budget get %d: dom %v hit %v err %v", i, dom != nil, hit, err)
		}
	}
	if len(c.entries) != 0 || c.order.Len() != 0 || c.used != 0 || mt.DomainCacheMiss.Load() != 2 {
		t.Errorf("over-budget domain retained: %d entries, %d sites, %d misses", len(c.entries), c.used, mt.DomainCacheMiss.Load())
	}

	mt = &Metrics{}
	c = domainLRU(mt, pipe.NumSites()+bend.NumSites()-1) // either, not both
	for _, p := range []string{"pipe", "pipe", "bend", "bend", "pipe"} {
		if _, _, err := c.get(key(p), voxelised(t, p)); err != nil {
			t.Fatal(err)
		}
	}
	if miss, hit := mt.DomainCacheMiss.Load(), mt.DomainCacheHits.Load(); miss != 3 || hit != 2 {
		t.Errorf("misses %d hits %d over pipe pipe bend bend pipe with room for one; want 3 and 2", miss, hit)
	}
	if _, ok := c.entries[key("pipe")]; !ok || len(c.entries) != 1 || c.used != pipe.NumSites() {
		t.Errorf("after eviction: %d entries, %d sites; want pipe alone (%d)", len(c.entries), c.used, pipe.NumSites())
	}
	c.purge()
	if len(c.entries) != 0 || c.order.Len() != 0 || c.used != 0 {
		t.Errorf("purge left %d entries, %d sites", len(c.entries), c.used)
	}

	// A failed build reaches every waiter and is not remembered.
	boom := errors.New("boom")
	if _, _, err := c.get(key("tree"), func() (*geometry.Domain, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Errorf("failed build returned %v", err)
	}
	if len(c.entries) != 0 {
		t.Error("failed build left an entry behind")
	}
}

// TestMemoryShedPurgesDomainCache: a submit shed by the -mem-limit
// watermark also drops the cached domains.
func TestMemoryShedPurgesDomainCache(t *testing.T) {
	m := NewManagerOpts(Options{Workers: 1, QueueCap: 1, MemLimit: 1})
	defer m.Close()
	if _, _, err := m.domains.get(JobSpec{Preset: "pipe"}.domainKey(), voxelised(t, "pipe")); err != nil {
		t.Fatal(err)
	}
	if m.domains.order.Len() != 1 {
		t.Fatal("domain not cached")
	}
	if _, err := m.Submit(JobSpec{Preset: "pipe", Steps: 8}); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit over the memory watermark: %v", err)
	}
	if n := m.domains.order.Len(); n != 0 {
		t.Errorf("%d domains still cached after a memory shed", n)
	}
}

// TestDerivedBound: what jobs derive from a cached Domain — the stream
// table, the octree layout — rides that Domain and nothing else. Fifty
// submits cycling seed and ranks leave it with one whole-domain plan and
// one layout and nothing per configuration (partitions and rank plans
// are their jobs'), however many were asked for; the dispatched events
// and the plan counters tell the one miss from the hits; and once the
// Domain leaves the cache — by LRU eviction or by the -mem-limit shed —
// the cache reaches none of it.
func TestDerivedBound(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	m := NewManagerOpts(Options{Workers: 2, QueueCap: 64})
	defer m.Close()
	var jobs []*Job
	for i := 0; i < 50; i++ {
		// Seeds 1..3 and ranks 1..3 in step: 9 configurations, each
		// coming back several times, never twice in a row.
		j, err := m.Submit(JobSpec{Preset: "pipe", Steps: 24, Ranks: 1 + i%3, Seed: int64(1 + i/3%3)})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		finalFields(t, j)
		if d := dispatchDetail(t, j); !strings.Contains(d, " plan=") || !strings.Contains(d, " plan_ms=") {
			t.Fatalf("%s dispatched with %q: no plan=hit|miss plan_ms=", j.ID, d)
		}
	}
	if _, err := m.Data(jobs[0], [3]float64{}, [3]float64{}, 0, 3); err != nil { // derives the octree layout
		t.Fatal(err)
	}
	hits, misses := m.metrics.SolverPlanHits.Load(), m.metrics.SolverPlanMiss.Load()
	if hits != 49 || misses != 1 {
		t.Errorf("plan hits %d, misses %d over 50 dispatches on one domain; want 49 and 1", hits, misses)
	}
	if len(m.domains.entries) != 1 {
		t.Fatalf("%d domains cached, want the one pipe", len(m.domains.entries))
	}
	objects, _ := leaktest.Census(m.domains)
	if objects["partition.Partition"] != 0 || objects["lb.plan"] != 1 || objects["octree.layout"] != 1 {
		t.Errorf("after 50 submits over 9 configurations the cached domain reaches %d partitions, %d plans, %d layouts; want 0, 1, 1",
			objects["partition.Partition"], objects["lb.plan"], objects["octree.layout"])
	}

	// The -mem-limit shed drops the Domain, and with it all of that.
	m.domains.purge()
	if objects, _ := leaktest.Census(m.domains); objects["geometry.Domain"]+objects["lb.plan"]+objects["partition.Partition"]+objects["octree.layout"] != 0 {
		t.Errorf("after the purge the cache still reaches %v", objects)
	}

	// So does LRU eviction: room for either domain, not both.
	pipe, _ := voxelised(t, "pipe")()
	bend, _ := voxelised(t, "bend")()
	c := domainLRU(&Metrics{}, pipe.NumSites()+bend.NumSites()-1)
	for _, p := range []string{"pipe", "bend"} {
		dom, _, err := c.get(JobSpec{Preset: p}.domainKey(), voxelised(t, p))
		if err != nil {
			t.Fatal(err)
		}
		sim, err := core.New(core.Config{Domain: dom, Tau: 0.9, Ranks: 2})
		if err != nil || sim.PlanHit {
			t.Fatalf("core.New on a fresh %s: hit=%v err=%v", p, sim != nil && sim.PlanHit, err)
		}
		sim.Close()
	}
	if objects, _ := leaktest.Census(c); objects["geometry.Domain"] != 1 || objects["lb.plan"] != 1 {
		t.Errorf("after evicting pipe for bend the cache reaches %d domains, %d plans; want 1, 1",
			objects["geometry.Domain"], objects["lb.plan"])
	}
}
