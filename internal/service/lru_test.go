package service

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/insitu"
	"repro/internal/leaktest"
)

var lruSeed = flag.Int64("lru-seed", 0, "run TestLRUModel at this one seed only (replays a failure)")

// lruKeys lists the kept keys, most recently used first.
func lruKeys[K comparable, V any](c *lru[K, V]) []K {
	var keys []K
	for el := c.order.Front(); el != nil; el = el.Next() {
		keys = append(keys, el.Value.(*lruEntry[K, V]).key)
	}
	return keys
}

// parkedInLRU counts the goroutines blocked on a channel inside
// lru.get: callers waiting on a build, and builders blocked in theirs.
func parkedInLRU() int {
	buf := make([]byte, 4<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "[chan receive") && strings.Contains(g, "service.(*lru[...]).get(") {
			n++
		}
	}
	return n
}

type lruVal struct{ id, cost int }

// lruModel is the reference TestLRUModel holds the lru to: the rules
// of its contract on a recency-ordered slice, single-threaded.
type lruModel struct {
	budget int
	keys   []int // kept, most recently used first
	vals   map[int]lruVal
	hits   int
}

func (m *lruModel) used() (n int) {
	for _, k := range m.keys {
		n += m.vals[k].cost
	}
	return n
}

// get is lru.get for a build that would return v, or fail.
func (m *lruModel) get(k int, v lruVal, fail bool) (got lruVal, hit, failed bool, evicted int) {
	if i := slices.Index(m.keys, k); i >= 0 {
		m.keys = slices.Insert(slices.Delete(m.keys, i, i+1), 0, k)
		m.hits++
		return m.vals[k], true, false, 0
	}
	if fail {
		return lruVal{}, false, true, 0
	}
	if v.cost <= m.budget {
		m.keys = slices.Insert(m.keys, 0, k)
		m.vals[k] = v
		for m.used() > m.budget {
			delete(m.vals, m.keys[len(m.keys)-1])
			m.keys = m.keys[:len(m.keys)-1]
			evicted++
		}
	}
	return v, false, false, evicted
}

func (m *lruModel) purge() { m.keys = nil }

// lruModelRun drives one seeded sequence of gets (some failing, some
// over budget) and purges through the lru and the model, comparing
// every answer and, after every op, the kept keys in recency order and
// their summed cost.
func lruModelRun(seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	budget := 1 + rng.Intn(12)
	var hits, misses, evictions atomic.Int64
	c := newLRU[int](budget, func(v lruVal) int { return v.cost }, &hits, &misses, &evictions)
	m := &lruModel{budget: budget, vals: map[int]lruVal{}}
	boom := errors.New("boom")
	gets := 0
	for op := 0; op < 300; op++ {
		what := "purge"
		if rng.Intn(20) == 0 {
			c.purge()
			m.purge()
		} else {
			k, v, fail := rng.Intn(8), lruVal{id: op, cost: rng.Intn(budget/2 + 2)}, rng.Intn(10) == 0
			if rng.Intn(15) == 0 {
				v.cost = budget + 1 + rng.Intn(3)
			}
			what = fmt.Sprintf("get(%d) building %+v fail=%v", k, v, fail)
			before := evictions.Load()
			got, hit, err := c.get(k, func() (lruVal, error) {
				if fail {
					return lruVal{}, boom
				}
				return v, nil
			})
			gets++
			want, wantHit, wantFail, wantEvicted := m.get(k, v, fail)
			if got != want || hit != wantHit || (err != nil) != wantFail || evictions.Load()-before != int64(wantEvicted) {
				return fmt.Errorf("op %d %s: lru gave %+v hit=%v err=%v and evicted %d; model %+v hit=%v fail=%v evicted %d",
					op, what, got, hit, err, evictions.Load()-before, want, wantHit, wantFail, wantEvicted)
			}
		}
		if kept := lruKeys(c); !slices.Equal(kept, m.keys) || c.used != m.used() || len(c.entries) != len(m.keys) {
			return fmt.Errorf("after op %d %s: lru keeps %v (cost %d, %d entries); model %v (cost %d)",
				op, what, kept, c.used, len(c.entries), m.keys, m.used())
		}
	}
	if hits.Load() != int64(m.hits) || misses.Load() != int64(gets-m.hits) {
		return fmt.Errorf("counted %d hits, %d misses; model %d and %d", hits.Load(), misses.Load(), m.hits, gets-m.hits)
	}
	return nil
}

// TestLRUModel checks the lru against lruModel over 200 seeded random
// sequences of gets, failing builds, over-budget values and purges.
func TestLRUModel(t *testing.T) {
	first, last := int64(1), int64(200)
	if *lruSeed != 0 {
		first, last = *lruSeed, *lruSeed
	}
	for seed := first; seed <= last; seed++ {
		if err := lruModelRun(seed); err != nil {
			t.Fatalf("seed %d: %v\nreplay: go test ./internal/service -run TestLRUModel -lru-seed %d", seed, err, seed)
		}
	}
}

// TestLRUSingleFlight: 32 goroutines asking for one key wait for one
// build and all get its value; another key (the next snapshot) builds
// again.
func TestLRUSingleFlight(t *testing.T) {
	var hits, misses atomic.Int64
	c := newLRU[string](frameEntries, func(frame) int { return 1 }, &hits, &misses, nil)
	var builds atomic.Int64
	release := make(chan struct{})
	build := func() (frame, error) {
		builds.Add(1)
		<-release
		return frame{png: []byte("frame"), w: 4, h: 3}, nil
	}
	const callers = 32
	var wg sync.WaitGroup
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f, _, err := c.get("k", build)
			if err != nil || string(f.png) != "frame" || f.w != 4 || f.h != 3 {
				t.Errorf("get: %q %d %d %v", f.png, f.w, f.h, err)
			}
		}()
	}
	waitFor(t, "every caller to wait on one build", func() bool { return parkedInLRU() == callers })
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d concurrent gets caused %d builds, want 1", callers, n)
	}
	if hits.Load() != callers-1 || misses.Load() != 1 {
		t.Errorf("hits %d, misses %d; want %d and 1", hits.Load(), misses.Load(), callers-1)
	}
	if _, hit, err := c.get("k2", build); hit || err != nil || builds.Load() != 2 {
		t.Errorf("a new key: hit=%v err=%v builds=%d; want a second build", hit, err, builds.Load())
	}
}

// TestLRUBuildPanics: a build that panics keeps nothing, its waiters
// get an error instead of hanging, the panic goes on up the builder's
// own stack, and the next get builds again.
func TestLRUBuildPanics(t *testing.T) {
	t.Cleanup(leaktest.Check(t))
	c := newLRU[string](4, func(int) int { return 1 }, nil, nil, nil)
	release := make(chan struct{})
	repanicked := make(chan any, 1)
	go func() {
		defer func() { repanicked <- recover() }()
		c.get("k", func() (int, error) {
			<-release
			panic("boom")
		})
	}()
	waitFor(t, "the builder to start", func() bool { return parkedInLRU() == 1 })
	const waiters = 4
	errs := make(chan error, waiters)
	for range waiters {
		go func() {
			_, _, err := c.get("k", func() (int, error) { return 0, errors.New("a waiter built") })
			errs <- err
		}()
	}
	waitFor(t, "the waiters to wait on the build", func() bool { return parkedInLRU() == waiters+1 })
	close(release)
	if v := <-repanicked; v != "boom" {
		t.Errorf("the builder recovered %v, want its own panic", v)
	}
	for range waiters {
		if err := <-errs; !errors.Is(err, errBuildPanicked) || !errors.Is(err, ErrInternal) {
			t.Errorf("waiter got %v, want %v", err, errBuildPanicked)
		}
	}
	if len(c.entries) != 0 || c.order.Len() != 0 || c.used != 0 {
		t.Errorf("a panicked build left %d entries (cost %d)", len(c.entries), c.used)
	}
	if v, hit, err := c.get("k", func() (int, error) { return 7, nil }); v != 7 || hit || err != nil {
		t.Errorf("get after the panic: %d hit=%v err=%v; want a fresh build of 7", v, hit, err)
	}
}

// TestCacheLRUEvictionOrder fills the cache past its budget and checks
// that the least recently *used* entry goes first — a hit must refresh
// recency, not just insertion order.
func TestCacheLRUEvictionOrder(t *testing.T) {
	var hits, misses, evictions atomic.Int64
	c := newLRU[string](3, func(string) int { return 1 }, &hits, &misses, &evictions)
	put := func(k string) {
		t.Helper()
		if _, _, err := c.get(k, func() (string, error) { return k, nil }); err != nil {
			t.Fatal(err)
		}
	}
	put("a")
	put("b")
	put("c")
	put("a") // "a" becomes most recent; "b" is now the tail
	put("d") // so a fourth entry evicts "b", not "a"
	if got, want := lruKeys(c), []string{"d", "a", "c"}; !slices.Equal(got, want) {
		t.Errorf("recency order %v, want %v", got, want)
	}
	if evictions.Load() != 1 {
		t.Errorf("evictions = %d, want 1", evictions.Load())
	}
	before := misses.Load()
	put("a")
	if misses.Load() != before {
		t.Error("surviving entry 'a' rebuilt")
	}
	put("b")
	if misses.Load() != before+1 {
		t.Error("evicted entry 'b' served without a build")
	}
}

// TestFrameKeyedBySnapshot: a frame is a function of its snapshot, not
// of the step — two snapshots at one step with different fields (a
// watchdog re-run that diverged from the first run, say) are two
// renders and two pictures, and asking again for either is a hit.
func TestFrameKeyedBySnapshot(t *testing.T) {
	m := NewManagerOpts(Options{Workers: 1, QueueCap: 1})
	defer m.Close()
	dom, err := voxelised(t, "pipe")()
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func(seq uint64, period int) *core.Snapshot {
		n := dom.NumSites()
		f := &field.Field{Dom: dom, Rho: make([]float64, n), Ux: make([]float64, n), Uy: make([]float64, n), Uz: make([]float64, n)}
		for i := range n {
			f.Rho[i], f.Uz[i] = 1, 0.01*float64(i%period)
		}
		return &core.Snapshot{Step: 40, Seq: seq, Field: f}
	}
	first, rerun := snapshot(1<<40, 7), snapshot(1<<40+1, 3)
	req := insitu.DefaultRequest()
	a, _, _, err := m.frameFromSnapshot(first, req)
	if err != nil {
		t.Fatal(err)
	}
	b, _, _, err := m.frameFromSnapshot(rerun, req)
	if err != nil {
		t.Fatal(err)
	}
	if n := m.metrics.RendersTotal.Load(); n != 2 {
		t.Errorf("two snapshots at step 40 cost %d renders, want 2", n)
	}
	if bytes.Equal(a, b) {
		t.Error("two snapshots with different fields gave one picture")
	}
	if again, _, _, err := m.frameFromSnapshot(first, req); err != nil || !bytes.Equal(again, a) || m.metrics.RendersTotal.Load() != 2 {
		t.Errorf("asking again for the first snapshot: err %v, same picture %v, renders %d; want a hit",
			err, bytes.Equal(again, a), m.metrics.RendersTotal.Load())
	}
}

// TestOctreeMemoryBounded: octrees are kept by snapshot under the site
// budget, not by job — four finished jobs on the 79 746-site tree each
// answer a /data query, and the manager reaches at most the three
// trees the budget holds. The last job's eight-octant sweep is one
// tree, built once.
func TestOctreeMemoryBounded(t *testing.T) {
	t.Cleanup(goroutineBaseline(t))
	m := NewManagerOpts(Options{Workers: 1, QueueCap: 8})
	defer m.Close()
	const jobs = 4
	var last *Job
	for range jobs {
		j, err := m.Submit(JobSpec{Preset: "tree", Scale: 3, Steps: 2})
		if err != nil {
			t.Fatal(err)
		}
		finalFields(t, j)
		if _, err := m.Data(j, [3]float64{}, [3]float64{}, 0, 3); err != nil {
			t.Fatal(err)
		}
		last = j
	}
	sites := last.Info().NumSites
	if jobs*sites <= siteBudget {
		t.Fatalf("%d jobs of %d sites fit the %d-site budget; the test needs a larger domain", jobs, sites, siteBudget)
	}
	objects, _ := leaktest.Census(m)
	if n := objects["octree.Tree"]; n == 0 || n > siteBudget/sites {
		t.Errorf("after %d jobs queried once each the manager reaches %d octrees; want 1..%d", jobs, n, siteBudget/sites)
	}

	tree := m.octrees.order.Front().Value
	snap, _ := last.LatestSnapshot()
	d := snap.Field.Dom.Dims
	dims := [3]float64{float64(d.X), float64(d.Y), float64(d.Z)}
	for o := range 8 {
		var lo, hi [3]float64
		for a := range 3 {
			lo[a], hi[a] = 0, dims[a]/2
			if o>>a&1 == 1 {
				lo[a], hi[a] = dims[a]/2, dims[a]
			}
		}
		if _, err := m.Data(last, lo, hi, 0, 3); err != nil {
			t.Fatal(err)
		}
	}
	if m.octrees.order.Front().Value != tree || len(m.octrees.entries) != objects["octree.Tree"] {
		t.Error("the octant sweep built another tree")
	}
}
