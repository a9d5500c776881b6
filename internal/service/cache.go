package service

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/insitu"
)

// The caches' budgets are constants, not options: nothing measured so
// far asks for another value, and a value that does not fit is still
// built and handed to its callers, just not kept.
const (
	// frameEntries bounds the rendered frames kept (each costs 1).
	frameEntries = 512
	// siteBudget bounds the fluid sites kept resident by the domain
	// cache and, separately, by the octree cache, summed over entries:
	// room for the largest bench/ domain three times over (≈ 0.32 kB a
	// site for a domain with the stream table and octree layout a job
	// leaves on it, 84 B a site for an octree; see docs/OPERATIONS.md).
	siteBudget = 1 << 18
)

// errBuildPanicked is what the waiters of a build that panicked get;
// the panic itself goes on up the builder's stack.
var errBuildPanicked = fmt.Errorf("%w: cache build panicked", ErrInternal)

// lru is the service's one cache of derived results — rendered frames,
// voxelised domains, octrees — each keyed by what it derives from, so
// an entry is valid for as long as it is kept. Concurrent callers of
// one key wait for a single build; kept entries are evicted least
// recently used first once their summed cost exceeds the budget.
type lru[K comparable, V any] struct {
	budget int
	cost   func(V) int
	// hits, misses and evictions are the metrics it counts into; a nil
	// one counts nothing.
	hits, misses, evictions *atomic.Int64

	mu      sync.Mutex
	entries map[K]*lruEntry[K, V] // kept and building
	order   list.List             // kept entries (*lruEntry), front = most recently used
	used    int                   // summed cost over order
}

type lruEntry[K comparable, V any] struct {
	key   K
	ready chan struct{} // closed once val and err are set
	val   V
	err   error
	cost  int
	el    *list.Element // nil while building
}

func newLRU[K comparable, V any](budget int, cost func(V) int, hits, misses, evictions *atomic.Int64) *lru[K, V] {
	return &lru[K, V]{budget: budget, cost: cost, hits: hits, misses: misses, evictions: evictions,
		entries: make(map[K]*lruEntry[K, V])}
}

func count(c *atomic.Int64) {
	if c != nil {
		c.Add(1)
	}
}

// get returns the value for key, calling build when nobody has built it
// yet (or it was evicted since). hit reports that this caller did not
// build: it found the entry or waited for another caller's build. An
// error reaches that build's waiters and is never kept; nor is a value
// costing more than the whole budget.
func (c *lru[K, V]) get(key K, build func() (V, error)) (v V, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.el != nil {
			c.order.MoveToFront(e.el)
		}
		c.mu.Unlock()
		<-e.ready
		count(c.hits)
		return e.val, true, e.err
	}
	e := &lruEntry[K, V]{key: key, ready: make(chan struct{}), err: errBuildPanicked}
	c.entries[key] = e
	c.mu.Unlock()
	count(c.misses)

	defer c.settle(e)
	e.val, e.err = build()
	return e.val, false, e.err
}

// settle keeps a finished build or forgets it, then releases its
// waiters. It runs deferred, so a build that panicked (e.err still
// errBuildPanicked) is forgotten and releases them too.
func (c *lru[K, V]) settle(e *lruEntry[K, V]) {
	if e.err == nil {
		e.cost = c.cost(e.val)
	}
	c.mu.Lock()
	if e.err != nil || e.cost > c.budget {
		delete(c.entries, e.key)
	} else {
		e.el = c.order.PushFront(e)
		c.used += e.cost
		for c.used > c.budget {
			c.drop(c.order.Back().Value.(*lruEntry[K, V]))
			count(c.evictions)
		}
	}
	c.mu.Unlock()
	close(e.ready)
}

// drop forgets a kept entry; whoever already holds its value keeps it
// alive. Callers hold c.mu.
func (c *lru[K, V]) drop(e *lruEntry[K, V]) {
	c.order.Remove(e.el)
	delete(c.entries, e.key)
	c.used -= e.cost
}

// purge forgets every kept entry (builds in flight complete and are
// kept): the memory watermark's way of giving the heap back.
func (c *lru[K, V]) purge() {
	c.mu.Lock()
	for c.order.Len() > 0 {
		c.drop(c.order.Back().Value.(*lruEntry[K, V]))
	}
	c.mu.Unlock()
}

// frame is one rendered PNG, as Manager.render returns it and the
// frame lru keeps it.
type frame struct {
	png  []byte
	w, h int
}

// frameKey names a frame by what it is a pure function of: the
// snapshot (by its Seq, so the key holds no field alive) and the view.
type frameKey struct {
	seq  uint64
	view string
}

// viewKey canonicalises a render request; every parameter the renderer
// honours is part of the identity.
func viewKey(req insitu.Request) string {
	return fmt.Sprintf("m%d|s%d|%dx%d|az%.5f|el%.5f|d%.5f|roi%v%v|lv%d,%d|n%d",
		req.Mode, req.Scalar, req.W, req.H,
		req.Azimuth, req.Elevation, req.DistFactor,
		req.ROI.Min, req.ROI.Max, req.DetailLevel, req.ContextLevel,
		req.NumSeeds)
}
