package service

import (
	"container/list"
	"strings"
	"sync"

	"repro/internal/geometry"
)

// domainKey names a voxelised geometry by everything a JobSpec feeds
// geometry.Voxelise: jobs with equal keys get the same Domain.
type domainKey struct {
	preset   string // lower case, as vesselByPreset resolves it
	scale, h float64
}

func (sp JobSpec) domainKey() domainKey {
	sp = sp.withDefaults()
	return domainKey{preset: strings.ToLower(sp.Preset), scale: sp.Scale, h: sp.H}
}

// domainCacheSites bounds the fluid sites the cache keeps resident,
// summed over its entries (≈ 0.66 kB a site with the stream table and
// octree layout a job leaves on its Domain; see docs/OPERATIONS.md):
// room for the largest bench/ domain three times over. It is a
// constant, not an option — a geometry that does not fit is still
// built and handed to its job, just not kept.
const domainCacheSites = 1 << 18

// domainCache shares voxelised domains between the jobs of one daemon:
// a burst on one geometry, a steering session's restarts and the jobs
// recovered together after a crash pre-process once. A Domain is
// immutable, so sharing is by pointer and read-only. What jobs derive
// from the geometry alone (the stream table, the octree layout) rides
// the Domain itself (geometry.Domain.Derive) and goes when an entry is
// dropped:
// this is the only cache of pre-processing results, and nothing
// per-job (graph, populations) lives here. Concurrent
// requests for one key wait for a single build; completed entries are
// evicted least recently used first once the site budget is exceeded.
type domainCache struct {
	metrics *Metrics
	budget  int

	mu      sync.Mutex
	entries map[domainKey]*domainEntry
	lru     list.List // kept entries (*domainEntry), front = most recently used
	sites   int       // resident sites over lru
}

type domainEntry struct {
	key   domainKey
	ready chan struct{} // closed once dom and err are set
	dom   *geometry.Domain
	err   error
	el    *list.Element // nil while building
}

func newDomainCache(metrics *Metrics, budget int) *domainCache {
	return &domainCache{metrics: metrics, budget: budget, entries: make(map[domainKey]*domainEntry)}
}

// get returns the domain for key, calling build when no job has built
// it yet (or it was evicted since). hit reports that this caller did
// not build: it found the entry or waited for another caller's build.
func (c *domainCache) get(key domainKey, build func() (*geometry.Domain, error)) (dom *geometry.Domain, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		if e.el != nil {
			c.lru.MoveToFront(e.el)
		}
		c.mu.Unlock()
		<-e.ready
		c.metrics.DomainCacheHits.Add(1)
		return e.dom, true, e.err
	}
	e := &domainEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()
	c.metrics.DomainCacheMiss.Add(1)

	e.dom, e.err = build()
	c.mu.Lock()
	if e.err != nil || e.dom.NumSites() > c.budget {
		// Handed to whoever is waiting on e, kept for nobody else.
		delete(c.entries, key)
	} else {
		e.el = c.lru.PushFront(e)
		c.sites += e.dom.NumSites()
		for c.sites > c.budget {
			c.drop(c.lru.Back().Value.(*domainEntry))
		}
	}
	c.mu.Unlock()
	close(e.ready)
	return e.dom, false, e.err
}

// drop forgets a kept entry; jobs already running on its domain keep
// it alive until they finish. Callers hold c.mu.
func (c *domainCache) drop(e *domainEntry) {
	c.lru.Remove(e.el)
	delete(c.entries, e.key)
	c.sites -= e.dom.NumSites()
}

// purge forgets every kept entry (builds in flight complete and are
// kept): the memory watermark's way of giving the heap back.
func (c *domainCache) purge() {
	c.mu.Lock()
	for c.lru.Len() > 0 {
		c.drop(c.lru.Back().Value.(*domainEntry))
	}
	c.mu.Unlock()
}
