package geometry

import "sync"

// derived is the Domain's one mechanism for structures that are
// computed from the geometry alone and then only read: the occupancy
// grid, the solver's stream tables and halo plans, the octree's Z-order
// layout. Each is built at most once per key, by the first goroutine
// that asks while the others wait for it, and lives exactly as long as
// the Domain — whoever drops the Domain (the service's domain cache on
// eviction) drops everything derived from it, so no consumer needs a
// cache, budget or purge hook of its own.
type derived struct {
	mu    sync.Mutex
	slots map[any]*derivedSlot
}

// derivedSlot is one key's value. mu is held for the length of the
// build, which is what makes the other callers wait for it.
type derivedSlot struct {
	mu    sync.Mutex
	built bool
	v     any
}

// Derive returns the value kept on the domain under key, calling build
// for it when nobody has yet; built reports that this call did. Keys
// are package-private types of the deriving package, as with
// context.Context values, so packages cannot collide. The value must
// depend on nothing but the domain and must not be written after build
// returns, unless it synchronises itself: every job sharing the Domain
// reads the same one. build must not Derive the key it is building. A
// build that panics keeps nothing: the next caller builds again (and
// meets the same diagnostic) rather than reading a half-made value.
func (d *Domain) Derive(key any, build func() any) (v any, built bool) {
	d.derived.mu.Lock()
	s := d.derived.slots[key]
	if s == nil {
		if d.derived.slots == nil {
			d.derived.slots = make(map[any]*derivedSlot)
		}
		s = new(derivedSlot)
		d.derived.slots[key] = s
	}
	d.derived.mu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.built {
		s.v = build()
		s.built, built = true, true
	}
	return s.v, built
}
