package geometry

// Test-only views for the geometry_test package, whose tests import
// packages that import this one.

// Counted wraps every primitive of a shape so that its SDF
// evaluations add to a counter (see counted).
var Counted = counted

// LinkDistsBuilt reports whether d's distance table has been built or
// seeded, without building it.
func LinkDistsBuilt(d *Domain) bool {
	d.derived.mu.Lock()
	s := d.derived.slots[linkDistKey{}]
	d.derived.mu.Unlock()
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.built
}
