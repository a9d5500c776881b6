//go:build !race

package octree

// raceEnabled reports whether the race detector instruments this
// build; allocation counts are not asserted under it, since it drops a
// share of what is put into a sync.Pool.
const raceEnabled = false
