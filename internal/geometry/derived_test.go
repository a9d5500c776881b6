package geometry

import (
	"sync/atomic"
	"testing"

	"repro/internal/guard"
	"repro/internal/lattice"
)

type testKey struct{ n int }

// TestDeriveBuildsOncePerKey: concurrent callers of one key share one
// build, keys are independent, and a build that panics keeps nothing —
// the next caller builds again instead of reading a nil value.
func TestDeriveBuildsOncePerKey(t *testing.T) {
	dom, err := Voxelise(Pipe(6, 2), 1, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	var builds, reportedBuilt atomic.Int32
	guard.ForChunks(8, 8, func(int) { // concurrent callers: guard's parcel participants
		v, built := dom.Derive(testKey{1}, func() any { builds.Add(1); return "one" })
		if v != "one" {
			t.Errorf("Derive returned %v", v)
		}
		if built {
			reportedBuilt.Add(1)
		}
	})
	if builds.Load() != 1 || reportedBuilt.Load() != 1 {
		t.Errorf("%d builds, %d callers told they built; want 1 and 1", builds.Load(), reportedBuilt.Load())
	}
	if v, built := dom.Derive(testKey{2}, func() any { return "two" }); v != "two" || !built {
		t.Errorf("a second key: %v built=%v", v, built)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("the build's panic did not reach the caller")
			}
		}()
		dom.Derive(testKey{3}, func() any { panic("inconsistent") })
	}()
	if v, built := dom.Derive(testKey{3}, func() any { return "three" }); v != "three" || !built {
		t.Errorf("after a panicking build: %v built=%v, want a fresh build", v, built)
	}
}
