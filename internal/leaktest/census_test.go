package leaktest

import (
	"sync"
	"testing"
)

type censusLeaf struct {
	vals []float64
	name string
}

type censusRoot struct {
	mu    sync.Mutex
	kept  map[any]*censusLeaf
	any   any
	self  *censusRoot
	ready chan struct{}
}

// TestCensus: the walk counts each object once (shared and cyclic
// pointers included), reads unexported fields, ignores lock state and
// map order, and its hash moves when any reachable value does.
func TestCensus(t *testing.T) {
	shared := &censusLeaf{vals: []float64{1, 2, 3}, name: "shared"}
	root := &censusRoot{
		kept:  map[any]*censusLeaf{1: shared, "two": {vals: []float64{4}}, struct{ a int }{3}: shared},
		any:   shared,
		ready: make(chan struct{}),
	}
	root.self = root
	objects, before := Census(root)
	if objects["leaktest.censusLeaf"] != 2 || objects["leaktest.censusRoot"] != 1 {
		t.Fatalf("census counted %v; want 2 leaves and 1 root", objects)
	}
	root.mu.Lock()
	if _, locked := Census(root); locked != before {
		t.Error("a held mutex changed the hash")
	}
	root.mu.Unlock()
	for i := 0; i < 20; i++ { // map iteration order varies from range to range
		if _, again := Census(root); again != before {
			t.Fatal("the hash of an unchanged structure is not stable")
		}
	}
	shared.vals[2] = 3.0000001
	if _, after := Census(root); after == before {
		t.Error("a changed float behind two pointers and a map left the hash unchanged")
	}
	shared.vals[2] = 3
	delete(root.kept, "two")
	objects, after := Census(root)
	if after == before || objects["leaktest.censusLeaf"] != 1 {
		t.Errorf("dropping a map entry: hash changed %v, %d leaves left", after != before, objects["leaktest.censusLeaf"])
	}
}
