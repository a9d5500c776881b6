package lb

import "sync/atomic"

// populations is one f/fNew pair a finished Dist gave back.
type populations struct {
	f, fNew []float64
}

// spare is the process's free list of one population pair: the pair
// the last released Dist gave back, until the next kernel asks: one of
// exactly its size takes it, any other drops it. A job's first step then writes into memory that is
// already mapped instead of clearing and first-touching a fresh 304 B
// a site. Reuse is safe without clearing: InitEquilibrium or
// RestoreState overwrites all of f, and every step writes each fNew
// slot (stream, bounce-back or halo scatter) before anything reads it.
// The pair lives here, not on the Domain, so sharing a domain never
// carries another job's populations.
var spare atomic.Pointer[populations]

// takeSpare hands out the spare pair when it holds n values each. A
// pair of another size is dropped rather than kept idle beside the
// populations the caller now allocates.
func takeSpare(n int) (f, fNew []float64) {
	p := spare.Swap(nil)
	if p == nil || len(p.f) != n {
		return nil, nil
	}
	return p.f, p.fNew
}

// DropSpare lets the garbage collector have the spare pair: the
// service's memory purge calls it next to dropping idle domains.
func DropSpare() { spare.Store(nil) }

// Release gives the Dist's populations to the process's spare pair,
// replacing whatever pair it held, and nils them, so a use after
// release panics instead of reading another job's state. Call it once
// the Dist will never step, gather or checkpoint again; a rank that
// panicked gives nothing back.
func (d *Dist) Release() {
	if len(d.f) > 0 {
		spare.Store(&populations{f: d.f, fNew: d.fNew})
	}
	d.f, d.fNew = nil, nil
}
