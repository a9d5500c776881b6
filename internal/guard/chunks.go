package guard

import (
	"sync"
	"sync/atomic"
)

// ForChunks calls fn(0..n-1), each index once, on up to workers
// goroutines — the caller's among them — that claim indices from a
// shared cursor, and returns when all calls have.
//
// A panic in fn does not end the process from a goroutine nobody can
// recover on: the first one is caught where it happens, the indices
// not yet claimed are skipped, and once every goroutine has returned
// the value is raised again on the caller's goroutine — where a
// Capture around the caller contains it like any other.
func ForChunks(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		first atomic.Pointer[any] // what the first panic carried
	)
	run := func() {
		defer wg.Done()
		defer func() {
			if v := recover(); v != nil {
				first.CompareAndSwap(nil, &v)
				next.Store(int64(n))
			}
		}()
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	wg.Add(workers)
	for w := 1; w < workers; w++ {
		go run()
	}
	run()
	wg.Wait()
	if v := first.Load(); v != nil {
		panic(*v)
	}
}
