// Package leaktest fails tests that leave goroutines behind: take a
// snapshot of the running goroutines at test start, and at cleanup
// diff the live set against it — anything born after the snapshot and
// still alive once a retry window has elapsed is a leak, reported with
// its full stack. The retry window absorbs goroutines that are
// legitimately still winding down (server shutdowns, connection
// teardown); a genuinely parked goroutine survives it and fails the
// test.
//
// Goroutines are identified by ID, which the runtime never reuses, so
// the diff is exact: a baseline goroutine that died and a lookalike
// born later never cancel out, unlike count-based checks.
package leaktest

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

// window is how long a goroutine born after the snapshot may keep
// running at check time before it counts as leaked.
const window = 30 * time.Second

// ignored matches goroutines that can appear at any moment and are
// never leaks: the runtime's own workers and guard's parked parcel
// helpers, which the first fan-out of a process starts and keeps.
var ignored = []string{
	"repro/internal/guard.(*helper).run",
	"runtime.gcBgMarkWorker",
	"runtime.bgsweep",
	"runtime.bgscavenge",
	"runtime.forcegchelper",
	"runtime.runfinq",
	"testing.(*F).Fuzz",
}

// stacks returns the stack block of every live goroutine, keyed by
// goroutine ID.
func stacks() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, block := range strings.Split(string(buf), "\n\n") {
		// Each block opens with "goroutine <id> [<state>]:".
		header, _, _ := strings.Cut(block, "\n")
		fields := strings.Fields(header)
		if len(fields) >= 2 && fields[0] == "goroutine" {
			out[fields[1]] = block
		}
	}
	return out
}

// leaked returns the stack blocks of goroutines alive now that were
// not in base, minus the runtime's own.
func leaked(base map[string]string) []string {
	var out []string
next:
	for id, block := range stacks() {
		if _, ok := base[id]; ok {
			continue
		}
		for _, ig := range ignored {
			if strings.Contains(block, ig) {
				continue next
			}
		}
		out = append(out, block)
	}
	return out
}

// Check snapshots the running goroutines and returns the check
// function: call it after everything the test started has been shut
// down (or register it with t.Cleanup BEFORE the shutdown cleanups, so
// LIFO ordering runs it last). Each settle function is invoked on
// every retry — pass e.g. http.DefaultClient.CloseIdleConnections so
// kept-alive connections don't count as leaks while their idle timeout
// runs.
func Check(t testing.TB, settle ...func()) func() {
	t.Helper()
	for _, fn := range settle {
		fn()
	}
	base := stacks()
	var done bool
	return func() {
		t.Helper()
		if done { // idempotent: explicit call + cleanup double-fire
			return
		}
		done = true
		deadline := time.Now().Add(window)
		for {
			for _, fn := range settle {
				fn()
			}
			left := leaked(base)
			if len(left) == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines leaked:\n\n%s", len(left), strings.Join(left, "\n\n"))
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
}
