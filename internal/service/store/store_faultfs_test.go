package store

import (
	"bytes"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultfs"
)

// openMem opens a store on a fresh fault-injecting filesystem.
func openMem(t *testing.T, seed int64) (*Store, *faultfs.Mem) {
	t.Helper()
	m := faultfs.NewMem(seed)
	s, err := OpenFS(m, "data")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseJournal)
	return s, m
}

func TestStoreOnMemRoundTrip(t *testing.T) {
	s, m := openMem(t, 1)
	if err := s.AppendSubmit("j", map[string]any{"preset": "pipe"}, JobRecord{ID: "j", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	// A job's *first* checkpoint write skips the data fsync (a torn
	// first checkpoint only costs the fresh start the job already
	// faced); the overwrite below is the durable path under test — it
	// fsyncs its data because a torn replacement would destroy the
	// fallback.
	ckpt := checkpointBytes(t)
	if err := s.PutCheckpoint("j", []byte("volatile first write")); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint("j", ckpt); err != nil {
		t.Fatal(err)
	}
	// The checkpoint rename deliberately skips the directory-entry sync;
	// a filesystem commits it on its own schedule, which the explicit
	// sync stands in for.
	if err := m.SyncDir("data/jobs/j"); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendState("j", JobRecord{ID: "j", State: "running"}); err != nil {
		t.Fatal(err)
	}
	// Crash and reopen: everything must survive.
	m.PowerCycle()
	s2, err := OpenFS(m, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseJournal()
	rec, err := s2.State("j")
	if err != nil || rec.State != "running" {
		t.Fatalf("state after crash: (%+v, %v)", rec, err)
	}
	got, step, err := s2.Checkpoint("j")
	if err != nil || step != 17 || !bytes.Equal(got, ckpt) {
		t.Fatalf("checkpoint after crash: step=%d err=%v", step, err)
	}
	if ids := s2.Jobs(); len(ids) != 1 || ids[0] != "j" {
		t.Fatalf("Jobs after crash = %v", ids)
	}
}

// TestFirstCheckpointTornOnCrashIsDetected pins the deliberate
// durability gap PutCheckpoint opens for a job's first checkpoint: the
// data is not fsynced, so a crash may tear it. The contract is that
// the tear is *detected* — Checkpoint returns a verification error and
// the manager falls back to a fresh start, exactly the state the job
// was in before that first write — never silently served as state.
func TestFirstCheckpointTornOnCrashIsDetected(t *testing.T) {
	s, m := openMem(t, 4)
	if err := s.AppendSubmit("j", map[string]any{"preset": "pipe"}, JobRecord{ID: "j", State: "running"}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutCheckpoint("j", checkpointBytes(t)); err != nil {
		t.Fatal(err)
	}
	// A durable dir entry, as the filesystem's own commit eventually
	// makes it; the checkpoint *data* stays unsynced.
	if err := m.SyncDir("data/jobs/j"); err != nil {
		t.Fatal(err)
	}
	m.PowerCycle()
	s2, err := OpenFS(m, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseJournal()
	got, step, err := s2.Checkpoint("j")
	if err == nil {
		// The simulated crash may still have kept the full contents
		// (tearing is seed-dependent); a clean read must then be the
		// real checkpoint, not garbage.
		if step != 17 || len(got) == 0 {
			t.Fatalf("surviving first checkpoint decoded wrong: step=%d len=%d", step, len(got))
		}
		t.Skip("seed kept the unsynced checkpoint intact; tear not exercised")
	}
	if got != nil {
		t.Fatalf("torn checkpoint returned data alongside err=%v", err)
	}
}

// opDelta measures the counted-op cost of one call of fn in steady
// state (directories exist, parent already synced).
func opDelta(m *faultfs.Mem, fn func()) int64 {
	before := m.Ops()
	fn()
	return m.Ops() - before
}

// findOp returns the 1-based op index (relative to base) of the first
// op in log[base:] whose description starts with prefix.
func findOp(t *testing.T, log []string, base int64, prefix string) int64 {
	t.Helper()
	for i := base; i < int64(len(log)); i++ {
		if strings.HasPrefix(log[i], prefix) {
			return i - base + 1
		}
	}
	t.Fatalf("no op with prefix %q after op %d in %q", prefix, base, log[base:])
	return 0
}

// TestFailedCheckpointWriteSweepsTemps pins the fix for the orphan-temp
// gap: the boot-time sweep was the only one, so a rename failure whose
// in-line temp cleanup also failed stranded a .tmp-* until the next
// restart. PutCheckpoint now sweeps the job's temps on any failed
// write.
func TestFailedCheckpointWriteSweepsTemps(t *testing.T) {
	s, m := openMem(t, 2)
	if err := s.PutCheckpoint("j", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	base := m.Ops()
	if err := s.PutCheckpoint("j", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	log := m.OpLog()
	renameAt := findOp(t, log, base, "rename ")
	base = m.Ops()
	// Fail the rename, and the deferred temp-file cleanup right after
	// it: without the post-failure sweep this stranded the temp.
	m.Inject(
		faultfs.Fault{Op: base + renameAt, Kind: faultfs.FaultErr},
		faultfs.Fault{Op: base + renameAt + 1, Kind: faultfs.FaultErr},
	)
	if err := s.PutCheckpoint("j", []byte("v3")); !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("faulted PutCheckpoint: %v, want ErrInjected", err)
	}
	if fired := m.Fired(); len(fired) != 2 {
		t.Fatalf("faults fired: %q, want rename + cleanup", fired)
	}
	stale, err := m.Glob(filepath.Join("data", "jobs", "j", "*.tmp-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(stale) != 0 {
		t.Fatalf("orphan temps survived a failed checkpoint write: %q", stale)
	}
	// The failed write must not have damaged the previous checkpoint.
	if data, err := m.ReadFile(filepath.Join("data", "jobs", "j", "checkpoint.bin")); err != nil || string(data) != "v2" {
		t.Fatalf("previous checkpoint after failed write: (%q, %v)", data, err)
	}
}

// TestAppendStateCrashSweep cuts power at every individual I/O op of
// one AppendState and asserts the recovered record is always the old
// one or the new one, never torn, and the new one whenever the append
// was acknowledged — the journal-ordering invariant the chaos suite
// checks end-to-end, pinned here at the store layer.
func TestAppendStateCrashSweep(t *testing.T) {
	setup := func(seed int64) (*Store, *faultfs.Mem) {
		s, m := openMem(t, seed)
		if err := s.AppendSubmit("j", map[string]any{}, JobRecord{ID: "j", State: "v0"}); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendState("j", JobRecord{ID: "j", State: "v1"}); err != nil {
			t.Fatal(err)
		}
		return s, m
	}
	// Measure the steady-state op cost of one AppendState.
	s, m := setup(3)
	delta := opDelta(m, func() {
		if err := s.AppendState("j", JobRecord{ID: "j", State: "v2"}); err != nil {
			t.Fatal(err)
		}
	})
	if delta < 2 { // write, sync at minimum
		t.Fatalf("opDelta = %d, suspiciously small", delta)
	}
	for k := int64(1); k <= delta; k++ {
		s, m := setup(100 + k)
		m.Inject(faultfs.Fault{Op: m.Ops() + k, Kind: faultfs.FaultCrash})
		appendErr := s.AppendState("j", JobRecord{ID: "j", State: "v2"})
		if appendErr != nil && !errors.Is(appendErr, faultfs.ErrCrashed) {
			t.Fatalf("crash at +%d: AppendState err = %v, want ErrCrashed or nil", k, appendErr)
		}
		s.CloseJournal()
		m.PowerCycle()
		s2, err := OpenFS(m, "data")
		if err != nil {
			t.Fatalf("crash at +%d: reopen: %v", k, err)
		}
		s2.CloseJournal()
		rec, err := s2.State("j")
		if err != nil {
			t.Fatalf("crash at +%d: recovered state unreadable: %v", k, err)
		}
		if rec.State != "v1" && rec.State != "v2" {
			t.Fatalf("crash at +%d: recovered state %q, want v1 or v2", k, rec.State)
		}
		if appendErr == nil && rec.State != "v2" {
			t.Fatalf("crash at +%d: AppendState reported success but recovered %q", k, rec.State)
		}
	}
}
