package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultfs"
)

func TestJournalSubmitStateReplay(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSubmit("j1", map[string]any{"preset": "pipe"}, JobRecord{ID: "j1", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendState("j1", JobRecord{ID: "j1", State: "running", Step: 4}); err != nil {
		t.Fatal(err)
	}
	// Reads serve the index; no per-job files are written at all.
	raw, err := s.Spec("j1")
	if err != nil || !strings.Contains(string(raw), `"pipe"`) {
		t.Fatalf("Spec from overlay = (%s, %v)", raw, err)
	}
	rec, err := s.State("j1")
	if err != nil || rec.State != "running" || rec.Step != 4 {
		t.Fatalf("State from overlay = (%+v, %v)", rec, err)
	}
	if ids := s.Jobs(); len(ids) != 1 || ids[0] != "j1" {
		t.Fatalf("Jobs = %v", ids)
	}
	if _, err := os.Stat(filepath.Join(dir, "jobs", "j1")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("job directory created without a checkpoint: %v", err)
	}
	s.CloseJournal()

	// Reopen: the journal is compacted to one submit line carrying the
	// latest record.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseJournal()
	rec, err = s2.State("j1")
	if err != nil || rec.State != "running" || rec.Step != 4 {
		t.Fatalf("State after replay = (%+v, %v)", rec, err)
	}
	raw, err = s2.Spec("j1")
	if err != nil || !strings.Contains(string(raw), `"pipe"`) {
		t.Fatalf("Spec after replay = (%s, %v)", raw, err)
	}
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	recs, intact := parseJournal(data)
	if intact != len(data) || len(recs) != 1 || recs[0].Op != "submit" || recs[0].State.State != "running" {
		t.Fatalf("compacted journal = %q", data)
	}
}

// TestJournalRemoveTombstone pins the resurrect hazard: a Remove must
// out-live the submit record still sitting in the journal.
func TestJournalRemoveTombstone(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSubmit("j1", map[string]any{"p": 1}, JobRecord{ID: "j1", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("j1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.State("j1"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("State after Remove = %v, want ErrNotExist", err)
	}
	if ids := s.Jobs(); len(ids) != 0 {
		t.Fatalf("Jobs after Remove = %v", ids)
	}
	s.CloseJournal()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseJournal()
	if ids := s2.Jobs(); len(ids) != 0 {
		t.Fatalf("removed job resurrected by replay: %v", ids)
	}
}

// TestJournalGroupCommit drives concurrent appends and checks the
// single-fsync amortization: every record must be durable, in far
// fewer fsyncs than records.
func TestJournalGroupCommit(t *testing.T) {
	m := faultfs.NewMem(1)
	s, err := OpenFS(m, "data")
	if err != nil {
		t.Fatal(err)
	}
	var obsMu sync.Mutex
	var batches []int
	s.SetGroupCommitObserver(func(n int) {
		obsMu.Lock()
		batches = append(batches, n)
		obsMu.Unlock()
	})
	if err := s.AppendSubmit("j", map[string]any{}, JobRecord{ID: "j", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	// A small bounded-latency delay lets every goroutine enqueue before
	// the first commit fires.
	if err := s.EnableJournal(20 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	const N = 16
	syncsBefore := countOps(m, "sync data/journal.wal")
	var wg sync.WaitGroup
	errs := make([]error, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = s.AppendState("j", JobRecord{ID: "j", State: "running", Step: i})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	syncs := countOps(m, "sync data/journal.wal") - syncsBefore
	if syncs >= N {
		t.Fatalf("%d records took %d fsyncs: no group commit happened", N, syncs)
	}
	total := 0
	obsMu.Lock()
	for _, b := range batches {
		total += b
	}
	obsMu.Unlock()
	if total != N+1 {
		t.Fatalf("observer saw %d records in %v, want the submit and %d states", total, batches, N)
	}
	s.CloseJournal()
	// Every acknowledged record survives a crash.
	m.PowerCycle()
	s2, err := OpenFS(m, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseJournal()
	if rec, err := s2.State("j"); err != nil || rec.State != "running" {
		t.Fatalf("state after crash = (%+v, %v)", rec, err)
	}
}

func countOps(m *faultfs.Mem, prefix string) int {
	n := 0
	for _, op := range m.OpLog() {
		if strings.HasPrefix(op, prefix) {
			n++
		}
	}
	return n
}

// TestJournalTornTailRecovers seeds a journal whose tail is garbage (a
// power cut mid-append): replay must keep the intact prefix and discard
// the rest.
func TestJournalTornTailRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AppendSubmit("j1", map[string]any{"p": 1}, JobRecord{ID: "j1", State: "queued"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AppendState("j1", JobRecord{ID: "j1", State: "running"}); err != nil {
		t.Fatal(err)
	}
	s.CloseJournal()
	path := filepath.Join(dir, journalFile)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"op":"state","id":"j1","state":{"id":"j1","st`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseJournal()
	rec, err := s2.State("j1")
	if err != nil || rec.State != "running" {
		t.Fatalf("state after torn tail = (%+v, %v)", rec, err)
	}
}

// TestJournalFrozenNoOps keeps Freeze's SIGKILL semantics: appends
// after a freeze change nothing, durable or in-memory.
func TestJournalFrozenNoOps(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.CloseJournal()
	if err := s.AppendSubmit("j1", map[string]any{}, JobRecord{ID: "j1", State: "running"}); err != nil {
		t.Fatal(err)
	}
	s.Freeze()
	if err := s.AppendState("j1", JobRecord{ID: "j1", State: "done"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove("j1"); err != nil {
		t.Fatal(err)
	}
	rec, err := s.State("j1")
	if err != nil || rec.State != "running" {
		t.Fatalf("state after frozen writes = (%+v, %v)", rec, err)
	}
}
