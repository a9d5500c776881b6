package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
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

// gatedFS holds every journal fsync until the journal has taken gate
// writes, so concurrent waiters line up behind one fsync in flight
// without a timing window.
type gatedFS struct {
	*faultfs.Mem
	writes, gate atomic.Int64
}

func (g *gatedFS) OpenAppend(name string) (faultfs.File, error) {
	f, err := g.Mem.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return gatedFile{File: f, fs: g}, nil
}

type gatedFile struct {
	faultfs.File
	fs *gatedFS
}

func (f gatedFile) Write(p []byte) (int, error) {
	defer f.fs.writes.Add(1)
	return f.File.Write(p)
}

func (f gatedFile) Sync() error {
	deadline := time.Now().Add(10 * time.Second)
	for f.fs.writes.Load() < f.fs.gate.Load() && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	return f.File.Sync()
}

// TestJournalGroupCommit drives 16 concurrent waited appends while the
// first fsync is held: the waiters queued behind it must share the
// next one, the observer must count every record once, and every
// record must be durable.
func TestJournalGroupCommit(t *testing.T) {
	m := &gatedFS{Mem: faultfs.NewMem(1)}
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
	const N = 16
	m.gate.Store(m.writes.Load() + N)
	syncsBefore := countOps(m.Mem, "sync data/journal.wal")
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
	// The held fsync covers the records written before it started; the
	// next one covers the rest.
	if syncs := countOps(m.Mem, "sync data/journal.wal") - syncsBefore; syncs > 2 {
		t.Fatalf("%d waited records took %d fsyncs, want at most 2", N, syncs)
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
	s2, err := OpenFS(m.Mem, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseJournal()
	if rec, err := s2.State("j"); err != nil || rec.State != "running" {
		t.Fatalf("state after crash = (%+v, %v)", rec, err)
	}
}

// TestFailedAppendKeepsLaterAcks pins the torn-line hazard: an append
// whose write fails must not enter the index, and the append
// acknowledged after it must survive a reboot instead of sitting behind
// the failed one's partial line, where replay stops.
func TestFailedAppendKeepsLaterAcks(t *testing.T) {
	for _, kind := range []faultfs.FaultKind{faultfs.FaultShortWrite, faultfs.FaultErr} {
		t.Run(kind.String(), func(t *testing.T) {
			s, m := openMem(t, 5)
			submit := func(id string) error {
				return s.AppendSubmit(id, map[string]any{"preset": "pipe"}, JobRecord{ID: id, State: "queued"})
			}
			if err := submit("job-0001"); err != nil {
				t.Fatal(err)
			}
			m.Inject(faultfs.Fault{Op: m.Ops() + 1, Kind: kind})
			if err := submit("job-0002"); !errors.Is(err, faultfs.ErrInjected) {
				t.Fatalf("append with a faulted write: %v, want ErrInjected", err)
			}
			if ids := s.Jobs(); !slices.Equal(ids, []string{"job-0001"}) {
				t.Fatalf("index after the failed append lists %v", ids)
			}
			if err := submit("job-0003"); err != nil {
				t.Fatal(err)
			}
			s.CloseJournal()
			m.PowerCycle()
			s2, err := OpenFS(m, "data")
			if err != nil {
				t.Fatal(err)
			}
			defer s2.CloseJournal()
			if ids := s2.Jobs(); !slices.Equal(ids, []string{"job-0001", "job-0003"}) {
				t.Fatalf("jobs after reboot = %v, want job-0001 and job-0003", ids)
			}
		})
	}
}

// TestJournalConcurrentFaults appends from 8 goroutines while writes
// and fsyncs fail now and then, so rewrites of the broken log race the
// fsyncs of other callers (run it with -race). Each id's last waited
// record acknowledged with nil must survive a reboot.
func TestJournalConcurrentFaults(t *testing.T) {
	s, m := openMem(t, 7)
	const G = 8
	for g := 0; g < G; g++ {
		id := fmt.Sprintf("j%d", g)
		if err := s.AppendSubmit(id, map[string]any{}, JobRecord{ID: id, Step: -1}); err != nil {
			t.Fatal(err)
		}
	}
	// A short write on a non-write op (fsync, rename, ...) is an error.
	for op := m.Ops() + 5; op < m.Ops()+400; op += 23 {
		m.Inject(faultfs.Fault{Op: op, Kind: faultfs.FaultShortWrite})
	}
	acked := make([]int, G)
	var wg sync.WaitGroup
	for g := 0; g < G; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			id := fmt.Sprintf("j%d", g)
			acked[g] = -1
			for i := 0; i < 30; i++ {
				rec := JobRecord{ID: id, Step: i}
				if i%3 == 0 {
					s.AppendStateNoWait(id, rec)
				} else if s.AppendState(id, rec) == nil {
					acked[g] = i
				}
			}
		}(g)
	}
	wg.Wait()
	if len(m.Fired()) == 0 {
		t.Fatal("no fault fired")
	}
	s.CloseJournal()
	m.PowerCycle()
	s2, err := OpenFS(m, "data")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.CloseJournal()
	for g := 0; g < G; g++ {
		id := fmt.Sprintf("j%d", g)
		if rec, err := s2.State(id); err != nil || rec.Step < acked[g] {
			t.Fatalf("%s recovered as (%+v, %v); step %d was acknowledged", id, rec, err, acked[g])
		}
	}
}

// BenchmarkJournalSubmit times AppendSubmit from 1, 2 and 8 concurrent
// submitters on a real directory and reports the journal fsyncs per
// submit: below 1 when concurrent waiters share an fsync.
func BenchmarkJournalSubmit(b *testing.B) {
	for _, n := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("submitters=%d", n), func(b *testing.B) {
			s, err := Open(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			defer s.CloseJournal()
			var fsyncs, next atomic.Int64
			s.SetGroupCommitObserver(func(int) { fsyncs.Add(1) })
			var wg sync.WaitGroup
			b.ResetTimer()
			for w := 0; w < n; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1); i <= int64(b.N); i = next.Add(1) {
						id := fmt.Sprintf("job-%07d", i)
						if err := s.AppendSubmit(id, map[string]any{"preset": "pipe"}, JobRecord{ID: id, State: "queued"}); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(fsyncs.Load())/float64(b.N), "fsyncs/op")
		})
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
