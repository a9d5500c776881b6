package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultfs"
)

// The boot path: OpenFS folds the journal (over a pre-journal data
// dir's sidecars) into the index, deletes job directories without a
// live record, compacts, and opens the log — or fails.

// loadTree copies the directory tree at src into m under root, every
// file and directory entry durable.
func loadTree(t *testing.T, m *faultfs.Mem, src, root string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dst := filepath.Join(root, rel)
		if err := m.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
			return err
		}
		f, err := m.OpenAppend(dst)
		if err != nil {
			return err
		}
		if _, err := f.Write(data); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		f.Close()
		return m.SyncDir(filepath.Dir(dst))
	})
	if err != nil {
		t.Fatal(err)
	}
}

// indexOf renders a store's index as comparable strings: id → the
// JSON of its spec and record.
func indexOf(t *testing.T, s *Store) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, id := range s.Jobs() {
		spec, err := s.Spec(id)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := s.State(id)
		if err != nil {
			t.Fatal(err)
		}
		state, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		out[id] = string(spec) + " " + string(state)
	}
	return out
}

// sidecars lists the pre-journal sidecar files present under root.
func sidecars(t *testing.T, m *faultfs.Mem, root string) []string {
	t.Helper()
	var out []string
	for _, name := range []string{legacySpecFile, legacyStateFile} {
		found, err := m.Glob(filepath.Join(root, "jobs", "*", name))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, found...)
	}
	return out
}

// TestLegacyDataDirUpgrades boots on data dirs the previous on-disk
// format wrote (testdata/parent-*: sidecars only, and sidecars plus a
// newer journal.wal, including a spec-only remnant and a Remove cut
// off after its tombstone): every job comes back with the state and
// steps that format recorded, the sidecars are gone, the checkpoint
// stays, and a second boot reads the same index from the journal
// alone.
func TestLegacyDataDirUpgrades(t *testing.T) {
	type want struct {
		state  string
		step   int
		paused bool
	}
	for _, tc := range []struct {
		fixture string
		jobs    map[string]want
	}{
		{"parent-sidecars", map[string]want{
			"job-0001": {"done", 64, false},
			"job-0002": {"running", 16, false},
			"job-0004": {"queued", 0, false},
		}},
		{"parent-journal", map[string]want{
			"job-0001": {"done", 64, false},
			"job-0002": {"paused", 40, true},
			"job-0005": {"queued", 0, false},
		}},
	} {
		t.Run(tc.fixture, func(t *testing.T) {
			m := faultfs.NewMem(1)
			loadTree(t, m, filepath.Join("testdata", tc.fixture), "data")
			for boot := 1; boot <= 2; boot++ {
				s, err := OpenFS(m, "data")
				if err != nil {
					t.Fatalf("boot %d: %v", boot, err)
				}
				s.CloseJournal()
				got := make(map[string]want)
				for _, id := range s.Jobs() {
					rec, _ := s.State(id)
					got[id] = want{rec.State, rec.Step, rec.Paused}
					if raw, err := s.Spec(id); err != nil || !strings.Contains(string(raw), `"pipe"`) {
						t.Errorf("boot %d: %s spec = (%s, %v)", boot, id, raw, err)
					}
				}
				if !reflect.DeepEqual(got, tc.jobs) {
					t.Fatalf("boot %d: jobs = %v, want %v", boot, got, tc.jobs)
				}
				if left := sidecars(t, m, "data"); len(left) != 0 {
					t.Fatalf("boot %d: sidecars survived: %v", boot, left)
				}
				for _, gone := range []string{"job-0003", "job-0004"} {
					if _, live := tc.jobs[gone]; live {
						continue
					}
					if dirs, _ := m.Glob(filepath.Join("data", "jobs", gone)); len(dirs) != 0 {
						t.Errorf("boot %d: directory of %s survived without a record", boot, gone)
					}
				}
				if step, err := s.VerifyCheckpoint("job-0001"); err != nil || step != 10 {
					t.Errorf("boot %d: checkpoint = (%d, %v), want step 10", boot, step, err)
				}
				m.PowerCycle()
			}
		})
	}
}

// TestJournalCorruptLineLoggedAtBoot: replay stops at the first bad
// line, and compaction makes the loss of everything after it permanent
// — so the boot says what it discarded, once, through the logger the
// daemon installs after the store is open.
func TestJournalCorruptLineLoggedAtBoot(t *testing.T) {
	var lines [][]byte
	for _, rec := range []journalRec{
		{Op: "submit", ID: "a", Spec: json.RawMessage(`{}`), State: &JobRecord{ID: "a", State: "queued"}},
		{Op: "state", ID: "a", State: &JobRecord{ID: "a", State: "running"}},
		{Op: "state", ID: "a", State: &JobRecord{ID: "a", State: "done"}},
	} {
		line, err := encodeJournalLine(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, line)
	}
	lines[1][5] ^= 0x20 // the middle line fails its CRC
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalFile), bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openDir(t, dir)
	var logged bytes.Buffer
	s.SetLogger(slog.New(slog.NewTextHandler(&logged, nil)))
	s.SetLogger(slog.New(slog.NewTextHandler(&logged, nil)))
	want := fmt.Sprintf("offset=%d bytes=%d", len(lines[0]), len(lines[1])+len(lines[2]))
	if n := strings.Count(logged.String(), "discarded a corrupt tail"); n != 1 || !strings.Contains(logged.String(), want) {
		t.Fatalf("boot log = %q, want one discard report with %q", logged.String(), want)
	}
	if rec, err := s.State("a"); err != nil || rec.State != "queued" {
		t.Fatalf("state = (%+v, %v), want the intact prefix's queued", rec, err)
	}
	s.CloseJournal()
	data, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if recs, intact := parseJournal(data); intact != len(data) || len(recs) != 1 {
		t.Fatalf("compacted journal kept %d records, %d of %d bytes intact", len(recs), intact, len(data))
	}
}

// failRead is an FS whose ReadFile fails for files named name.
type failRead struct {
	faultfs.FS
	name string
}

func (f failRead) ReadFile(path string) ([]byte, error) {
	if filepath.Base(path) == f.name {
		return nil, faultfs.ErrInjected
	}
	return f.FS.ReadFile(path)
}

// TestOpenFailsOnUnreadableJournal: a journal (or a sidecar to import)
// that cannot be read fails the open — it is never mistaken for an
// empty one — and the next open, with the fault gone, has every record.
func TestOpenFailsOnUnreadableJournal(t *testing.T) {
	m := faultfs.NewMem(1)
	loadTree(t, m, filepath.Join("testdata", "parent-journal"), "data")
	for _, name := range []string{journalFile, legacySpecFile, legacyStateFile} {
		if _, err := OpenFS(failRead{m, name}, "data"); !errors.Is(err, faultfs.ErrInjected) {
			t.Fatalf("open with %s unreadable: err = %v, want the read error", name, err)
		}
	}
	s, err := OpenFS(m, "data")
	if err != nil {
		t.Fatal(err)
	}
	s.CloseJournal()
	if ids := s.Jobs(); !reflect.DeepEqual(ids, []string{"job-0001", "job-0002", "job-0005"}) {
		t.Fatalf("jobs after the fault cleared = %v", ids)
	}
}

// TestCompactOnOpenFaultSweep injects a crash, a transient error and a
// full disk at every counted I/O op of OpenFS — journal compaction,
// remnant deletion and the legacy import included — on a native data
// dir and on a pre-journal one. After any fault:
//
//   - an error on any op other than a temp-file cleanup fails the open;
//   - a sidecar already deleted is held by the durable journal;
//   - a clean reopen after power loss holds exactly the index a
//     fault-free open builds, with no temp file and no sidecar left.
func TestCompactOnOpenFaultSweep(t *testing.T) {
	native := func(m *faultfs.Mem) {
		s, err := OpenFS(m, "data")
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range []string{"job-0001", "job-0002", "job-0003"} {
			if err := s.AppendSubmit(id, map[string]any{"preset": "pipe"}, JobRecord{ID: id, State: "queued"}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.PutCheckpoint("job-0002", []byte("ckpt")); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendState("job-0002", JobRecord{ID: "job-0002", State: "running", Step: 32}); err != nil {
			t.Fatal(err)
		}
		if err := s.Remove("job-0003"); err != nil {
			t.Fatal(err)
		}
		// A checkpoint landing after the Remove leaves a directory no
		// record claims.
		if err := s.PutCheckpoint("job-0003", []byte("late")); err != nil {
			t.Fatal(err)
		}
		if err := s.AppendStateNoWait("job-0001", JobRecord{ID: "job-0001", State: "done", Step: 64}); err != nil {
			t.Fatal(err)
		}
		s.CloseJournal()
	}
	legacy := func(m *faultfs.Mem) {
		loadTree(t, m, filepath.Join("testdata", "parent-journal"), "data")
	}
	for _, setup := range []struct {
		name string
		fn   func(*faultfs.Mem)
	}{{"native", native}, {"legacy", legacy}} {
		ref := faultfs.NewMem(1)
		setup.fn(ref)
		base := ref.Ops()
		s, err := OpenFS(ref, "data")
		if err != nil {
			t.Fatal(err)
		}
		s.CloseJournal()
		want, ops := indexOf(t, s), ref.Ops()-base
		t.Logf("%s: %d jobs, %d ops per open: %q", setup.name, len(want), ops, ref.OpLog()[base:])
		for _, kind := range []faultfs.FaultKind{faultfs.FaultCrash, faultfs.FaultErr, faultfs.FaultENOSPC} {
			for k := int64(1); k <= ops; k++ {
				name := fmt.Sprintf("%s/%s at +%d", setup.name, kind, k)
				m := faultfs.NewMem(1)
				setup.fn(m)
				before := sidecars(t, m, "data")
				m.Inject(faultfs.Fault{Op: m.Ops() + k, Kind: kind})
				s, err := OpenFS(m, "data")
				if err == nil {
					s.CloseJournal()
				}
				fired := m.Fired()
				if len(fired) != 1 {
					t.Fatalf("%s: faults fired = %q", name, fired)
				}
				if kind == faultfs.FaultErr && err == nil && !strings.Contains(fired[0], ".tmp-") {
					t.Fatalf("%s: open succeeded past %s", name, fired[0])
				}
				gone := map[string]bool{}
				for _, p := range before {
					if _, err := m.ReadFile(p); errors.Is(err, fs.ErrNotExist) {
						gone[filepath.Base(filepath.Dir(p))] = true
					}
				}
				m.SetFull(false)
				m.PowerCycle()
				durable := JournalSnapshot(m, "data")
				for id := range gone {
					if _, live := want[id]; live {
						if _, ok := durable[id]; !ok {
							t.Fatalf("%s: %s's sidecars were deleted before the journal holding it was durable", name, id)
						}
					}
				}
				s2, err := OpenFS(m, "data")
				if err != nil {
					t.Fatalf("%s: clean reopen: %v", name, err)
				}
				s2.CloseJournal()
				if got := indexOf(t, s2); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: reopened index\n%v\nwant\n%v", name, got, want)
				}
				if left := sidecars(t, m, "data"); len(left) != 0 {
					t.Fatalf("%s: sidecars survived a clean reopen: %v", name, left)
				}
				if tmp, _ := m.Glob(filepath.Join("data", journalFile+".tmp-*")); len(tmp) != 0 {
					t.Fatalf("%s: compaction temp survived a clean reopen: %v", name, tmp)
				}
			}
		}
	}
}
