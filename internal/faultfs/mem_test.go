package faultfs

import (
	"bytes"
	"errors"
	"io/fs"
	"testing"
)

// writeFile creates path's file via CreateTemp+Rename-free direct calls:
// the tests below mostly exercise primitives directly, so this helper
// creates a temp in dir and renames it to name, optionally syncing.
func writeFile(t *testing.T, m *Mem, dir, name string, data []byte, syncFile, syncDir bool) {
	t.Helper()
	f, err := m.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		t.Fatalf("CreateTemp: %v", err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if syncFile {
		if err := f.Sync(); err != nil {
			t.Fatalf("Sync: %v", err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := m.Rename(f.Name(), dir+"/"+name); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if syncDir {
		if err := m.SyncDir(dir); err != nil {
			t.Fatalf("SyncDir: %v", err)
		}
	}
}

func TestMemDurabilityMatrix(t *testing.T) {
	// Each case writes one file with a combination of file-sync and
	// dir-sync, power-cycles, and checks what survived.
	cases := []struct {
		name               string
		syncFile, syncDir  bool
		wantEntry          bool // file name still present after crash
		wantExactOrMissing bool // if present, contents must be exact
	}{
		{"synced-file-synced-dir", true, true, true, true},
		// Entry not durable: the rename is forgotten, file vanishes.
		{"synced-file-unsynced-dir", true, false, false, false},
		// Entry durable but data never fsynced: survives torn.
		{"unsynced-file-synced-dir", false, true, true, false},
		{"unsynced-file-unsynced-dir", false, false, false, false},
	}
	payload := []byte("hello, crash-consistency world")
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMem(1)
			if err := m.MkdirAll("d", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := m.SyncDir("."); err != nil {
				t.Fatal(err)
			}
			if err := m.SyncDir("d"); err != nil {
				t.Fatal(err)
			}
			writeFile(t, m, "d", "f", payload, tc.syncFile, tc.syncDir)
			m.PowerCycle()
			got, err := m.ReadFile("d/f")
			if !tc.wantEntry {
				if !errors.Is(err, fs.ErrNotExist) {
					t.Fatalf("after crash: got (%q, %v), want ErrNotExist", got, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("after crash: %v", err)
			}
			if tc.syncFile {
				if !bytes.Equal(got, payload) {
					t.Fatalf("synced file changed across crash: %q", got)
				}
			} else {
				// Torn: must be a strict prefix-or-all of the write.
				if !bytes.HasPrefix(payload, got) {
					t.Fatalf("torn file %q is not a prefix of %q", got, payload)
				}
			}
		})
	}
}

func TestMemRenameRollsBackWithoutDirSync(t *testing.T) {
	// Write v1 durably, then replace with v2 but skip the dir sync:
	// after a crash the entry must roll back to v1 (rename forgotten),
	// exactly the trade PutCheckpoint makes.
	m := NewMem(2)
	if err := m.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, m, "d", "f", []byte("v1"), true, true)
	writeFile(t, m, "d", "f", []byte("v2-much-longer"), true, false)
	if got, _ := m.ReadFile("d/f"); string(got) != "v2-much-longer" {
		t.Fatalf("pre-crash read: %q", got)
	}
	m.PowerCycle()
	got, err := m.ReadFile("d/f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v1" {
		t.Fatalf("after crash without dir sync: got %q, want rollback to v1", got)
	}
}

func TestMemRemoveNotDurableUntilDirSync(t *testing.T) {
	m := NewMem(3)
	if err := m.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	writeFile(t, m, "d", "f", []byte("keep"), true, true)
	if err := m.Remove("d/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.ReadFile("d/f"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("pre-crash: want ErrNotExist, got %v", err)
	}
	m.PowerCycle()
	// The removal was never synced: the file resurrects.
	if got, err := m.ReadFile("d/f"); err != nil || string(got) != "keep" {
		t.Fatalf("after crash: got (%q, %v), want resurrected file", got, err)
	}
}

func TestMemFaultErrAtExactOp(t *testing.T) {
	m := NewMem(4)
	if err := m.MkdirAll("d", 0o755); err != nil { // op 1
		t.Fatal(err)
	}
	m.Inject(Fault{Op: 3, Kind: FaultErr})
	f, err := m.CreateTemp("d", "x.tmp-*") // op 2
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("boom")); !errors.Is(err, ErrInjected) { // op 3
		t.Fatalf("op 3 write: got %v, want ErrInjected", err)
	}
	// Later ops work again; the fault was one-shot.
	if _, err := f.Write([]byte("ok")); err != nil { // op 4
		t.Fatal(err)
	}
	if got := m.Ops(); got != 4 {
		t.Fatalf("Ops() = %d, want 4", got)
	}
	log := m.OpLog()
	if len(log) != 4 || log[2] != "write d/x.tmp-1 len=4" {
		t.Fatalf("OpLog = %q", log)
	}
	if fired := m.Fired(); len(fired) != 1 {
		t.Fatalf("Fired = %q", fired)
	}
}

func TestMemShortWrite(t *testing.T) {
	m := NewMem(5)
	if err := m.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := m.CreateTemp("d", "x.tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	m.Inject(Fault{Op: m.Ops() + 1, Kind: FaultShortWrite})
	payload := []byte("0123456789")
	n, err := f.Write(payload)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("short write: err %v, want ErrInjected", err)
	}
	if n < 0 || n > len(payload) {
		t.Fatalf("short write length %d out of range", n)
	}
	got, err := m.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload[:n]) {
		t.Fatalf("persisted %q, want prefix %q", got, payload[:n])
	}
}

func TestMemTornWriteSilentlyCorrupts(t *testing.T) {
	m := NewMem(6)
	if err := m.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := m.CreateTemp("d", "x.tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	m.Inject(Fault{Op: m.Ops() + 1, Kind: FaultTornWrite})
	payload := []byte("0123456789")
	n, err := f.Write(payload)
	if err != nil || n != len(payload) {
		t.Fatalf("torn write must report success, got (%d, %v)", n, err)
	}
	got, _ := m.ReadFile(f.Name())
	if len(got) != len(payload) {
		t.Fatalf("torn write changed length: %d", len(got))
	}
	diff := 0
	for i := range got {
		if got[i] != payload[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("torn write flipped %d bytes, want exactly 1 (%q)", diff, got)
	}
}

func TestMemCrashFaultKillsEverythingUntilPowerCycle(t *testing.T) {
	m := NewMem(7)
	if err := m.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	writeFile(t, m, "d", "f", []byte("durable"), true, true)
	m.Inject(Fault{Op: m.Ops() + 1, Kind: FaultCrash})
	if err := m.MkdirAll("e", 0o755); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash op: %v", err)
	}
	if !m.Crashed() {
		t.Fatal("Crashed() = false after crash fault")
	}
	// Every op fails the same way; reads too.
	if err := m.Remove("d/f"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash remove: %v", err)
	}
	if _, err := m.ReadFile("d/f"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: %v", err)
	}
	m.PowerCycle()
	if m.Crashed() {
		t.Fatal("Crashed() = true after PowerCycle")
	}
	if got, err := m.ReadFile("d/f"); err != nil || string(got) != "durable" {
		t.Fatalf("durable file lost across crash: (%q, %v)", got, err)
	}
	if _, err := m.ReadFile("e"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("crashed-op mkdir leaked an entry: %v", err)
	}
}

func TestMemDeterministicAcrossRuns(t *testing.T) {
	// Same seed + same op sequence => identical oplog and identical
	// post-crash contents; this is what "reproduces from seed + op
	// index alone" rests on.
	run := func() ([]string, []byte) {
		m := NewMem(42)
		if err := m.MkdirAll("d", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := m.SyncDir("."); err != nil {
			t.Fatal(err)
		}
		if err := m.SyncDir("d"); err != nil {
			t.Fatal(err)
		}
		writeFile(t, m, "d", "f", bytes.Repeat([]byte("abcdefg"), 10), false, true)
		m.PowerCycle()
		got, err := m.ReadFile("d/f")
		if err != nil {
			t.Fatal(err)
		}
		return m.OpLog(), got
	}
	log1, got1 := run()
	log2, got2 := run()
	if len(log1) != len(log2) {
		t.Fatalf("oplog lengths differ: %d vs %d", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("oplog[%d]: %q vs %q", i, log1[i], log2[i])
		}
	}
	if !bytes.Equal(got1, got2) {
		t.Fatalf("torn prefixes differ across identical runs: %q vs %q", got1, got2)
	}
}

func TestMemGlobAndReadDir(t *testing.T) {
	m := NewMem(8)
	for _, d := range []string{"jobs/a", "jobs/b"} {
		if err := m.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(t, m, "jobs/a", "checkpoint.bin", []byte("{}"), true, true)
	writeFile(t, m, "jobs/b", "checkpoint.d0001.bin", []byte("{}"), true, true)
	// Leave an orphan temp in jobs/b.
	if _, err := m.CreateTemp("jobs/b", "checkpoint.bin.tmp-*"); err != nil {
		t.Fatal(err)
	}
	got, err := m.Glob("jobs/*/*.tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "jobs/b/checkpoint.bin.tmp-3" {
		t.Fatalf("Glob = %q", got)
	}
	if got, err := m.Glob("jobs/zzz/*.tmp-*"); err != nil || len(got) != 0 {
		t.Fatalf("no-match Glob = (%q, %v), want empty", got, err)
	}
	entries, err := m.ReadDir("jobs")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Name() != "a" || !entries[0].IsDir() || entries[1].Name() != "b" {
		t.Fatalf("ReadDir = %v", entries)
	}
}

func TestMemCrashNowAndFaultKindRoundTrip(t *testing.T) {
	m := NewMem(9)
	m.CrashNow()
	if err := m.MkdirAll("d", 0o755); !errors.Is(err, ErrCrashed) {
		t.Fatalf("after CrashNow: %v", err)
	}
	m.PowerCycle()
	if err := m.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	for _, k := range []FaultKind{FaultNone, FaultErr, FaultShortWrite, FaultTornWrite, FaultCrash} {
		got, err := ParseFaultKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseFaultKind(%q) = (%v, %v)", k.String(), got, err)
		}
	}
	if _, err := ParseFaultKind("bogus"); err == nil {
		t.Fatal("ParseFaultKind accepted garbage")
	}
}

// TestOSSmoke runs the production FS through the same motions the
// store uses, against a real temp dir.
func TestOSSmoke(t *testing.T) {
	root := t.TempDir()
	var fsys FS = OS{}
	if err := fsys.MkdirAll(root+"/jobs/x", 0o755); err != nil {
		t.Fatal(err)
	}
	f, err := fsys.CreateTemp(root+"/jobs/x", "checkpoint.bin.tmp-*")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fsys.Rename(f.Name(), root+"/jobs/x/checkpoint.bin"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.SyncDir(root + "/jobs/x"); err != nil {
		t.Fatal(err)
	}
	got, err := fsys.ReadFile(root + "/jobs/x/checkpoint.bin")
	if err != nil || string(got) != "data" {
		t.Fatalf("ReadFile = (%q, %v)", got, err)
	}
	matches, err := fsys.Glob(root + "/jobs/*/checkpoint.bin")
	if err != nil || len(matches) != 1 {
		t.Fatalf("Glob = (%v, %v)", matches, err)
	}
	entries, err := fsys.ReadDir(root + "/jobs")
	if err != nil || len(entries) != 1 || entries[0].Name() != "x" {
		t.Fatalf("ReadDir = (%v, %v)", entries, err)
	}
	if err := fsys.Remove(root + "/jobs/x/checkpoint.bin"); err != nil {
		t.Fatal(err)
	}
	if err := fsys.RemoveAll(root + "/jobs/x"); err != nil {
		t.Fatal(err)
	}
}

// TestMemOpenAppendJournalSemantics pins the write-ahead-log contract
// OpenAppend exists for: records synced before a crash survive exactly;
// a tail appended after the last Sync is lost or torn, never
// reordered; and reopening resumes at the durable tail.
func TestMemOpenAppendJournalSemantics(t *testing.T) {
	m := NewMem(3)
	if err := m.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	f, err := m.OpenAppend("wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("rec1\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("rec2\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := m.SyncDir("."); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("rec3\n")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	m.PowerCycle()
	got, err := m.ReadFile("wal")
	if err != nil {
		t.Fatalf("after crash: %v", err)
	}
	if !bytes.Equal(got, []byte("rec1\nrec2\n")) {
		t.Fatalf("after crash: %q, want the synced prefix", got)
	}
	// Reopen resumes at the durable tail; a second crash without Sync
	// rolls back to it.
	f, err = m.OpenAppend("wal")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("rec4\n")); err != nil {
		t.Fatal(err)
	}
	m.PowerCycle()
	got, err = m.ReadFile("wal")
	if err != nil || !bytes.Equal(got, []byte("rec1\nrec2\n")) {
		t.Fatalf("after second crash: (%q, %v), want the synced prefix", got, err)
	}
	// A file created by OpenAppend but never synced (entry in an
	// unsynced directory) vanishes entirely.
	if err := m.MkdirAll("d", 0o755); err != nil {
		t.Fatal(err)
	}
	g, err := m.OpenAppend("d/wal2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	m.PowerCycle()
	if _, err := m.ReadFile("d/wal2"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("never-synced journal survived the crash: %v", err)
	}
}

// TestMemOpenAppendCountsAsOp keeps the chaos op accounting honest:
// OpenAppend is a counted operation that faults can target.
func TestMemOpenAppendCountsAsOp(t *testing.T) {
	m := NewMem(1)
	if err := m.SyncDir("."); err != nil { // op 1
		t.Fatal(err)
	}
	m.Inject(Fault{Op: 2, Kind: FaultErr})
	if _, err := m.OpenAppend("wal"); !errors.Is(err, ErrInjected) {
		t.Fatalf("OpenAppend under FaultErr: %v", err)
	}
	if _, err := m.OpenAppend("wal"); err != nil {
		t.Fatalf("OpenAppend after fault consumed: %v", err)
	}
}
