package store

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/geometry"
	"repro/internal/lattice"
	"repro/internal/lb"
)

func open(t *testing.T) *Store {
	t.Helper()
	return openDir(t, t.TempDir())
}

// openDir opens a store on dir and closes its journal when the test
// ends.
func openDir(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.CloseJournal)
	return s
}

func TestSpecAndStateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	type spec struct {
		Preset string `json:"preset"`
		Steps  int    `json:"steps"`
	}
	rec := JobRecord{
		ID: "job-0001", State: "queued",
		CreatedAt: time.Now().UTC().Truncate(time.Second),
	}
	if err := s.AppendSubmit("job-0001", spec{"pipe", 500}, rec); err != nil {
		t.Fatal(err)
	}
	rec.State, rec.Restarts = "running", 2
	if err := s.AppendState("job-0001", rec); err != nil {
		t.Fatal(err)
	}
	s.CloseJournal()
	for i, st := range []*Store{s, openDir(t, dir)} {
		raw, err := st.Spec("job-0001")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(raw), `"pipe"`) {
			t.Errorf("open %d: spec payload = %s", i, raw)
		}
		got, err := st.State("job-0001")
		if err != nil {
			t.Fatal(err)
		}
		if got.State != "running" || got.Restarts != 2 || !got.CreatedAt.Equal(rec.CreatedAt) {
			t.Errorf("open %d: state round trip = %+v", i, got)
		}
		if ids := st.Jobs(); len(ids) != 1 || ids[0] != "job-0001" {
			t.Errorf("open %d: Jobs() = %v", i, ids)
		}
	}
}

// writeSidecar writes one pre-journal sidecar file: the payload, then a
// CRC64-ECMA trailer line.
func writeSidecar(t *testing.T, path, payload string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	data := fmt.Sprintf("%s%s%016x\n", payload, legacyCRCSep, crc64.Checksum([]byte(payload), crcTable))
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestJSONCorruptionDetected: a sidecar of a pre-journal data dir whose
// payload no longer matches its CRC trailer — or that has no trailer —
// fails the open instead of being imported (or silently dropped with
// its job). Once the file is repaired the import succeeds.
func TestJSONCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	jobDir := filepath.Join(dir, "jobs", "j")
	writeSidecar(t, filepath.Join(jobDir, legacySpecFile), `{"preset":"pipe"}`)
	state := filepath.Join(jobDir, legacyStateFile)
	writeSidecar(t, state, `{"id":"j","state":"queued"}`)
	good, err := os.ReadFile(state)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte: the CRC trailer must catch it.
	bad := append([]byte(nil), good...)
	bad[2] ^= 0xff
	if err := os.WriteFile(state, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("corrupt state.json accepted")
	}
	// Strip the trailer entirely: also rejected.
	if err := os.WriteFile(state, good[:bytes.LastIndex(good, []byte(legacyCRCSep))], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("trailer-less state.json accepted")
	}
	if err := os.WriteFile(state, good, 0o644); err != nil {
		t.Fatal(err)
	}
	s := openDir(t, dir)
	if rec, err := s.State("j"); err != nil || rec.State != "queued" {
		t.Fatalf("repaired sidecar import = (%+v, %v)", rec, err)
	}
}

func checkpointBytes(t *testing.T) []byte {
	t.Helper()
	v := geometry.Pipe(12, 3)
	dom, err := geometry.Voxelise(v, 1.0, lattice.D3Q19())
	if err != nil {
		t.Fatal(err)
	}
	solver, err := lb.New(dom, lb.Params{Tau: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	solver.Advance(17)
	st := &lb.CheckpointState{
		Info:     lb.CheckpointInfo{Step: solver.StepCount(), Sites: solver.NumSites(), Q: dom.Model.Q, Iolets: len(dom.Iolets)},
		IoletRho: make([]float64, len(dom.Iolets)),
		F:        solver.F(),
	}
	for i := range st.IoletRho {
		st.IoletRho[i] = solver.IoletDensity(i)
	}
	var buf bytes.Buffer
	if err := st.EncodeTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCheckpointRoundTripAndCorruption(t *testing.T) {
	s := open(t)
	data := checkpointBytes(t)
	if err := s.PutCheckpoint("j", data); err != nil {
		t.Fatal(err)
	}
	got, step, err := s.Checkpoint("j")
	if err != nil {
		t.Fatal(err)
	}
	if step != 17 || !bytes.Equal(got, data) {
		t.Fatalf("checkpoint round trip: step=%d, equal=%v", step, bytes.Equal(got, data))
	}
	// Corrupt the file on disk: load must fail, not return bad state.
	path := filepath.Join(s.Root(), "jobs", "j", "checkpoint.bin")
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Checkpoint("j"); err == nil {
		t.Error("corrupt checkpoint accepted")
	}
	if _, _, err := s.Checkpoint("missing"); err == nil {
		t.Error("missing checkpoint accepted")
	}
}

func TestFreezeDropsWrites(t *testing.T) {
	s := open(t)
	if err := s.AppendSubmit("j", map[string]any{}, JobRecord{ID: "j", State: "running"}); err != nil {
		t.Fatal(err)
	}
	s.Freeze()
	if err := s.AppendState("j", JobRecord{ID: "j", State: "cancelled"}); err != nil {
		t.Fatal(err)
	}
	rec, err := s.State("j")
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != "running" {
		t.Errorf("frozen store mutated state to %q", rec.State)
	}
}

func TestOpenSweepsOrphanTempFiles(t *testing.T) {
	dir := t.TempDir()
	s := openDir(t, dir)
	if err := s.AppendSubmit("j", map[string]any{}, JobRecord{ID: "j", State: "running"}); err != nil {
		t.Fatal(err)
	}
	s.CloseJournal()
	// Fake a crash mid-write: an orphaned checkpoint temp next to real
	// data, and a compaction temp next to the journal.
	orphans := []string{
		filepath.Join(dir, "jobs", "j", "checkpoint.bin.tmp-123"),
		filepath.Join(dir, journalFile+".tmp-7"),
	}
	if err := os.MkdirAll(filepath.Join(dir, "jobs", "j"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, orphan := range orphans {
		if err := os.WriteFile(orphan, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2 := openDir(t, dir)
	for _, orphan := range orphans {
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Errorf("orphan temp file %s survived reopen", orphan)
		}
	}
	if _, err := s2.State("j"); err != nil {
		t.Errorf("sweep damaged real data: %v", err)
	}
}

func TestAtomicWriteLeavesNoTempFiles(t *testing.T) {
	s := open(t)
	for i := 0; i < 5; i++ {
		if err := s.PutCheckpoint("j", []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(s.Root(), "jobs", "j"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("leftover temp file %s", e.Name())
		}
	}
}
