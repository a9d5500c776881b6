package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/faultfs"
)

// canonical renders an index as id → spec and record in the form the
// writer produces (json.Marshal compacts and escapes a raw spec), so
// an index and its compacted-and-replayed copy compare equal.
func canonical(t *testing.T, ix index) map[string]string {
	t.Helper()
	out := make(map[string]string, len(ix))
	for id, e := range ix {
		spec, err := json.Marshal(e.spec)
		if err != nil {
			t.Fatalf("%s: spec %q does not re-marshal: %v", id, e.spec, err)
		}
		state, err := json.Marshal(e.state)
		if err != nil {
			t.Fatalf("%s: record does not re-marshal: %v", id, err)
		}
		out[id] = string(spec) + " " + string(state)
	}
	return out
}

func fold(recs []journalRec) index {
	ix := index{}
	for _, rec := range recs {
		ix.apply(rec)
	}
	return ix
}

// FuzzJournalReplay holds boot replay to its contract for any bytes in
// journal.wal:
//
//   - parse + fold never panics;
//   - the intact prefix is the longest one: its last line ends it, and
//     the line after it does not parse;
//   - OpenFS's index equals the fold over that prefix;
//   - compacting the index and replaying it gives the same index.
//
// Random bytes rarely carry a matching CRC, so each input is also
// checked with every line given a valid trailer: mutated JSON then
// reaches the fold, not only the CRC check.
func FuzzJournalReplay(f *testing.F) {
	var good []byte
	for _, rec := range []journalRec{
		{Op: "submit", ID: "job-0001", Spec: json.RawMessage(`{"preset":"pipe"}`), State: &JobRecord{ID: "job-0001", State: "queued"}},
		{Op: "state", ID: "job-0001", State: &JobRecord{ID: "job-0001", State: "running", Step: 32, Steer: &SteerRecord{Iolets: []IoletOver{{0, 1.02}}}}},
		{Op: "submit", ID: "job-0002", Spec: json.RawMessage(`{ "steps" : 8 }`), State: &JobRecord{ID: "job-0002", State: "queued"}},
		{Op: "remove", ID: "job-0002"},
		{Op: "state", ID: "job-0002", State: &JobRecord{ID: "job-0002", State: "done"}},
	} {
		line, err := encodeJournalLine(rec)
		if err != nil {
			f.Fatal(err)
		}
		good = append(good, line...)
	}
	f.Add(good)
	f.Add(good[:len(good)-7])
	f.Add(append(bytes.Clone(good), "garbage\n"...))
	if legacy, err := os.ReadFile(filepath.Join("testdata", "parent-journal", journalFile)); err == nil {
		f.Add(legacy)
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkReplay(t, data)
		var signed []byte
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			payload := bytes.TrimSuffix(line, []byte("\n"))
			signed = fmt.Appendf(signed, "%s%s%016x\n", payload, journalCRCSep, crc64.Checksum(payload, crcTable))
		}
		checkReplay(t, signed)
	})
}

func checkReplay(t *testing.T, data []byte) {
	t.Helper()
	recs, intact := parseJournal(data)
	if intact < 0 || intact > len(data) || (intact > 0 && data[intact-1] != '\n') {
		t.Fatalf("intact prefix %d of %d bytes does not end a line", intact, len(data))
	}
	if more, _ := parseJournal(data[intact:]); len(more) != 0 {
		t.Fatalf("replay stopped at byte %d before an intact line", intact)
	}
	if again, n := parseJournal(data[:intact]); n != intact || len(again) != len(recs) {
		t.Fatalf("the intact prefix reparses to %d records / %d bytes, want %d / %d", len(again), n, len(recs), intact)
	}
	ix := fold(recs)
	want := canonical(t, ix)

	m := faultfs.NewMem(1)
	if err := m.MkdirAll("data", 0o755); err != nil {
		t.Fatal(err)
	}
	jf, err := m.OpenAppend(filepath.Join("data", journalFile))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Write(data); err != nil {
		t.Fatal(err)
	}
	jf.Close()
	s, err := OpenFS(m, "data")
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	s.CloseJournal()
	if got := canonical(t, s.index); !reflect.DeepEqual(got, want) {
		t.Fatalf("OpenFS index\n%v\nwant the fold of the intact prefix\n%v", got, want)
	}

	compacted, err := ix.encode()
	if err != nil {
		t.Fatal(err)
	}
	replayed, n := parseJournal(compacted)
	if n != len(compacted) {
		t.Fatalf("compacted journal: only %d of %d bytes intact", n, len(compacted))
	}
	if got := canonical(t, fold(replayed)); !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted and replayed index\n%v\nwant\n%v", got, want)
	}
}
