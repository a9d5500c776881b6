package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRunSmoke drives the whole binary at tiny sizes: the -json report
// must parse, be tagged as modelled, carry every paper section and
// none of the wall-clock sections bench/ superseded.
func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-ranks", "1,2", "-steps", "2", "-scale", "0.8", "-json", "-"}, &out); err != nil {
		t.Fatal(err)
	}
	// The tables come first on the same stream; the report is the
	// trailing top-level JSON object.
	i := bytes.Index(out.Bytes(), []byte("\n{\n"))
	if i < 0 {
		t.Fatalf("no JSON report in output:\n%s", out.String())
	}
	var report map[string]json.RawMessage
	if err := json.Unmarshal(out.Bytes()[i:], &report); err != nil {
		t.Fatalf("report does not parse: %v", err)
	}
	if got := string(report["kind"]); got != `"modelled"` {
		t.Errorf("kind = %s, want \"modelled\"", got)
	}
	if len(report["host_timed"]) == 0 {
		t.Error("host-timed columns are not labelled")
	}
	for _, section := range []string{"strong", "weak", "gmy_read", "partitioners", "repartition", "multires"} {
		var rows []map[string]any
		if err := json.Unmarshal(report[section], &rows); err != nil || len(rows) == 0 {
			t.Errorf("section %q: %d rows, err %v", section, len(rows), err)
		}
	}
	for _, gone := range []string{"jobs", "ckpt", "submit", "stream", "threads"} {
		if _, ok := report[gone]; ok {
			t.Errorf("report still has wall-clock section %q", gone)
		}
	}
}

// TestRunRejectsDeletedFlags: the flags of the retired wall-clock
// sections are usage errors now, not silently ignored.
func TestRunRejectsDeletedFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-compare", "a.json", "b.json"},
		{"-chaos"},
		{"-jobs=false"},
	} {
		err := run(args, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%q) = %v, want a usage error", args, err)
		}
	}
	if err := run([]string{"-ranks", "1,x"}, &bytes.Buffer{}); err == nil {
		t.Error("bad rank list accepted")
	}
}
