package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSmoke drives the checker end to end on a scratch tree: a good
// link and anchor pass, a dead file and a dead anchor are each reported
// at file:line, and no arguments is a usage error.
func TestRunSmoke(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	write("other.md", "# A `code` heading\n")
	good := write("good.md", "see [other](other.md#a-code-heading)\n```\n[not a link](nowhere.md)\n```\n")
	var stdout bytes.Buffer
	if err := run([]string{good}, &stdout); err != nil {
		t.Fatalf("good.md: %v\n%s", err, stdout.String())
	}
	bad := write("bad.md", "\n[gone](gone.md)\n[lost](other.md#no-such)\n")
	stdout.Reset()
	if err := run([]string{dir}, &stdout); err == nil || !strings.Contains(err.Error(), "2 broken link(s)") {
		t.Errorf("a tree with two dead links: %v", err)
	}
	for _, want := range []string{bad + ":2: broken link", bad + ":3: broken anchor"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, stdout.String())
		}
	}
	if err := run(nil, &stdout); !errors.Is(err, errUsage) {
		t.Errorf("no arguments: %v, want the usage error", err)
	}
}

// TestSpecTable holds the real docs/API.md against service.JobSpec, and
// shows the check fails both ways: a field without a row, a row without
// a field.
func TestSpecTable(t *testing.T) {
	const api = "../../docs/API.md"
	var stdout bytes.Buffer
	if err := run([]string{"-spec", api}, &stdout); err != nil {
		t.Fatalf("%v\n%s", err, stdout.String())
	}
	raw, err := os.ReadFile(api)
	if err != nil {
		t.Fatal(err)
	}
	drifted := filepath.Join(t.TempDir(), "API.md")
	body := strings.Replace(string(raw), "| `snapshot_every` |", "| `snapshot_cadence` |", 1)
	if err := os.WriteFile(drifted, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if err := run([]string{"-spec", drifted}, &stdout); err == nil || !strings.Contains(err.Error(), "2 spec-table mismatch(es)") {
		t.Errorf("a renamed row: %v", err)
	}
	for _, want := range []string{`JobSpec.SnapshotEvery (json "snapshot_every") has no row`, `row "snapshot_cadence" names no JobSpec field`} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestFlagTables holds the README and OPERATIONS flag tables against
// the flags cmd/hemeserved declares, and shows the check fails each
// way: a flag without a row, a row without a flag, a flag with two rows.
func TestFlagTables(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	docs := "README.md,docs/OPERATIONS.md"
	var stdout bytes.Buffer
	if err := run([]string{"-flags", docs}, &stdout); err != nil {
		t.Fatalf("%v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), "17 cmd/hemeserved flags documented once") {
		t.Errorf("report:\n%s", stdout.String())
	}
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	drifted := filepath.Join(t.TempDir(), "README.md")
	body := strings.Replace(string(raw), "| `-grace` |", "| `-grace-period` |", 1)
	body = strings.Replace(body, "| `-queue` |", "| `-queue` |\n| `-watchdog-stall` | again |", 1)
	if err := os.WriteFile(drifted, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if err := run([]string{"-flags", drifted + ",docs/OPERATIONS.md"}, &stdout); err == nil || !strings.Contains(err.Error(), "3 flag-table mismatch(es)") {
		t.Errorf("a renamed and a repeated row: %v\n%s", err, stdout.String())
	}
	for _, want := range []string{"-grace (cmd/hemeserved) has no row", "row names -grace-period, which cmd/hemeserved does not declare", "-watchdog-stall (cmd/hemeserved) has 2 rows"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, stdout.String())
		}
	}
}

// TestMetricsDoc holds docs/OBSERVABILITY.md against the metrics the
// source exposes and the events a job records, and shows the check
// fails each way: a row naming a metric that is gone, an event without
// a row, a row naming no event.
func TestMetricsDoc(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	const doc = "docs/OBSERVABILITY.md"
	var stdout bytes.Buffer
	if err := run([]string{"-metrics", doc}, &stdout); err != nil {
		t.Fatalf("%v\n%s", err, stdout.String())
	}
	raw, err := os.ReadFile(doc)
	if err != nil {
		t.Fatal(err)
	}
	drifted := filepath.Join(t.TempDir(), "OBSERVABILITY.md")
	body := strings.Replace(string(raw), "| `hemeserved_jobs_gced_total` |",
		"| `hemeserved_jobs_requeued_total` | counter | gone |\n| `hemeserved_jobs_gced_total` |", 1)
	body = strings.Replace(body, "| `terminal` |", "| `finished` |", 1)
	if err := os.WriteFile(drifted, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	err = run([]string{"-metrics", drifted}, &stdout)
	if err == nil || !strings.Contains(err.Error(), "1 stale metric row(s), 2 event-table mismatch(es)") {
		t.Errorf("a stale metric row and a renamed event row: %v\n%s", err, stdout.String())
	}
	for _, want := range []string{`row names metric "hemeserved_jobs_requeued_total"`, `event "terminal" (obs) has no row`, `row "finished" names no event a job records`} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, stdout.String())
		}
	}
}
