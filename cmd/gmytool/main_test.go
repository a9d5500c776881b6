package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gmy"
)

// TestRunSmoke boots the tool end to end: gen voxelises a bifurcation
// and writes it, info reads the header back, a full read reassembles
// the domain — all three agree on the number of fluid sites — and
// ascii draws a slice with every site class of that geometry on it.
func TestRunSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bif.gmy")
	var stdout bytes.Buffer
	if err := run([]string{"gen", "-vessel", "bifurcation", "-out", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	var sites int
	if _, err := fmt.Sscanf(strings.TrimPrefix(stdout.String(), out+": "), "%d fluid sites", &sites); err != nil || sites == 0 {
		t.Fatalf("gen printed %q (%v)", stdout.String(), err)
	}

	stdout.Reset()
	if err := run([]string{"info", "-in", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("fluid sites: %d\n", sites); !strings.Contains(stdout.String(), want) {
		t.Errorf("info output lacks %q:\n%s", want, stdout.String())
	}

	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dom, err := gmy.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if dom.NumSites() != sites {
		t.Errorf("read back %d sites, gen voxelised %d", dom.NumSites(), sites)
	}

	stdout.Reset()
	if err := run([]string{"ascii", "-vessel", "bifurcation", "-slice", "5"}, &stdout); err != nil {
		t.Fatal(err)
	}
	for _, ch := range ".o#" {
		if !strings.ContainsRune(stdout.String(), ch) {
			t.Errorf("ascii slice has no %q site:\n%s", ch, stdout.String())
		}
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{nil, {"frobnicate"}, {"gen", "-vessel", "teapot"}, {"info", "-in", "/nonexistent.gmy"}, {"ascii", "-axis", "w"}} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
	}
}
