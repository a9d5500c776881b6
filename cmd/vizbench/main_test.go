package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke drives the whole binary at tiny sizes: Table I with its
// four techniques and the Fig. 3 stage table, labelled as modelled.
func TestRunSmoke(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-ranks", "2", "-w", "16", "-h", "12", "-steps", "8", "-seeds", "2", "-trace", "4"}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"kind: modelled", "Table I",
		"volume-rendering", "line-integrals", "particle-tracing", "lic",
		"Fig. 3", "extract", "streamlines",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestRunRejectsUnknownFlag(t *testing.T) {
	err := run([]string{"-compare"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Errorf("run(-compare) = %v, want a usage error", err)
	}
}
