package main

import (
	"bytes"
	"errors"
	"net"
	"testing"
)

// TestRunSmoke: no subcommand is a usage error, and a subcommand
// against a port nobody listens on fails at the dial, printing nothing.
func TestRunSmoke(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(nil, &stdout); !errors.Is(err, errUsage) {
		t.Errorf("run without a subcommand: %v, want the usage error", err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	closed := ln.Addr().String()
	ln.Close()
	err = run([]string{"-addr", closed, "status"}, &stdout)
	var opErr *net.OpError
	if !errors.As(err, &opErr) || opErr.Op != "dial" {
		t.Errorf("status against closed %s: %v, want a dial error", closed, err)
	}
	if stdout.Len() != 0 {
		t.Errorf("failed runs printed %q", stdout.String())
	}
}
