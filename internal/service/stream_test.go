package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	name string
	data []byte
}

// openStream subscribes to a job's SSE feed; the returned cancel stops
// the subscription.
func openStream(t *testing.T, url string) (*http.Response, context.CancelFunc) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "GET", url, nil)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	rep, err := http.DefaultClient.Do(req)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if rep.StatusCode != http.StatusOK {
		body := make([]byte, 256)
		n, _ := rep.Body.Read(body)
		rep.Body.Close()
		cancel()
		t.Fatalf("stream status %d: %s", rep.StatusCode, body[:n])
	}
	if ct := rep.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	return rep, cancel
}

// readEvents parses up to n events from an SSE stream.
func readEvents(t *testing.T, sc *bufio.Scanner, n int) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	for len(events) < n && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name != "" || cur.data != nil {
				events = append(events, cur)
				cur = sseEvent{}
			}
		}
	}
	return events
}

// collectFrames subscribes to url and decodes n frame events; it is a
// plain function so concurrent subscribers can run it off the test
// goroutine.
func collectFrames(url string, n int) ([]streamFrame, error) {
	rep, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer rep.Body.Close()
	if rep.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("stream status %d", rep.StatusCode)
	}
	sc := bufio.NewScanner(rep.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var frames []streamFrame
	var cur sseEvent
	for len(frames) < n && sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = []byte(strings.TrimPrefix(line, "data: "))
		case line == "":
			if cur.name == "" && cur.data == nil {
				continue
			}
			if cur.name != "frame" {
				return frames, fmt.Errorf("unexpected SSE event %q: %s", cur.name, cur.data)
			}
			var f streamFrame
			if err := json.Unmarshal(cur.data, &f); err != nil {
				return frames, fmt.Errorf("bad frame payload %s: %w", cur.data, err)
			}
			frames = append(frames, f)
			cur = sseEvent{}
		}
	}
	if len(frames) < n {
		return frames, fmt.Errorf("stream ended after %d frames, want %d", len(frames), n)
	}
	return frames, nil
}

// frameEvents decodes n frame events, failing on anything else.
func frameEvents(t *testing.T, sc *bufio.Scanner, n int) []streamFrame {
	t.Helper()
	var frames []streamFrame
	for _, ev := range readEvents(t, sc, n) {
		if ev.name != "frame" {
			t.Fatalf("unexpected SSE event %q: %s", ev.name, ev.data)
		}
		var f streamFrame
		if err := json.Unmarshal(ev.data, &f); err != nil {
			t.Fatalf("bad frame payload %s: %v", ev.data, err)
		}
		frames = append(frames, f)
	}
	if len(frames) < n {
		t.Fatalf("stream ended after %d frames, want %d", len(frames), n)
	}
	return frames
}

// TestStreamTwoSubscribersShareRenders is the tentpole acceptance
// test: two SSE subscribers on one job see the same frame bytes per
// step, produced by a single render per snapshot (the cache is the
// fan-out point), and the frames advance with the solver.
func TestStreamTwoSubscribersShareRenders(t *testing.T) {
	srv, base := startServer(t, 1, 4)
	j := submit(t, base, `{"preset":"pipe","steps":2000000,"viz_every":-1,"snapshot_every":4}`)
	waitState(t, base, j.ID, StateRunning)

	rendersBefore := metric(t, base, "hemeserved_renders_total")
	url := base + "/api/v1/jobs/" + j.ID + "/stream?w=64&h=48"
	const wantFrames = 6

	type result struct {
		frames []streamFrame
		err    error
	}
	results := make(chan result, 2)
	for i := 0; i < 2; i++ {
		go func() {
			frames, err := collectFrames(url, wantFrames)
			results <- result{frames: frames, err: err}
		}()
	}
	var subs [2][]streamFrame
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("subscriber: %v", r.err)
			}
			subs[i] = r.frames
		case <-time.After(60 * time.Second):
			t.Fatal("subscriber timed out")
		}
	}

	// Frames advance monotonically for each subscriber.
	byStep := [2]map[int]string{{}, {}}
	for si, frames := range subs {
		lastStep := -1
		for _, f := range frames {
			if f.Step <= lastStep {
				t.Errorf("subscriber %d: steps not increasing: %d after %d", si, f.Step, lastStep)
			}
			lastStep = f.Step
			if f.W != 64 || f.H != 48 {
				t.Errorf("frame size %dx%d, want 64x48", f.W, f.H)
			}
			png, err := base64.StdEncoding.DecodeString(f.PNG)
			if err != nil {
				t.Fatalf("frame is not base64: %v", err)
			}
			if !bytes.HasPrefix(png, []byte{0x89, 'P', 'N', 'G'}) {
				t.Fatalf("frame payload is not a PNG")
			}
			byStep[si][f.Step] = f.PNG
		}
	}
	// Same step ⇒ identical bytes across subscribers, and the two
	// concurrent subscriptions must actually have overlapped.
	shared := 0
	for step, png0 := range byStep[0] {
		if png1, ok := byStep[1][step]; ok {
			shared++
			if png0 != png1 {
				t.Errorf("step %d: subscribers received different frames", step)
			}
		}
	}
	if shared < 2 {
		t.Errorf("subscribers overlapped on %d steps; want >= 2 for a sharing claim", shared)
	}
	// Single render per snapshot: the render count is bounded by the
	// union of steps seen, not by subscribers × frames.
	distinct := len(byStep[0])
	for step := range byStep[1] {
		if _, ok := byStep[0][step]; !ok {
			distinct++
		}
	}
	// A handler may render a couple of trailing snapshots between its
	// subscriber's last frame and its detach; allow that slack. What
	// must not happen is per-subscriber rendering (≈ 2× distinct).
	renders := metric(t, base, "hemeserved_renders_total") - rendersBefore
	if renders > int64(distinct)+3 {
		t.Errorf("%d renders for %d distinct streamed steps: fan-out is re-rendering", renders, distinct)
	}
	if streamed := metric(t, base, "hemeserved_frames_streamed_total"); streamed < 2*wantFrames {
		t.Errorf("frames_streamed = %d, want >= %d", streamed, 2*wantFrames)
	}

	ctxShutdown(t, srv)
}

// TestStreamSlowSubscriberDoesNotBlock parks one subscriber that never
// reads its connection while a second consumes frames: the healthy
// subscriber and the solver must keep making progress — a stalled
// client costs only its own socket, never another frame's render.
func TestStreamSlowSubscriberDoesNotBlock(t *testing.T) {
	srv, base := startServer(t, 1, 4)
	j := submit(t, base, `{"preset":"pipe","steps":2000000,"viz_every":-1,"snapshot_every":4}`)
	waitState(t, base, j.ID, StateRunning)
	url := base + "/api/v1/jobs/" + j.ID + "/stream?w=64&h=48"

	// The stalled client: subscribes, then never reads a byte.
	stalled, cancelStalled := openStream(t, url)
	defer func() {
		cancelStalled()
		stalled.Body.Close()
	}()
	waitFor(t, "stalled subscriber to register", func() bool {
		return metric(t, base, "hemeserved_stream_clients") >= 1
	})

	// The healthy client must still receive a full frame sequence.
	stepBefore := jobInfo(t, base, j.ID).Step
	rep, cancel := openStream(t, url)
	defer cancel()
	defer rep.Body.Close()
	sc := bufio.NewScanner(rep.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	frames := frameEvents(t, sc, 5)
	if len(frames) != 5 {
		t.Fatalf("healthy subscriber got %d frames", len(frames))
	}
	// And the solver advanced underneath — frame production did not
	// wedge stepping.
	if after := jobInfo(t, base, j.ID).Step; after <= stepBefore {
		t.Errorf("solver did not advance while streaming: %d -> %d", stepBefore, after)
	}

	ctxShutdown(t, srv)
}

// TestStreamEndsOnTerminal runs a short job to completion under a
// subscriber: the feed must deliver frames and then an explicit end
// event carrying the terminal state, and a frame requested after
// termination is still served from the final snapshot — rendered on
// the request with no solver left to ask.
func TestStreamEndsOnTerminal(t *testing.T) {
	srv, base := startServer(t, 1, 4)
	j := submit(t, base, `{"preset":"pipe","steps":120,"viz_every":-1,"snapshot_every":8}`)
	url := base + "/api/v1/jobs/" + j.ID + "/stream?w=48&h=36"
	rep, cancel := openStream(t, url)
	defer cancel()
	defer rep.Body.Close()
	sc := bufio.NewScanner(rep.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)

	var sawFrame bool
	var end *streamEnd
	for end == nil {
		evs := readEvents(t, sc, 1)
		if len(evs) == 0 {
			t.Fatal("stream closed without an end event")
		}
		switch evs[0].name {
		case "frame":
			sawFrame = true
		case "end":
			var e streamEnd
			if err := json.Unmarshal(evs[0].data, &e); err != nil {
				t.Fatal(err)
			}
			end = &e
		default:
			t.Fatalf("unexpected event %q", evs[0].name)
		}
	}
	if !sawFrame {
		t.Error("stream delivered no frames before ending")
	}
	if end.State != StateDone || end.Error != "" {
		t.Errorf("end event = %+v, want done with no error", end)
	}
	waitState(t, base, j.ID, StateDone)
	// Post-terminal frame: rendered from the final snapshot.
	code, png := httpGetRaw(t, base+"/api/v1/jobs/"+j.ID+"/frame?w=48&h=36")
	if code != http.StatusOK || !bytes.HasPrefix(png, []byte{0x89, 'P', 'N', 'G'}) {
		t.Errorf("frame after done: status %d, %d bytes", code, len(png))
	}

	ctxShutdown(t, srv)
}

// TestStreamLateJoinerOnPausedJob: a paused job publishes nothing more,
// yet a subscriber joining it receives the current frame at once — the
// one the first subscriber was shown, served by the frame lru without
// another render.
func TestStreamLateJoinerOnPausedJob(t *testing.T) {
	srv, base := startServer(t, 1, 4)
	info := submit(t, base, `{"preset":"pipe","steps":2000000,"viz_every":-1,"snapshot_every":4}`)
	waitState(t, base, info.ID, StateRunning)
	j, err := srv.mgr.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	url := base + "/api/v1/jobs/" + info.ID + "/stream?w=64&h=48"

	first, cancelFirst := openStream(t, url)
	defer cancelFirst()
	defer first.Body.Close()
	var mu sync.Mutex
	var shown streamFrame // the first subscriber's latest frame
	go func() {
		sc := bufio.NewScanner(first.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for {
			evs := readEvents(t, sc, 1)
			if len(evs) == 0 || evs[0].name != "frame" {
				return
			}
			var f streamFrame
			if json.Unmarshal(evs[0].data, &f) == nil {
				mu.Lock()
				shown = f
				mu.Unlock()
			}
		}
	}()
	waitFor(t, "the first subscriber's frames", func() bool { return metric(t, base, "hemeserved_frames_streamed_total") > 0 })
	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+info.ID+"/pause", "", nil); code != http.StatusOK {
		t.Fatalf("pause status %d", code)
	}
	// The pause point's snapshot is the job's current state; wait for
	// the first subscriber to be shown it.
	var paused streamFrame
	waitFor(t, "the first subscriber to be shown the pause point", func() bool {
		snap, _ := j.LatestSnapshot()
		mu.Lock()
		defer mu.Unlock()
		paused = shown
		return j.State() == StatePaused && snap.Step == j.Step() && shown.Step == snap.Step
	})

	renders := metric(t, base, "hemeserved_renders_total")
	late, cancelLate := openStream(t, url)
	defer cancelLate()
	defer late.Body.Close()
	sc := bufio.NewScanner(late.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	f := frameEvents(t, sc, 1)[0]
	if f.Step != paused.Step || f.PNG != paused.PNG {
		t.Errorf("late joiner got step %d (same picture: %v), want the paused step %d's frame", f.Step, f.PNG == paused.PNG, paused.Step)
	}
	if n := metric(t, base, "hemeserved_renders_total"); n != renders {
		t.Errorf("the late joiner cost %d renders, want 0", n-renders)
	}
	ctxShutdown(t, srv)
}

// TestSnapshotsOffAnswers409: snapshots are the only source of pixels
// and octrees, so a job submitted with snapshot_every -1 answers
// /frame, /data and /stream with one and the same conflict, whatever
// state it is in — there is no second path that would serve a running
// job and not a finished one.
func TestSnapshotsOffAnswers409(t *testing.T) {
	srv, base := startServer(t, 1, 4)
	id := submit(t, base, `{"preset":"pipe","steps":2000000,"snapshot_every":-1}`).ID
	job := base + "/api/v1/jobs/" + id
	want, err := json.Marshal(map[string]string{"error": ErrNoSnapshot.Error()})
	if err != nil {
		t.Fatal(err)
	}
	for _, leg := range []struct {
		state  JobState
		method string
		url    string
	}{
		{StateRunning, "", ""},
		{StatePaused, "POST", job + "/pause"},
		{StateCancelled, "DELETE", job},
	} {
		if leg.method != "" {
			if code := httpJSON(t, leg.method, leg.url, "", nil); code != http.StatusOK {
				t.Fatalf("%s %s: status %d", leg.method, leg.url, code)
			}
		}
		waitState(t, base, id, leg.state)
		for _, endpoint := range []string{"/frame?w=48&h=36", "/data?min=0,0,0&max=999,999,999", "/stream"} {
			code, body := httpGetRaw(t, job+endpoint)
			if code != http.StatusConflict || strings.TrimSpace(string(body)) != string(want) {
				t.Errorf("%s job, GET %s: status %d body %s; want 409 %s", leg.state, endpoint, code, body, want)
			}
		}
	}
	if n := srv.mgr.metrics.RendersTotal.Load(); n != 0 {
		t.Errorf("%d renders for a job with nothing to render from", n)
	}
	ctxShutdown(t, srv)
}

// TestRenderOffloadKeepsSolverPace measures the decoupling claim
// directly on one job: what a step costs the solver while a client
// streams every snapshot must stay within noise of what it costs
// unobserved. The bound is deliberately loose (2×) — the old in-loop
// render path cost an order of magnitude more than a gather when frames
// were pulled every snapshot.
//
// The cost is read off the job's own books, not off a wall clock: the
// flight recorder's sampled step durations (obs.PhaseStep, every 16th
// step) and snapshot gathers, a full ring of them per leg. Their median
// is what the solver goroutine spends per step whether or not a
// neighbouring test package holds the other core; two wall-clock legs
// of steps/second measured the neighbours as much as the job. Those two
// phases cannot see a render that came back into the loop at a steering
// boundary, so the render counters close that gap: every render counted
// must be one the manager's frame path timed.
//
// A host whose speed changes for stretches of a second can make a fast
// quiet leg meet a slow streamed one, so the streamed leg sits between
// two quiet legs and is held to their mean: the reference is taken on
// both sides of the streamed leg, under the host speeds around it.
func TestRenderOffloadKeepsSolverPace(t *testing.T) {
	srv, base := startServer(t, 1, 4)
	info := submit(t, base, `{"preset":"pipe","steps":2000000000,"viz_every":-1,"snapshot_every":8}`)
	waitState(t, base, info.ID, StateRunning)
	j, err := srv.mgr.Get(info.ID)
	if err != nil {
		t.Fatal(err)
	}

	// leg waits for the recorder's ring to fill with events younger
	// than now and returns the per-step cost over them: the median
	// sampled step, plus the median gather spread over the steps
	// between two gathers.
	median := func(ns []int64) float64 {
		if len(ns) == 0 {
			return 0
		}
		slices.Sort(ns)
		return float64(ns[len(ns)/2])
	}
	leg := func() (perStep float64, gathers int) {
		from := j.rec.Seq()
		waitFor(t, "a ring of fresh phase samples", func() bool { return j.rec.Seq() >= from+obs.DefaultRingSize })
		var steps, gather []int64
		first, last := 0, 0
		for _, ev := range j.rec.Events() {
			switch ev.Type {
			case obs.PhaseEventName(obs.PhaseStep):
				steps = append(steps, ev.DurNs)
			case obs.PhaseEventName(obs.PhaseGather):
				gather = append(gather, ev.DurNs)
				if first == 0 {
					first = ev.Step
				}
				last = ev.Step
			}
		}
		if len(steps) == 0 {
			t.Fatal("the job recorded no step samples")
		}
		perStep = median(steps)
		if len(gather) > 1 {
			perStep += median(gather) * float64(len(gather)-1) / float64(last-first)
		}
		return perStep, len(gather)
	}

	quietBefore, _ := leg()
	rep, cancel := openStream(t, base+"/api/v1/jobs/"+info.ID+"/stream?w=96&h=72")
	defer cancel()
	defer rep.Body.Close()
	go func() { // consume continuously so frames keep being produced
		sc := bufio.NewScanner(rep.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
		}
	}()
	waitFor(t, "streaming to start", func() bool {
		return metric(t, base, "hemeserved_frames_streamed_total") > 0
	})
	before := j.Step()
	streaming, gathers := leg()
	if j.Step() <= before {
		t.Error("solver made no progress while a client streamed")
	}
	if gathers == 0 {
		t.Error("no snapshot was gathered while a client streamed")
	}

	// Every frame comes off the manager's frame path: a render counted
	// anywhere else — one answered inside the solver loop, say — is a
	// render its latency histogram never sees. Once they match, no frame
	// is in flight and the second quiet leg can start.
	cancel()
	mm := srv.mgr.metrics
	waitFor(t, "every counted render to be a timed render", func() bool {
		return mm.RendersTotal.Load() == mm.RenderLatency.Count()
	})
	if mm.RendersTotal.Load() == 0 {
		t.Error("no frame was rendered while a client streamed")
	}
	quietAfter, _ := leg()
	quiet := (quietBefore + quietAfter) / 2

	t.Logf("ns/step quiet=%.0f streaming=%.0f quiet=%.0f (%d gathers in the streamed ring)", quietBefore, streaming, quietAfter, gathers)
	// Under the race detector every memory access of the solver is
	// instrumented and render workers contend for the detector's own
	// state; the quantitative bound only means something on an
	// uninstrumented build.
	if !raceEnabled && streaming > 2*quiet {
		t.Errorf("streaming doubled the cost of a step: %.0f -> %.0f ns (quiet legs %.0f and %.0f)", quiet, streaming, quietBefore, quietAfter)
	}

	ctxShutdown(t, srv)
}
