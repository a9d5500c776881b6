package service

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/leaktest"
	"repro/internal/octree"
)

// goroutineBaseline snapshots the running goroutines and returns a
// check that fails the test if anything started afterwards is still
// alive once everything is shut down — the no-leak assertion every e2e
// test requires. The heavy lifting (goroutine-ID diff, retry window)
// lives in internal/leaktest; this wrapper adds the one service-suite
// settle hook: closing the default client's idle keep-alive
// connections, whose persistConn goroutines otherwise linger for the
// 90s idle timeout and read as leaks.
func goroutineBaseline(t *testing.T) func() {
	t.Helper()
	return leaktest.Check(t, http.DefaultClient.CloseIdleConnections)
}

// startServer boots a full service stack on a loopback port. Every
// caller gets a leak check for free: it is registered before the
// shutdown cleanup, so cleanup LIFO order runs it after the server is
// down.
func startServer(t *testing.T, workers, queueCap int) (*Server, string) {
	t.Helper()
	t.Cleanup(goroutineBaseline(t))
	mgr := NewManagerOpts(Options{Workers: workers, QueueCap: queueCap})
	srv := NewServer(mgr)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, "http://" + srv.Addr()
}

func httpJSON(t *testing.T, method, url, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Body.Close()
	data, _ := io.ReadAll(rep.Body)
	if out != nil && rep.StatusCode < 300 {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: bad JSON %q: %v", method, url, data, err)
		}
	}
	return rep.StatusCode
}

func httpGetRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	rep, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer rep.Body.Close()
	data, _ := io.ReadAll(rep.Body)
	return rep.StatusCode, data
}

func submit(t *testing.T, base, spec string) JobInfo {
	t.Helper()
	var info JobInfo
	if code := httpJSON(t, "POST", base+"/api/v1/jobs", spec, &info); code != http.StatusCreated {
		t.Fatalf("submit %s: status %d", spec, code)
	}
	return info
}

// waitFor polls until cond is true or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func metric(t *testing.T, base, name string) int64 {
	t.Helper()
	code, body := httpGetRaw(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, line := range strings.Split(string(body), "\n") {
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[0] == name {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				t.Fatalf("metric %s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in %q", name, body)
	return 0
}

// meanRho computes the site-weighted mean density over a reduced
// octree payload fetched from the data endpoint.
func meanRho(t *testing.T, payload []byte) float64 {
	t.Helper()
	nodes, err := octree.DecodeNodes(payload)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	var count int
	for _, n := range nodes {
		sum += n.MeanRho * float64(n.Count)
		count += n.Count
	}
	if count == 0 {
		t.Fatal("reduced payload covers no sites")
	}
	return sum / float64(count)
}

// TestServiceEndToEnd is the acceptance scenario: three tenants run
// concurrently through the job manager, one is steered over HTTP and
// its output changes, and two clients share one cached render.
func TestServiceEndToEnd(t *testing.T) {
	_, base := startServer(t, 3, 8)

	// Long enough that the jobs outlive the test body; shutdown
	// cancels them.
	specs := []string{
		`{"name":"alice","preset":"pipe","steps":2000000,"viz_every":-1}`,
		`{"name":"bob","preset":"pipe","steps":2000000,"viz_every":-1}`,
		`{"name":"carol","preset":"bend","steps":2000000,"ranks":2,"viz_every":-1}`,
	}
	ids := make([]string, len(specs))
	for i, sp := range specs {
		ids[i] = submit(t, base, sp).ID
	}

	// All three must be in state running at the same instant.
	waitFor(t, "3 concurrent running jobs", func() bool {
		var list struct {
			Jobs []JobInfo `json:"jobs"`
		}
		httpJSON(t, "GET", base+"/api/v1/jobs", "", &list)
		running := 0
		for _, j := range list.Jobs {
			if j.State == StateRunning && j.Step > 0 {
				running++
			}
		}
		return running == 3
	})

	// Live status over HTTP reflects the solver and carries exactly the
	// fields docs/API.md lists.
	var st map[string]any
	if code := httpJSON(t, "GET", base+"/api/v1/jobs/"+ids[2]+"/status", "", &st); code != http.StatusOK {
		t.Fatalf("status code %d", code)
	}
	documented := []string{"step", "total_steps", "num_sites", "ranks", "sites_per_sec",
		"remaining_sec", "paused", "comm_bytes", "load_imbalance"}
	keys := make([]string, 0, len(st))
	for k := range st {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	slices.Sort(documented)
	if !slices.Equal(keys, documented) {
		t.Errorf("status keys = %v, want the documented %v", keys, documented)
	}
	if st["num_sites"] == 0.0 || st["ranks"] != 2.0 {
		t.Errorf("live status = %v", st)
	}

	// Steer job 0: measure mean density, raise the inlet density over
	// HTTP, let the flow respond, measure again.
	dataURL := base + "/api/v1/jobs/" + ids[0] + "/data?min=0,0,0&max=1000,1000,1000&detail=0&context=3"
	code, before := httpGetRaw(t, dataURL)
	if code != http.StatusOK {
		t.Fatalf("data status %d: %s", code, before)
	}
	rhoBefore := meanRho(t, before)

	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+ids[0]+"/steer",
		`{"op":"set-iolet","iolet":0,"density":1.2}`, nil); code != http.StatusOK {
		t.Fatalf("steer status %d", code)
	}
	// set-roi changed nothing the solver reads and is no longer an op:
	// it is refused like any other, naming the one that exists, and the
	// job keeps running.
	rep, err := http.Post(base+"/api/v1/jobs/"+ids[0]+"/steer", "application/json",
		strings.NewReader(`{"op":"set-roi","roi_min":[0,0,0],"roi_max":[8,8,8]}`))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(rep.Body)
	rep.Body.Close()
	if rep.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "set-iolet") {
		t.Errorf("set-roi steer: %d %s, want 400 naming set-iolet", rep.StatusCode, msg)
	}
	var atSteer JobInfo
	httpJSON(t, "GET", base+"/api/v1/jobs/"+ids[0], "", &atSteer)
	if atSteer.State != StateRunning {
		t.Errorf("job %s after a refused set-roi, want running", atSteer.State)
	}
	waitFor(t, "steered job to advance", func() bool {
		var info JobInfo
		httpJSON(t, "GET", base+"/api/v1/jobs/"+ids[0], "", &info)
		return info.Step > atSteer.Step+500
	})
	code, after := httpGetRaw(t, dataURL)
	if code != http.StatusOK {
		t.Fatalf("data status %d", code)
	}
	rhoAfter := meanRho(t, after)
	if rhoAfter <= rhoBefore+1e-3 {
		t.Errorf("set-iolet did not change output: mean rho %v -> %v", rhoBefore, rhoAfter)
	}

	// Frame sharing: pause job 1 so its view is stable, then have two
	// clients request the identical frame. Exactly one render must
	// happen; the second consumer is a cache hit.
	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+ids[1]+"/pause", "", nil); code != http.StatusOK {
		t.Fatalf("pause status %d", code)
	}
	rendersBefore := metric(t, base, "hemeserved_renders_total")
	hitsBefore := metric(t, base, "hemeserved_frame_cache_hits_total")
	frameURL := base + "/api/v1/jobs/" + ids[1] + "/frame?w=64&h=48"
	var frames [2][]byte
	var codes [2]int
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := http.Get(frameURL)
			if err != nil {
				return
			}
			defer rep.Body.Close()
			codes[i] = rep.StatusCode
			frames[i], _ = io.ReadAll(rep.Body)
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("frame client %d: status %d: %s", i, c, frames[i])
		}
	}
	pngMagic := []byte{0x89, 'P', 'N', 'G'}
	if !bytes.HasPrefix(frames[0], pngMagic) {
		t.Errorf("frame is not a PNG: % x", frames[0][:min(8, len(frames[0]))])
	}
	if !bytes.Equal(frames[0], frames[1]) {
		t.Error("two clients got different frames for the same request")
	}
	if d := metric(t, base, "hemeserved_renders_total") - rendersBefore; d != 1 {
		t.Errorf("two identical requests cost %d renders, want 1", d)
	}
	if d := metric(t, base, "hemeserved_frame_cache_hits_total") - hitsBefore; d < 1 {
		t.Errorf("no cache hit recorded for the shared frame")
	}
	// A third, sequential poller is served straight from cache.
	code, frame3 := httpGetRaw(t, frameURL)
	if code != http.StatusOK || !bytes.Equal(frame3, frames[0]) {
		t.Errorf("third poller not served from cache (status %d)", code)
	}

	// Push path: two SSE subscribers on the same paused view receive
	// the identical frame bytes the pollers got, without any further
	// render — the stream fans out through the same cache entry.
	sseRenders := metric(t, base, "hemeserved_renders_total")
	streamURL := base + "/api/v1/jobs/" + ids[1] + "/stream?w=64&h=48"
	sseResults := make(chan []byte, 2)
	sseErrs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			fr, err := collectFrames(streamURL, 1)
			if err != nil {
				sseErrs <- err
				return
			}
			png, err := base64.StdEncoding.DecodeString(fr[0].PNG)
			if err != nil {
				sseErrs <- err
				return
			}
			sseResults <- png
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-sseErrs:
			t.Fatalf("SSE subscriber: %v", err)
		case png := <-sseResults:
			if !bytes.Equal(png, frames[0]) {
				t.Error("SSE frame differs from the polled frame for the same view")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("SSE subscriber timed out")
		}
	}
	if d := metric(t, base, "hemeserved_renders_total") - sseRenders; d != 0 {
		t.Errorf("streaming a cached paused view cost %d renders, want 0", d)
	}

	// Resume and verify stepping continues.
	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+ids[1]+"/resume", "", nil); code != http.StatusOK {
		t.Fatalf("resume status %d", code)
	}
	var paused JobInfo
	httpJSON(t, "GET", base+"/api/v1/jobs/"+ids[1], "", &paused)
	waitFor(t, "resumed job to advance", func() bool {
		var info JobInfo
		httpJSON(t, "GET", base+"/api/v1/jobs/"+ids[1], "", &info)
		return info.Step > paused.Step
	})

	// Cancel one explicitly; shutdown (cleanup) reaps the rest.
	req, _ := http.NewRequest(http.MethodDelete, base+"/api/v1/jobs/"+ids[0], nil)
	rep, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	rep.Body.Close()
	waitFor(t, "cancelled job to terminate", func() bool {
		var info JobInfo
		httpJSON(t, "GET", base+"/api/v1/jobs/"+ids[0], "", &info)
		return info.State == StateCancelled
	})
}

// TestQueueBackpressure exercises the bounded queue: a full queue
// rejects with 429, and cancelling a queued job frees its slot.
func TestQueueBackpressure(t *testing.T) {
	_, base := startServer(t, 1, 1)

	long := `{"preset":"pipe","steps":2000000,"viz_every":-1}`
	first := submit(t, base, long)
	waitFor(t, "first job running", func() bool {
		var info JobInfo
		httpJSON(t, "GET", base+"/api/v1/jobs/"+first.ID, "", &info)
		return info.State == StateRunning
	})
	queued := submit(t, base, long) // fills the single queue slot
	if code := httpJSON(t, "POST", base+"/api/v1/jobs", long, nil); code != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit: status %d, want 429", code)
	}
	// Cancelling the queued job never runs it.
	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+queued.ID+"/cancel", "", nil); code != http.StatusOK {
		t.Fatalf("cancel queued: status %d", code)
	}
	var info JobInfo
	httpJSON(t, "GET", base+"/api/v1/jobs/"+queued.ID, "", &info)
	if info.State != StateCancelled || info.Step != 0 {
		t.Errorf("queued cancel: %+v", info)
	}
}

// TestSubmitValidation rejects bad specs before they reach the queue.
func TestSubmitValidation(t *testing.T) {
	_, base := startServer(t, 1, 4)
	for _, spec := range []string{
		`{"preset":"klein-bottle","steps":100}`,
		`{"preset":"pipe","steps":0}`,
		`{"preset":"pipe","steps":100,"tau":0.3}`,
		`{"preset":"pipe","steps":100,"scale":1000000}`,
		`{"preset":"pipe","steps":100,"h":0.001}`,
		`{"preset":"pipe","steps":100,"scale":8,"h":0.25}`,
		`not json at all`,
	} {
		if code := httpJSON(t, "POST", base+"/api/v1/jobs", spec, nil); code != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400", spec, code)
		}
	}
	if code := httpJSON(t, "GET", base+"/api/v1/jobs/job-9999", "", nil); code != http.StatusNotFound {
		t.Errorf("missing job: status %d, want 404", code)
	}
	// Steering verbs outside the allowed set are rejected.
	j := submit(t, base, `{"preset":"pipe","steps":2000000,"viz_every":-1}`)
	waitFor(t, "job running", func() bool {
		var info JobInfo
		httpJSON(t, "GET", base+"/api/v1/jobs/"+j.ID, "", &info)
		return info.State == StateRunning
	})
	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+j.ID+"/steer",
		`{"op":"quit"}`, nil); code != http.StatusBadRequest {
		t.Errorf("steer quit: status %d, want 400", code)
	}
}

// TestGracefulShutdownReapsPausedJob covers the nastiest lifecycle
// corner: shutting down while a job is paused must still terminate it.
func TestGracefulShutdownReapsPausedJob(t *testing.T) {
	mgr := NewManagerOpts(Options{Workers: 1, QueueCap: 4})
	srv := NewServer(mgr)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()
	j := submit(t, base, `{"preset":"pipe","steps":2000000,"viz_every":-1}`)
	waitFor(t, "job running", func() bool {
		var info JobInfo
		httpJSON(t, "GET", base+"/api/v1/jobs/"+j.ID, "", &info)
		return info.State == StateRunning
	})
	if code := httpJSON(t, "POST", base+"/api/v1/jobs/"+j.ID+"/pause", "", nil); code != http.StatusOK {
		t.Fatalf("pause status %d", code)
	}
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		done <- srv.Shutdown(ctx)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(45 * time.Second):
		t.Fatal("shutdown hung on a paused job")
	}
	job, err := mgr.Get(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := job.State(); st != StateCancelled {
		t.Errorf("paused job ended in state %s, want cancelled", st)
	}
}

// TestDataCarriesWSS: /data's octree is built over the snapshot's wall
// shear stress too. The root of a finished, flowing job's reply carries
// the largest WSS of the snapshot it was served from, as a float32, and
// that is above zero.
func TestDataCarriesWSS(t *testing.T) {
	srv, base := startServer(t, 1, 4)
	id := submit(t, base, `{"preset":"pipe","steps":300}`).ID
	waitState(t, base, id, StateDone)
	// Detail and context beyond the tree's depth clamp to its top: the
	// reply is the root alone.
	code, payload := httpGetRaw(t, base+"/api/v1/jobs/"+id+"/data?detail=99&context=99")
	if code != http.StatusOK {
		t.Fatalf("data status %d: %s", code, payload)
	}
	nodes, err := octree.DecodeNodes(payload)
	if err != nil {
		t.Fatal(err)
	}
	j, err := srv.mgr.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	snap, _ := j.LatestSnapshot()
	if len(nodes) != 1 || snap == nil || nodes[0].Count != snap.Field.Dom.NumSites() {
		t.Fatalf("reply of %d nodes for snapshot %v, want the root alone", len(nodes), snap)
	}
	want := slices.Max(snap.Field.WSS)
	if got := nodes[0].MaxWSS; got != float64(float32(want)) || got <= 0 {
		t.Errorf("root MaxWSS %v, want the snapshot's largest WSS %v as a float32, above 0", got, float32(want))
	}
	if nodes[0].MeanWSS <= 0 {
		t.Errorf("root MeanWSS %v, want above 0", nodes[0].MeanWSS)
	}
}

// TestDataClampsNegativeLevels: a negative level is clamped to 0 as the
// API says, not refused: context=-1 answers 200 with context=0's bytes
// and detail=-3 with detail=0's.
func TestDataClampsNegativeLevels(t *testing.T) {
	_, base := startServer(t, 1, 4)
	id := submit(t, base, `{"preset":"pipe","steps":300}`).ID
	waitState(t, base, id, StateDone)
	data := base + "/api/v1/jobs/" + id + "/data?min=2,2,2&max=9,9,9&"
	for _, c := range [][2]string{{"context=-1", "context=0"}, {"detail=-3", "detail=0"}} {
		code, got := httpGetRaw(t, data+c[0])
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c[0], code, got)
		}
		code, want := httpGetRaw(t, data+c[1])
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c[1], code, want)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s answers %d bytes, %s %d bytes: the replies differ", c[0], len(got), c[1], len(want))
		}
	}
}
