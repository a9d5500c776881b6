// Example service demonstrates the multi-tenant layer end to end,
// self-contained: it starts the hemeserved service in-process, submits
// three simulations over HTTP, steers one mid-run, has two clients
// poll the same frame to show the shared cache collapsing the renders,
// and attaches two live SSE subscribers to one job to show the render
// pool pushing each snapshot's frame once to everyone. It closes with
// the durability loop: a job journaled to a data dir, the daemon
// killed mid-run (store writes cut dead, crash-style), and a fresh
// daemon on the same dir resuming the job from its last checkpoint.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/service/store"
)

func main() {
	mgr := service.NewManagerOpts(service.Options{Workers: 3, QueueCap: 16})
	srv := service.NewServer(mgr)
	if err := srv.Start("127.0.0.1:0"); err != nil {
		fail(err)
	}
	base := "http://" + srv.Addr()
	fmt.Println("service listening on", base)

	// Three tenants submit jobs over plain HTTP.
	var ids []string
	for _, spec := range []string{
		`{"name":"alice","preset":"pipe","steps":4000}`,
		`{"name":"bob","preset":"aneurysm","steps":4000,"ranks":2}`,
		`{"name":"carol","preset":"bend","steps":4000}`,
	} {
		var info struct {
			ID string `json:"id"`
		}
		postJSON(base+"/api/v1/jobs", spec, &info)
		ids = append(ids, info.ID)
		fmt.Println("submitted", info.ID)
	}

	// Wait until all three run concurrently.
	for deadline := time.Now().Add(30 * time.Second); ; {
		var list struct {
			Jobs []struct {
				ID    string `json:"id"`
				State string `json:"state"`
				Step  int    `json:"step"`
			} `json:"jobs"`
		}
		getJSON(base+"/api/v1/jobs", &list)
		running := 0
		for _, j := range list.Jobs {
			if j.State == "running" {
				running++
			}
		}
		if running == 3 {
			fmt.Println("all 3 jobs running concurrently")
			break
		}
		if time.Now().After(deadline) {
			fail(fmt.Errorf("jobs never all ran: %+v", list))
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Steer the first job: raise the inlet density mid-run.
	postJSON(base+"/api/v1/jobs/"+ids[0]+"/steer",
		`{"op":"set-iolet","iolet":0,"density":1.05}`, nil)
	fmt.Println("steered", ids[0], "inlet density -> 1.05")

	// Live streaming: two SSE subscribers follow the same view of the
	// third job. Each snapshot is rendered once (off the solver loop,
	// by whichever subscriber asked first) and pushed to both — no
	// polling.
	var swg sync.WaitGroup
	streamed := make([][]int, 2)
	for i := range streamed {
		swg.Add(1)
		go func(i int) {
			defer swg.Done()
			streamed[i] = streamSteps(base+"/api/v1/jobs/"+ids[2]+"/stream?w=96&h=72", 3)
		}(i)
	}
	swg.Wait()
	fmt.Printf("two SSE subscribers received frames at steps %v and %v\n",
		streamed[0], streamed[1])

	// Pause the second job and have two clients fetch the same view:
	// one render, two consumers.
	postJSON(base+"/api/v1/jobs/"+ids[1]+"/pause", "", nil)
	var wg sync.WaitGroup
	frames := make([][]byte, 2)
	for i := range frames {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			frames[i] = get(base + "/api/v1/jobs/" + ids[1] + "/frame?w=96&h=72")
		}(i)
	}
	wg.Wait()
	fmt.Printf("two clients fetched the same frame: %d bytes, identical=%v\n",
		len(frames[0]), bytes.Equal(frames[0], frames[1]))
	if err := os.WriteFile("service_frame.png", frames[0], 0o644); err == nil {
		fmt.Println("wrote service_frame.png")
	}
	// /metrics is Prometheus text; print the samples without the
	// HELP/TYPE headers and the per-bucket histogram series.
	for _, line := range strings.Split(string(get(base+"/metrics")), "\n") {
		if line != "" && !strings.HasPrefix(line, "#") && !strings.Contains(line, "_bucket{") {
			fmt.Println(line)
		}
	}

	// The flight recorder has been tracking every job all along: tail
	// the steered job's event trace and break down where its time goes.
	printEvents(base, ids[0])

	// Graceful stop cancels what is still running.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fail(err)
	}
	fmt.Println("shut down cleanly")

	durabilityDemo()
}

// durabilityDemo runs the kill-and-restart loop from docs/API.md: a
// durable daemon checkpoints a job, dies mid-run without any graceful
// journaling, and its successor on the same data dir resumes the job
// from the last checkpoint instead of losing it.
func durabilityDemo() {
	dir, err := os.MkdirTemp("", "hemeserved-demo-*")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(dir)
	fmt.Println("\n-- durability: kill a daemon mid-run, restart, lose nothing --")

	st, err := store.Open(dir)
	if err != nil {
		fail(err)
	}
	mgr := service.NewManagerOpts(service.Options{Workers: 1, Store: st})
	j, err := mgr.Submit(service.JobSpec{
		Preset: "pipe", Steps: 100_000, CheckpointEvery: 64,
	})
	if err != nil {
		fail(err)
	}
	fmt.Printf("submitted %s (100k steps, checkpoint every 64) to data dir %s\n", j.ID, dir)
	for {
		if _, step, err := st.Checkpoint(j.ID); err == nil && step > 0 {
			fmt.Printf("checkpoint on disk at step %d\n", step)
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Crash: nothing journals past this instant, exactly like kill -9.
	st.Freeze()
	mgr.Close()
	_, ckptStep, err := st.Checkpoint(j.ID)
	if err != nil {
		fail(err)
	}
	fmt.Printf("daemon killed; store left with state=running, checkpoint step %d\n", ckptStep)

	st2, err := store.Open(dir)
	if err != nil {
		fail(err)
	}
	metrics := &service.Metrics{}
	mgr2 := service.NewManagerOpts(service.Options{Workers: 1, Store: st2, Metrics: metrics})
	fmt.Printf("restart: recovered %d job(s), re-queued %d\n",
		metrics.JobsRecovered.Load(), metrics.JobRestarts.Load())
	j2, err := mgr2.Get(j.ID)
	if err != nil {
		fail(err)
	}
	info := j2.Info()
	fmt.Printf("%s: recovered=%v restarts=%d resumed_from_step=%d\n",
		info.ID, info.Recovered, info.Restarts, info.ResumedFromStep)
	for j2.Step() <= ckptStep && !j2.State().Terminal() {
		time.Sleep(5 * time.Millisecond)
	}
	fmt.Printf("solver continued past the checkpoint: now at step %d (> %d), state %s\n",
		j2.Step(), ckptStep, j2.State())
	mgr2.Close()
	fmt.Println("durable daemon shut down")
}

// printEvents tails a job's flight recorder (/jobs/{id}/events) and
// prints the last few events plus a per-phase timing breakdown
// aggregated from the timed events in the ring.
func printEvents(base, id string) {
	var rep struct {
		Total  uint64 `json:"total"`
		Events []struct {
			Seq    uint64 `json:"seq"`
			Type   string `json:"type"`
			Step   int    `json:"step"`
			DurNs  int64  `json:"dur_ns"`
			Detail string `json:"detail"`
		} `json:"events"`
	}
	getJSON(base+"/api/v1/jobs/"+id+"/events", &rep)
	fmt.Printf("\n-- flight recorder: %s (%d events total, ring holds %d) --\n",
		id, rep.Total, len(rep.Events))
	tail := rep.Events
	if len(tail) > 5 {
		tail = tail[len(tail)-5:]
	}
	for _, ev := range tail {
		line := fmt.Sprintf("  #%-4d %-22s", ev.Seq, ev.Type)
		if ev.Step > 0 {
			line += fmt.Sprintf(" step=%-6d", ev.Step)
		}
		if ev.DurNs > 0 {
			line += fmt.Sprintf(" dur=%v", time.Duration(ev.DurNs))
		}
		if ev.Detail != "" {
			line += " " + ev.Detail
		}
		fmt.Println(line)
	}
	type agg struct {
		n   int
		sum int64
	}
	phases := map[string]*agg{}
	for _, ev := range rep.Events {
		if ev.DurNs <= 0 {
			continue
		}
		a := phases[ev.Type]
		if a == nil {
			a = &agg{}
			phases[ev.Type] = a
		}
		a.n++
		a.sum += ev.DurNs
	}
	fmt.Println("  phase breakdown (from ring):")
	for _, ph := range []string{"phase-step", "phase-gather", "phase-checkpoint", "checkpoint-write-end"} {
		if a := phases[ph]; a != nil {
			fmt.Printf("    %-22s %3d samples, mean %v\n",
				ph, a.n, time.Duration(a.sum/int64(a.n)))
		}
	}
}

// streamSteps subscribes to an SSE frame feed and returns the solver
// steps of the first n frames received.
func streamSteps(url string, n int) []int {
	rep, err := http.Get(url)
	if err != nil {
		fail(err)
	}
	defer rep.Body.Close()
	if rep.StatusCode != http.StatusOK {
		fail(fmt.Errorf("stream %s: %s", url, rep.Status))
	}
	sc := bufio.NewScanner(rep.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var steps []int
	for len(steps) < n && sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var f struct {
			Step int `json:"step"`
		}
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err == nil && f.Step > 0 {
			steps = append(steps, f.Step)
		}
	}
	return steps
}

func postJSON(url, body string, out any) {
	rep, err := http.Post(url, "application/json", bytes.NewBufferString(body))
	if err != nil {
		fail(err)
	}
	defer rep.Body.Close()
	data, _ := io.ReadAll(rep.Body)
	if rep.StatusCode >= 300 {
		fail(fmt.Errorf("POST %s: %s: %s", url, rep.Status, data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			fail(err)
		}
	}
}

func getJSON(url string, out any) {
	if err := json.Unmarshal(get(url), out); err != nil {
		fail(err)
	}
}

func get(url string) []byte {
	rep, err := http.Get(url)
	if err != nil {
		fail(err)
	}
	defer rep.Body.Close()
	data, _ := io.ReadAll(rep.Body)
	if rep.StatusCode >= 300 {
		fail(fmt.Errorf("GET %s: %s: %s", url, rep.Status, data))
	}
	return data
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "service example:", err)
	os.Exit(1)
}
