package main

import (
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/service"
)

// The live legs put one daemon under concurrent load: two closed-loop
// clients submitting short jobs, then a stream subscriber and a viewer
// cycle beside a running job. With the solver, the render pool and the
// clients they keep more threads runnable than this host has CPUs, so
// what they measure moves with the host's other tenants; their numbers
// are per-layer metrics (service.*), and they run in traced sessions.

// thinkMax bounds the seed-drawn pause before each request of the
// viewer cycle. Without it the closed loop locks onto the solver's
// snapshot cadence (16 steps, 37 ms on the small domain): each request
// then arrives at a fixed phase of the cadence that differs from run to
// run, and so does the wait it measures.
const thinkMax = 50 * time.Millisecond

// burstLeg is a closed loop of 2 clients, each: POST a short job, GET it
// every millisecond until it is terminal, repeat until the leg's time is
// up. Latency is client-timed from the POST being sent to the terminal
// state being observed.
func (s *session) burstLeg() {
	leg := s.tr.begin("session.live_burst", -1, s.tr.newOp())
	defer s.tr.end(leg)
	order := s.burstOrder(8192)
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(s.legBudget(burstShare))
	var doneMu sync.Mutex
	var doneAt []float64 // seconds since start of each completion
	var wg sync.WaitGroup
	for cl := 0; cl < 2; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.close()
			for time.Now().Before(deadline) && s.ctx.Err() == nil {
				k := int(next.Add(1)-1) % len(order)
				lat, ok := s.burstJob(c, leg, order[k])
				if !ok {
					time.Sleep(10 * time.Millisecond) // a dead daemon must not turn the loop into a spin
					continue
				}
				s.res.add("live.job_latency_ms", ms(lat))
				doneMu.Lock()
				doneAt = append(doneAt, time.Since(start).Seconds())
				doneMu.Unlock()
			}
		}()
	}
	wg.Wait()
	s.res.set("live.jobs_per_s", bucketRate(doneAt, s.legBudget(burstShare).Seconds()))
}

// rateBuckets is how many equal slices a leg's window is cut into for a
// rate: the reported rate is the median over the slices, so a stall of
// the host shorter than half the window does not move it.
const rateBuckets = 8

// bucketRate cuts the window into slices and returns the median slice's
// event rate. at holds the events' times in seconds since the window
// opened, in any order; a slice's rate is its intervals over the time
// they span, (n-1)/(last-first), which is continuous where a plain
// count per slice would be quantised. Events after the window closed
// belong to no slice.
func bucketRate(at []float64, window float64) float64 {
	width := window / rateBuckets
	var first, last [rateBuckets]float64
	var n [rateBuckets]int
	for _, t := range at {
		b := int(t / width)
		if width <= 0 || b < 0 || b >= rateBuckets {
			continue
		}
		if n[b] == 0 || t < first[b] {
			first[b] = t
		}
		last[b] = max(last[b], t)
		n[b]++
	}
	var rates []float64
	for b := range n {
		if n[b] >= 2 && last[b] > first[b] {
			rates = append(rates, float64(n[b]-1)/(last[b]-first[b]))
		}
	}
	return median(rates)
}

// viewLeg is the in situ + steering leg under load. One long job is
// watched for the window by connection A, an SSE subscriber, while
// connection B cycles through: a frame at a never-seen azimuth (cache
// miss → fresh render); every fourth cycle a frame of the streamed view
// (cache hit or single flight); pairs of a reduced-data query on a
// seed-ordered octant of the domain and a set-iolet steer toggling two
// densities; and one read of the job's step counter.
func (s *session) viewLeg() {
	leg := s.tr.begin("session.live_view", -1, s.tr.newOp())
	defer s.tr.end(leg)
	a, b := newClient(), newClient()
	defer a.close()
	defer b.close()

	info, err := b.submit(s.ctx, s.d.base, s.w.longSpec(1<<30))
	if err == nil {
		info, err = b.waitJob(s.ctx, s.d.base, info.ID, func(in service.JobInfo) bool { return in.Step >= warmupSteps })
	}
	if !s.res.op("watched job reaches warm-up", err) {
		return
	}
	id := info.ID
	st, err := a.openStream(s.ctx, s.streamURL(id))
	if !s.res.op("open stream", err) {
		return
	}
	var counting atomic.Bool
	var lastFrame time.Time // reader goroutine only
	ended := make(chan error, 1)
	go func() {
		for {
			ev, err := st.next()
			if err != nil {
				ended <- fmt.Errorf("stream closed without an end event: %w", err)
				return
			}
			if ev.Name == "end" {
				ended <- nil
				return
			}
			if ev.Name != "frame" || !counting.Load() {
				continue
			}
			if now := time.Now(); lastFrame.IsZero() {
				lastFrame = now
			} else {
				s.res.add("live.frame_interval_s", now.Sub(lastFrame).Seconds())
				lastFrame = now
			}
			s.res.add("service.sse_frame_bytes", float64(len(ev.Data)))
			s.res.op("streamed frame", s.checkFrameEvent(ev))
		}
	}()

	densities := [2]float64{1.014, 1.012}
	streamedURL := fmt.Sprintf("%s/api/v1/jobs/%s/frame?w=%d&h=%d", s.d.base, id, s.w.FrameW, s.w.FrameH)
	jobURL := s.d.base + "/api/v1/jobs/" + id

	think := func() { time.Sleep(time.Duration(s.rng.Float64() * float64(thinkMax))) }
	prev, err := b.job(s.ctx, s.d.base, id)
	s.res.op("watched job: read step", err)
	prevAt := time.Now()
	counting.Store(true)
	deadline := prevAt.Add(s.legBudget(watchShare))
	pairs := 0
	for n := 0; time.Now().Before(deadline) && s.ctx.Err() == nil; n++ {
		op := s.tr.newOp()
		cyc := s.tr.begin("service.view_cycle", leg, op)
		think()
		missStart := time.Now()
		ok := s.timedGet(b, cyc, op, "live.frame_latency_ms", "service.frame_miss", s.missFrameURL(id), s.checkPNG)
		miss := time.Since(missStart)
		// The streamed view, every fourth cycle: when the pump has
		// rendered the snapshot this is a cache hit, otherwise it joins
		// or performs that render (single flight).
		if n%4 == 0 {
			s.timedGet(b, cyc, op, "service.cache_hit_ms", "service.frame_hit", streamedURL, s.checkPNG)
		}
		// Then data + steer pairs for as long as the miss frame took (at
		// least one): each kind of request gets a like share of the
		// window whatever a render costs on this workload.
		for pairStart := time.Now(); ; {
			think()
			ok = s.timedGet(b, cyc, op, "live.data_latency_ms", "service.data",
				dataURL(jobURL, s.rois[pairs%len(s.rois)]), checkNodes) && ok
			steer := fmt.Sprintf(`{"op":"set-iolet","iolet":0,"density":%g}`, densities[pairs%2])
			think()
			ok = s.timedDo(b, cyc, op, "live.steer_rtt_ms", "service.steer", http.MethodPost, jobURL+"/steer",
				[]byte(steer), func([]byte) error { return nil }) && ok
			pairs++
			if time.Since(pairStart) >= miss || !time.Now().Before(deadline) {
				break
			}
		}
		// One step-rate sample per cycle.
		cur, err := b.job(s.ctx, s.d.base, id)
		now := time.Now()
		if s.res.op("watched job: read step", err) {
			if cur.State != service.StateRunning {
				s.res.op("watched job still running", fmt.Errorf("state %s: %s", cur.State, cur.Error))
			} else if prev.ID != "" {
				s.res.add("live.step_rate", float64(cur.Step-prev.Step)/now.Sub(prevAt).Seconds())
			}
			prev, prevAt = cur, now
		}
		s.tr.end(cyc)
		if !ok {
			time.Sleep(10 * time.Millisecond) // a dead daemon must not turn the loop into a spin
		}
	}
	counting.Store(false)
	s.res.op("watch: cancel", b.cancel(s.ctx, s.d.base, id))
	select {
	case err = <-ended:
	case <-time.After(5 * time.Second):
		err = errors.New("no end event within 5 s of the cancel")
		st.close() // unblocks the reader, which then reports and exits
		<-ended
	}
	s.res.op("stream ends with end", err)
	st.close()
}
