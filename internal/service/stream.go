package service

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/insitu"
)

// streamWriteTimeout bounds one SSE event write: a client that stops
// reading long enough to exceed it is dropped, freeing the handler.
const streamWriteTimeout = 30 * time.Second

// hubChanDepth is each subscriber's frame buffer; when it is full the
// hub drops frames for that subscriber instead of waiting — a slow
// consumer skips frames, it never applies backpressure to the pump,
// the render pool or the solver.
const hubChanDepth = 8

// streamFrame is the JSON payload of one SSE "frame" event.
type streamFrame struct {
	Step int    `json:"step"`
	W    int    `json:"w"`
	H    int    `json:"h"`
	PNG  string `json:"png_b64"`
}

// streamEnd is the JSON payload of the terminating "end" event.
type streamEnd struct {
	State JobState `json:"state"`
	Error string   `json:"error,omitempty"`
}

// viewHub fans one (job, view) frame sequence out to any number of
// subscribers. A single pump goroutine follows the job's snapshots,
// renders each one exactly once (through the frame cache, so on-demand
// /frame pollers share the same render) and broadcasts the encoded
// frame — N subscribers cost N channel sends, not N renders.
type viewHub struct {
	key string

	mu   sync.Mutex
	subs map[chan streamFrame]struct{}
	// lastFrame seeds late joiners: a subscriber arriving between
	// snapshots (or on a paused job that will not publish again) still
	// receives the current frame immediately.
	lastFrame *streamFrame
	// nudge wakes the pump when the last subscriber leaves so it can
	// retire without waiting for the next snapshot.
	nudge chan struct{}
	// dead marks a retired hub; guarded by the manager's hubsMu so
	// Subscribe never joins a hub whose pump has exited.
	dead bool
}

// Subscribe attaches a new frame channel to the (job, view) hub,
// starting its pump if this is the first subscriber. The returned
// cancel detaches; the channel closes when the job terminates or the
// stream aborts.
func (m *Manager) Subscribe(j *Job, req insitu.Request) (<-chan streamFrame, func()) {
	key := frameKey(j.ID, req)
	ch := make(chan streamFrame, hubChanDepth)
	m.hubsMu.Lock()
	h := m.hubs[key]
	if h == nil || h.dead {
		h = &viewHub{
			key:   key,
			subs:  map[chan streamFrame]struct{}{ch: {}},
			nudge: make(chan struct{}, 1),
		}
		m.hubs[key] = h
		m.hubsMu.Unlock()
		go m.pumpView(j, req, h)
	} else {
		h.mu.Lock()
		if h.lastFrame != nil {
			ch <- *h.lastFrame // fresh channel: never blocks
		}
		h.subs[ch] = struct{}{}
		h.mu.Unlock()
		m.hubsMu.Unlock()
	}
	return ch, func() { m.unsubscribe(h, ch) }
}

func (m *Manager) unsubscribe(h *viewHub, ch chan streamFrame) {
	h.mu.Lock()
	if _, ok := h.subs[ch]; !ok {
		h.mu.Unlock()
		return
	}
	delete(h.subs, ch)
	empty := len(h.subs) == 0
	h.mu.Unlock()
	if empty {
		select {
		case h.nudge <- struct{}{}:
		default:
		}
	}
}

// reapHubIfEmpty retires the hub when no subscribers remain; returns
// true if the pump should exit. Lock order hubsMu → h.mu matches
// Subscribe, so a racing subscriber either finds the hub alive or
// starts a fresh one.
func (m *Manager) reapHubIfEmpty(h *viewHub) bool {
	m.hubsMu.Lock()
	h.mu.Lock()
	if len(h.subs) > 0 {
		h.mu.Unlock()
		m.hubsMu.Unlock()
		return false
	}
	h.dead = true
	if m.hubs[h.key] == h {
		delete(m.hubs, h.key)
	}
	h.mu.Unlock()
	m.hubsMu.Unlock()
	return true
}

// killHub retires the hub and closes every subscriber channel — the
// end-of-stream signal (job terminal, or the stream aborted).
func (m *Manager) killHub(h *viewHub) {
	m.hubsMu.Lock()
	h.mu.Lock()
	h.dead = true
	if m.hubs[h.key] == h {
		delete(m.hubs, h.key)
	}
	subs := make([]chan streamFrame, 0, len(h.subs))
	for ch := range h.subs {
		subs = append(subs, ch)
	}
	h.subs = map[chan streamFrame]struct{}{}
	h.mu.Unlock()
	m.hubsMu.Unlock()
	for _, ch := range subs {
		close(ch)
	}
}

// pumpView is the hub's single producer: follow the snapshot feed,
// render each new snapshot once, broadcast. It runs from first
// subscriber to job termination (or until everyone unsubscribes).
func (m *Manager) pumpView(j *Job, req insitu.Request, h *viewHub) {
	last := -1
	for {
		if m.reapHubIfEmpty(h) {
			return
		}
		snap, newer := j.LatestSnapshot()
		if snap == nil || snap.Step == last {
			if j.State().Terminal() {
				m.killHub(h)
				return
			}
			// Publication is demand-driven: a live stream keeps the
			// interest latch set so the solver publishes at every
			// cadence check while we wait for the next snapshot.
			j.wantSnapshot()
			select {
			case <-newer:
			case <-h.nudge:
			}
			continue
		}
		png, fw, fh, err := m.frameFromSnapshot(j, snap, req)
		if err != nil {
			j.log.Warn("stream render failed; ending streams for view", "step", snap.Step, "err", err)
			m.killHub(h)
			return
		}
		f := streamFrame{
			Step: snap.Step, W: fw, H: fh,
			PNG: base64.StdEncoding.EncodeToString(png),
		}
		h.mu.Lock()
		h.lastFrame = &f
		for ch := range h.subs {
			select {
			case ch <- f:
			default: // slow subscriber: skip this frame for them
			}
		}
		h.mu.Unlock()
		last = snap.Step
	}
}

// handleStream serves GET /api/v1/jobs/{id}/stream: a Server-Sent
// Events feed that pushes a frame whenever the solver publishes a new
// snapshot, replacing poll loops. All subscribers of one view share a
// single render per snapshot via the hub + frame cache; a slow client
// only loses its own frames.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	req, err := frameRequest(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	if !j.Spec.SnapshotsEnabled() {
		writeErr(w, ErrNoSnapshot)
		return
	}
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeErr(w, fmt.Errorf("%w: response writer cannot stream", ErrInternal))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()

	metrics := s.mgr.Metrics()
	metrics.StreamClients.Add(1)
	defer metrics.StreamClients.Add(-1)

	frames, cancelSub := s.mgr.Subscribe(j, req)
	defer cancelSub()
	rc := http.NewResponseController(w)
	ctx := r.Context()
	for {
		select {
		case f, open := <-frames:
			if !open {
				st := j.State()
				end := streamEnd{State: st}
				if !st.Terminal() {
					end.Error = "stream aborted"
				}
				writeSSE(w, fl, rc, "end", end)
				return
			}
			if !writeSSE(w, fl, rc, "frame", f) {
				return // client gone or write timed out
			}
			metrics.FramesStreamed.Add(1)
		case <-ctx.Done():
			return
		case <-s.closing:
			// Graceful shutdown: end every stream so the HTTP server
			// can drain instead of waiting on infinite responses.
			writeSSE(w, fl, rc, "end", streamEnd{State: j.State(), Error: "server shutting down"})
			return
		}
	}
}

// writeSSE emits one named event with a JSON data line under a write
// deadline and flushes; returns false once the connection is
// unwritable.
func writeSSE(w http.ResponseWriter, fl http.Flusher, rc *http.ResponseController, event string, payload any) bool {
	data, err := json.Marshal(payload)
	if err != nil {
		return false
	}
	_ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout))
	if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
		return false
	}
	fl.Flush()
	return true
}
