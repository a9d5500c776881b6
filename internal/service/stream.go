package service

import (
	"encoding/base64"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// streamWriteTimeout bounds one SSE event write: a client that stops
// reading long enough to exceed it is dropped, freeing the handler.
const streamWriteTimeout = 30 * time.Second

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

// handleStream serves GET /api/v1/jobs/{id}/stream: a Server-Sent
// Events feed that pushes a frame whenever the solver publishes a new
// snapshot, replacing poll loops. Each subscriber follows the snapshots
// itself — the latest one not yet written, rendered through the frame
// lru, whose single flight makes N subscribers of one view cost one
// render per snapshot. A slow client skips to the latest snapshot
// instead of draining a backlog, and a late joiner starts at the
// current one, usually a cache hit.
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

	rc := http.NewResponseController(w)
	ctx := r.Context()
	var shown uint64 // Seq of the last snapshot written (Seqs start at 1)
	for {
		snap, newer := j.LatestSnapshot()
		if snap == nil || snap.Seq == shown {
			if st := j.State(); st.Terminal() {
				writeSSE(w, fl, rc, "end", streamEnd{State: st})
				return
			}
			// Publication is demand-driven: latch interest so the solver
			// publishes at its next cadence check, then wait for it.
			j.wantSnapshot()
			select {
			case <-newer:
				continue
			case <-ctx.Done():
				return
			case <-s.closing:
				// Graceful shutdown: end every stream so the HTTP server
				// can drain instead of waiting on infinite responses.
				writeSSE(w, fl, rc, "end", streamEnd{State: j.State(), Error: "server shutting down"})
				return
			}
		}
		png, fw, fh, err := s.mgr.frameFromSnapshot(snap, req)
		if err != nil {
			j.log.Warn("stream render failed; ending stream", "step", snap.Step, "err", err)
			end := streamEnd{State: j.State()}
			if !end.State.Terminal() {
				end.Error = "stream aborted"
			}
			writeSSE(w, fl, rc, "end", end)
			return
		}
		f := streamFrame{Step: snap.Step, W: fw, H: fh, PNG: base64.StdEncoding.EncodeToString(png)}
		if !writeSSE(w, fl, rc, "frame", f) {
			return // client gone or write timed out
		}
		metrics.FramesStreamed.Add(1)
		shown = snap.Seq
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
