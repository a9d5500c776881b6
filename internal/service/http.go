package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/field"
	"repro/internal/insitu"
	"repro/internal/steering"
	"repro/internal/vec"
)

// Server is the HTTP front of the job manager: the multi-tenant API
// (submit/list/steer/frames/data) plus operational endpoints
// (/metrics, /healthz). All handlers are stdlib net/http.
type Server struct {
	mgr  *Manager
	http *http.Server
	ln   net.Listener
	// closing tells long-lived handlers (SSE streams) to wind down so
	// graceful shutdown is not held hostage by infinite responses.
	closing   chan struct{}
	closeOnce sync.Once
}

// NewServer wires the API over a manager. Every route is registered
// through a per-route latency wrapper: the route pattern is the
// histogram label, captured at registration so the hot path does one
// HistogramSet lookup per server lifetime, not per request.
func NewServer(mgr *Manager) *Server {
	s := &Server{mgr: mgr, closing: make(chan struct{})}
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		hist := mgr.Metrics().HTTPLatency.Get(pattern)
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
			h(sw, r)
			hist.Observe(time.Since(start).Nanoseconds())
			mgr.log.Debug("http request", "route", pattern, "path", r.URL.Path,
				"status", sw.code, "dur", time.Since(start))
		})
	}
	handle("POST /api/v1/jobs", s.handleSubmit)
	handle("GET /api/v1/jobs", s.handleList)
	handle("GET /api/v1/jobs/{id}", s.handleGet)
	handle("DELETE /api/v1/jobs/{id}", s.handleCancel)
	handle("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	handle("POST /api/v1/jobs/{id}/pause", s.handlePause)
	handle("POST /api/v1/jobs/{id}/resume", s.handleResume)
	handle("POST /api/v1/jobs/{id}/steer", s.handleSteer)
	handle("GET /api/v1/jobs/{id}/status", s.handleStatus)
	handle("GET /api/v1/jobs/{id}/frame", s.handleFrame)
	handle("GET /api/v1/jobs/{id}/stream", s.handleStream)
	handle("GET /api/v1/jobs/{id}/data", s.handleData)
	handle("GET /api/v1/jobs/{id}/events", s.handleEvents)
	handle("GET /metrics", s.handleMetrics)
	handle("GET /healthz", s.handleHealthz)
	counted := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.mgr.Metrics().HTTPRequests.Add(1)
		// Admission: API routes resolve their tenant (401 on a bad or
		// missing key when keys are configured); operational endpoints
		// (/healthz, /metrics) stay open for probes and scrapers.
		if strings.HasPrefix(r.URL.Path, "/api/") {
			tenant, ok := s.authenticate(r)
			if !ok {
				s.mgr.Metrics().AuthFailures.Add(1)
				writeErr(w, ErrUnauthorized)
				return
			}
			r = r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tenant))
		}
		mux.ServeHTTP(w, r)
	})
	s.http = &http.Server{
		Handler:           counted,
		ReadHeaderTimeout: 10 * time.Second,
		// Hardening against slow or hostile clients: bounded header
		// size, bounded idle keep-alives, and a write deadline per
		// response. SSE streams are exempt from WriteTimeout by
		// construction — writeSSE re-arms a per-event deadline through
		// http.NewResponseController, which overrides the server-wide
		// setting for that connection.
		ReadTimeout:    30 * time.Second,
		WriteTimeout:   60 * time.Second,
		IdleTimeout:    120 * time.Second,
		MaxHeaderBytes: 64 << 10,
	}
	return s
}

// Request body caps: a submit spec or steer command is small JSON; a
// client streaming us megabytes is a mistake or an attack either way.
const (
	maxSubmitBody = 1 << 20  // 1 MiB
	maxSteerBody  = 64 << 10 // 64 KiB
)

// tenantCtxKey carries the authenticated tenant through the request
// context.
type tenantCtxKey struct{}

// tenantFrom returns the authenticated tenant ("" for routes outside
// the auth middleware).
func tenantFrom(r *http.Request) string {
	t, _ := r.Context().Value(tenantCtxKey{}).(string)
	return t
}

// authenticate resolves the request's tenant. Keys ride Authorization:
// Bearer or X-API-Key. Without a configured key set, every caller is
// the anonymous tenant; with one, keyless requests are allowed only
// from loopback (the operator's own curl), everything else is a 401.
func (s *Server) authenticate(r *http.Request) (string, bool) {
	if !s.mgr.AuthRequired() {
		return AnonymousTenant, true
	}
	key := r.Header.Get("X-API-Key")
	if key == "" {
		if ah := r.Header.Get("Authorization"); strings.HasPrefix(ah, "Bearer ") {
			key = strings.TrimSpace(strings.TrimPrefix(ah, "Bearer "))
		}
	}
	if key != "" {
		return s.mgr.ResolveKey(key)
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		if ip := net.ParseIP(host); ip != nil && ip.IsLoopback() {
			return AnonymousTenant, true
		}
	}
	return "", false
}

// statusWriter captures the response code for logging while passing
// Flush/Unwrap through, so SSE streaming keeps working behind the
// latency middleware.
type statusWriter struct {
	http.ResponseWriter
	code        int
	wroteHeader bool
}

func (w *statusWriter) WriteHeader(code int) {
	if !w.wroteHeader {
		w.code = code
		w.wroteHeader = true
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	w.wroteHeader = true
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.NewResponseController reach the underlying writer's
// deadline and flush hooks.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Start binds addr and serves in the background; it returns once the
// listener is live so callers can read Addr immediately.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	go s.http.Serve(ln)
	return nil
}

// Addr is the bound listen address.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown ends live streams, drains HTTP connections, then cancels
// every live job and waits for the worker pool — the graceful stop.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() { close(s.closing) })
	err := s.http.Shutdown(ctx)
	s.mgr.Close()
	return err
}

// writeErr maps manager errors onto status codes.
func writeErr(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrInternal):
		// keep 500: server-side failure, not the client's fault
	case errors.Is(err, ErrNotFound):
		code = http.StatusNotFound
	case errors.Is(err, ErrUnauthorized):
		code = http.StatusUnauthorized
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverloaded),
		errors.Is(err, ErrQuotaExceeded), errors.Is(err, ErrRateLimited):
		// Shedding, not failing: tell the client when to come back.
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, ErrClosed), errors.Is(err, ErrResumeAborted):
		code = http.StatusServiceUnavailable
	case errors.Is(err, ErrNotRunning), errors.Is(err, ErrFinished),
		errors.Is(err, ErrNoSnapshot), errors.Is(err, steering.ErrClosed):
		// steering.ErrClosed surfaces when a job reaches a terminal
		// state between the handler's state check and the op — the
		// request was fine, the job is just gone.
		code = http.StatusConflict
	case strings.Contains(err.Error(), "service:"):
		code = http.StatusBadRequest
	case strings.Contains(err.Error(), "steering:"):
		code = http.StatusBadRequest
	}
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) job(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, err := s.mgr.Get(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return nil, false
	}
	return j, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	body := http.MaxBytesReader(w, r.Body, maxSubmitBody)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		writeErr(w, fmt.Errorf("service: bad spec: %w", err))
		return
	}
	j, err := s.mgr.SubmitAs(tenantFrom(r), spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, j.Info())
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.mgr.List()})
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.job(w, r); ok {
		writeJSON(w, http.StatusOK, j.Info())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if err := s.mgr.Cancel(j); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Info())
}

func (s *Server) handlePause(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	if err := s.mgr.Pause(j); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Info())
}

func (s *Server) handleResume(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	// Resume may wait for a worker slot; abort the wait if the client
	// goes away or the server starts draining, so a full pool cannot
	// strand handler goroutines.
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-s.closing:
			cancel()
		case <-stop:
		}
	}()
	if err := s.mgr.Resume(ctx, j); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, j.Info())
}

func (s *Server) handleSteer(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	var msg steering.ClientMsg
	body := http.MaxBytesReader(w, r.Body, maxSteerBody)
	if err := json.NewDecoder(body).Decode(&msg); err != nil {
		writeErr(w, fmt.Errorf("service: bad steer body: %w", err))
		return
	}
	if err := s.mgr.Steer(j, msg); err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"applied": msg.Op})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	st, err := s.mgr.Status(j)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleFrame(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	req, err := frameRequest(r)
	if err != nil {
		writeErr(w, err)
		return
	}
	png, imgW, imgH, err := s.mgr.Frame(j, req)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "image/png")
	w.Header().Set("X-Frame-Width", strconv.Itoa(imgW))
	w.Header().Set("X-Frame-Height", strconv.Itoa(imgH))
	w.Write(png)
}

func (s *Server) handleData(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	q := r.URL.Query()
	roiMin, err := parseV3(q.Get("min"))
	if err != nil {
		writeErr(w, err)
		return
	}
	roiMax, err := parseV3(q.Get("max"))
	if err != nil {
		writeErr(w, err)
		return
	}
	detail := parseIntDefault(q.Get("detail"), 0)
	context := parseIntDefault(q.Get("context"), 3)
	reply, err := s.mgr.Data(j, roiMin, roiMax, detail, context)
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(reply.Size()))
	reply.WriteTo(w) // a failed write is a client that went away
}

// handleEvents serves the job's flight recorder: the most recent ring
// of lifecycle/phase events plus the total ever emitted (a first
// returned seq above 1 means older events were overwritten). Works for
// queued, live and terminal jobs alike — the ring outlives the run.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.job(w, r)
	if !ok {
		return
	}
	events := j.rec.Events()
	writeJSON(w, http.StatusOK, map[string]any{
		"job":    j.ID,
		"state":  j.State(),
		"total":  j.rec.Seq(),
		"events": events,
	})
}

// handleHealthz answers 200 "ok" while the service is fully healthy,
// 200 "degraded" while it is serving without durability (disk
// pressure — still routable, but worth alerting on), and 503 once
// shutdown begins (server draining or manager closed), so load
// balancers stop routing before in-flight connections finish.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	draining := s.mgr.Draining()
	select {
	case <-s.closing:
		draining = true
	default:
	}
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if s.mgr.StoreDegraded() {
		w.Write([]byte("degraded\n"))
		return
	}
	w.Write([]byte("ok\n"))
}

// handleMetrics serves the Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.mgr.Metrics().WritePrometheus(w)
}

// frameRequest parses the render query parameters, defaulting to the
// unattended in situ view.
func frameRequest(r *http.Request) (insitu.Request, error) {
	q := r.URL.Query()
	req := insitu.DefaultRequest()
	req.Scalar = field.ScalarSpeed
	if v := q.Get("w"); v != "" {
		req.W = parseIntDefault(v, req.W)
	}
	if v := q.Get("h"); v != "" {
		req.H = parseIntDefault(v, req.H)
	}
	if req.W <= 0 || req.H <= 0 || req.W > 2048 || req.H > 2048 {
		return req, fmt.Errorf("service: frame size %dx%d out of range", req.W, req.H)
	}
	switch m := q.Get("mode"); m {
	case "", "volume":
		req.Mode = insitu.ModeVolume
	case "streamlines":
		req.Mode = insitu.ModeStreamlines
	case "lic":
		req.Mode = insitu.ModeLIC
	case "wall":
		// Wall shear stress rides along in every snapshot, so wall-mode
		// renders work on the offload path like any other view.
		req.Mode = insitu.ModeWall
	default:
		return req, fmt.Errorf("service: unknown mode %q", m)
	}
	switch sc := q.Get("scalar"); sc {
	case "", "speed":
		req.Scalar = field.ScalarSpeed
	case "rho", "density":
		req.Scalar = field.ScalarRho
	case "wss":
		req.Scalar = field.ScalarWSS
	default:
		return req, fmt.Errorf("service: unknown scalar %q", sc)
	}
	req.Azimuth = parseFloatDefault(q.Get("az"), req.Azimuth)
	req.Elevation = parseFloatDefault(q.Get("el"), req.Elevation)
	req.DistFactor = parseFloatDefault(q.Get("dist"), req.DistFactor)
	if v := q.Get("roi_min"); v != "" {
		mn, err := parseV3(v)
		if err != nil {
			return req, err
		}
		mx, err := parseV3(q.Get("roi_max"))
		if err != nil {
			return req, err
		}
		req.ROI = vec.NewBox(vec.New(mn[0], mn[1], mn[2]), vec.New(mx[0], mx[1], mx[2]))
	}
	return req, nil
}

// parseV3 reads "x,y,z"; empty means origin.
func parseV3(s string) ([3]float64, error) {
	var v [3]float64
	if s == "" {
		return v, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != 3 {
		return v, fmt.Errorf("service: want x,y,z, got %q", s)
	}
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return v, fmt.Errorf("service: bad coordinate %q", p)
		}
		v[i] = f
	}
	return v, nil
}

func parseIntDefault(s string, def int) int {
	if s == "" {
		return def
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return def
	}
	return v
}

func parseFloatDefault(s string, def float64) float64 {
	if s == "" {
		return def
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return def
	}
	return v
}
