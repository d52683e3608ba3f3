// Package serve turns the simulator into a service: a stdlib-only HTTP
// daemon that queues Figure-1-style sweep grids as jobs, executes them
// on the shared internal/exp orchestrator, streams per-cell progress,
// and exposes Prometheus metrics. It is the network face of the same
// machinery cmd/sweep and cmd/figures drive from the command line.
//
// API surface (all JSON):
//
//	POST   /v1/sweeps           submit a grid (SweepRequest) → 202 + JobStatus,
//	                            200 when deduped to an existing job,
//	                            429 + Retry-After when the queue is full
//	POST   /v1/lbs              submit an LBS privacy-vs-utility grid
//	                            (lbs.SweepRequest); same codes as /v1/sweeps,
//	                            results come back as curves, not points
//	GET    /v1/jobs             list jobs in submission order
//	GET    /v1/jobs/{id}        status; includes points once done
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /v1/jobs/{id}/events stream the job's event log as NDJSON, or
//	                            SSE with Accept: text/event-stream
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness (always 200 while the process serves)
//	GET    /readyz              readiness (503 once draining)
//
// Identity and dedupe: a job's ID is the exp cache content address of
// its normalized request, so identical submissions — any client, any
// time — share one job, and a re-submission after completion returns
// the finished result instantly. Cell-level memoization through the
// shared .expcache/ additionally makes overlapping grids cheap even
// when the jobs differ.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"anongeo/internal/lbs"
)

// contextWithTimeout is context.WithTimeout from Background, with ≤0
// meaning no deadline (cancel-only).
func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return context.WithCancel(context.Background())
	}
	return context.WithTimeout(context.Background(), d)
}

// Server glues the Manager to an http.Handler.
type Server struct {
	man *Manager
	mux *http.ServeMux
}

// New builds a serving stack from opts (see Options for defaults).
func New(opts Options) (*Server, error) {
	man, err := NewManager(opts)
	if err != nil {
		return nil, err
	}
	s := &Server{man: man, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/sweeps", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/lbs", s.handleSubmitLBS)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ok\n")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if s.man.Draining() {
			http.Error(w, "draining", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, "ready\n")
	})
	return s, nil
}

// Handler is the daemon's root handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Manager exposes the job manager (drain, metrics, cache GC).
func (s *Server) Manager() *Manager { return s.man }

// apiError is the uniform JSON error envelope.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// submitResponse wraps a JobStatus with whether this POST created the
// job or hit an existing one.
type submitResponse struct {
	Created bool `json:"created"`
	JobStatus
}

// maxRequestBody caps a submission body; a legitimate grid request is
// a few KB even with a long fault plan.
const maxRequestBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if !decodeSubmission(w, r, &req) {
		return
	}
	job, created, err := s.man.Submit(req)
	s.finishSubmit(w, job, created, err)
}

// handleSubmitLBS is POST /v1/lbs: the same admission path as
// /v1/sweeps, for LBS privacy-vs-utility grids.
func (s *Server) handleSubmitLBS(w http.ResponseWriter, r *http.Request) {
	var req lbs.SweepRequest
	if !decodeSubmission(w, r, &req) {
		return
	}
	job, created, err := s.man.SubmitLBS(req)
	s.finishSubmit(w, job, created, err)
}

// decodeSubmission reads a submission body into req, writing the 400
// itself (and returning false) on any decode problem.
func decodeSubmission(w http.ResponseWriter, r *http.Request, req any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody))
	// Strict decode: an unknown or misspelled field is a client bug we
	// surface as a 400 naming the field, not a silently ignored knob.
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return false
	}
	if dec.More() {
		writeError(w, http.StatusBadRequest, "request body has trailing data")
		return false
	}
	return true
}

// finishSubmit maps a Manager admission result onto the wire.
func (s *Server) finishSubmit(w http.ResponseWriter, job *Job, created bool, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.man.opts.RetryAfter.Seconds())))
		writeError(w, http.StatusTooManyRequests, "%v: retry after %v", err, s.man.opts.RetryAfter)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	code := http.StatusOK // dedupe hit: existing job, possibly already done
	if created {
		code = http.StatusAccepted
	}
	w.Header().Set("Location", "/v1/jobs/"+job.ID)
	writeJSON(w, code, submitResponse{Created: created, JobStatus: job.snapshot()})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	jobs := s.man.Jobs()
	out := make([]JobStatus, len(jobs))
	for i, j := range jobs {
		st := j.snapshot()
		st.Points = nil // list stays light; fetch a job for its points
		st.Curves = nil
		out[i] = st
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobStatus `json:"jobs"`
	}{out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, err := s.man.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, job.snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	err := s.man.Cancel(id)
	switch {
	case errors.Is(err, ErrNotFound):
		writeError(w, http.StatusNotFound, "%v", err)
	case errors.Is(err, ErrTerminal):
		writeError(w, http.StatusConflict, "%v", err)
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
	default:
		job, _ := s.man.Job(id)
		writeJSON(w, http.StatusOK, job.snapshot())
	}
}

// handleEvents streams a job's event log: every event already recorded
// (replay), then live events as cells finish, until the job reaches a
// terminal state or the client goes away. Framing is NDJSON by
// default, SSE when the client asks for text/event-stream.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	job, err := s.man.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "streaming unsupported by connection")
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)

	enc := json.NewEncoder(w)
	seq := 0
	for {
		tail, wake, terminal := job.eventsSince(seq)
		for _, ev := range tail {
			if sse {
				fmt.Fprintf(w, "event: %s\ndata: ", ev.Type)
			}
			_ = enc.Encode(ev) // Encode appends the newline both framings need
			if sse {
				io.WriteString(w, "\n")
			}
		}
		seq += len(tail)
		flusher.Flush()
		if terminal && len(tail) == 0 {
			return
		}
		if terminal {
			// Drain whatever the terminal transition appended, then
			// loop once more to confirm nothing trails it.
			continue
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	depth, capacity := s.man.QueueStats()
	var quarantined int64
	if c := s.man.Cache(); c != nil {
		quarantined = c.Quarantined()
	}
	s.man.Metrics().WritePrometheus(w, depth, capacity, quarantined)
	if s.man.opts.ExtraMetrics != nil {
		s.man.opts.ExtraMetrics(w)
	}
}

// ListenAndServe runs the daemon on addr until shutdown is closed, then
// drains: admission stops, in-flight jobs get drainTimeout to finish
// (then hard-cancel), and the HTTP listener closes last so status reads
// work throughout the drain. It is the single entry point cmd/agrsimd
// wraps flags around.
func (s *Server) ListenAndServe(addr string, shutdown <-chan struct{}, drainTimeout time.Duration) error {
	srv := &http.Server{Addr: addr, Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	select {
	case err := <-errc:
		return err // bind failure or unexpected listener death
	case <-shutdown:
	}
	drainCtx, cancel := contextWithTimeout(drainTimeout)
	defer cancel()
	_ = s.man.Drain(drainCtx)
	httpCtx, cancel2 := contextWithTimeout(5 * time.Second)
	defer cancel2()
	err := srv.Shutdown(httpCtx)
	if errors.Is(err, context.DeadlineExceeded) {
		// The jobs have drained. What still holds the server open is a
		// connection that has not sent a request, which net/http counts
		// as active for its first 5 s; drop it.
		_ = srv.Close() // its error only repeats the listener close Shutdown did
		return nil
	}
	return err
}
