package serve

import (
	"fmt"
	"sync"
	"time"

	"anongeo/internal/core"
	"anongeo/internal/exp"
	"anongeo/internal/lbs"
)

// JobState is one station in a job's lifecycle. The machine is strictly
// forward: queued → running → {done, failed, canceled}, with the
// shortcut queued → canceled for jobs canceled before a scheduler
// worker picked them up. Terminal states never transition again.
type JobState string

// The job lifecycle states.
const (
	JobQueued   JobState = "queued"
	JobRunning  JobState = "running"
	JobDone     JobState = "done"
	JobFailed   JobState = "failed"
	JobCanceled JobState = "canceled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == JobDone || s == JobFailed || s == JobCanceled
}

// Job-level telemetry event types, sharing the wire vocabulary (and the
// exp.Event envelope) with the orchestrator's per-cell events so one
// stream carries both.
const (
	eventJobQueued   exp.EventType = "job-queued"
	eventJobStarted  exp.EventType = "job-started"
	eventJobFinished exp.EventType = "job-finished"
)

// JobEvent is one record in a job's event log: an exp telemetry event
// stamped with a per-job sequence number and, for job-level events, the
// lifecycle state entered. Streamed to clients as NDJSON or SSE.
type JobEvent struct {
	Seq   int      `json:"seq"`
	JobID string   `json:"job_id"`
	State JobState `json:"state,omitempty"`
	exp.Event
}

// CellCounts summarizes a finished grid for status responses.
type CellCounts struct {
	Total  int `json:"total"`
	Cached int `json:"cached"`
	Failed int `json:"failed"`
}

// Job is one admitted sweep: the normalized request, its lifecycle
// state, the event log feeding /events streams, and — once done — the
// folded grid points.
type Job struct {
	// ID is the deterministic content address of the normalized
	// request (exp.KeyOf over request JSON + cache schema version), so
	// identical submissions collide onto one job.
	ID string
	// Req is the normalized request the job runs.
	Req SweepRequest
	// LBSReq, when non-nil, marks this as an LBS job (POST /v1/lbs):
	// Req is ignored and the job executes an lbs privacy-vs-utility
	// grid instead of a routing sweep.
	LBSReq *lbs.SweepRequest

	mu       sync.Mutex
	state    JobState
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	points   []core.DensityPoint
	curves   []lbs.CurvePoint
	cells    CellCounts

	// events is the append-only job log; wake is closed and replaced on
	// every append (and on terminal transition) so any number of
	// streaming subscribers can wait without polling.
	events []JobEvent
	wake   chan struct{}

	// cancel, set while running, tears down the job's execution
	// context. canceled latches a cancel request made while queued.
	cancel   func()
	canceled bool
}

func newJob(id string, req SweepRequest, now time.Time) *Job {
	j := &Job{ID: id, Req: req, state: JobQueued, created: now, wake: make(chan struct{})}
	j.append(JobEvent{State: JobQueued, Event: exp.Event{Type: eventJobQueued, Total: req.Cells()}})
	return j
}

func newLBSJob(id string, req lbs.SweepRequest, now time.Time) *Job {
	j := &Job{ID: id, LBSReq: &req, state: JobQueued, created: now, wake: make(chan struct{})}
	j.append(JobEvent{State: JobQueued, Event: exp.Event{Type: eventJobQueued, Total: req.NumCells()}})
	return j
}

// totalCells is the job's grid size regardless of kind.
func (j *Job) totalCells() int {
	if j.LBSReq != nil {
		return j.LBSReq.NumCells()
	}
	return j.Req.Cells()
}

// restoreJob rebuilds a terminal job from its journal state after a
// restart: status, error, timestamps, cell counts, and — for done jobs
// — the folded points, plus a synthesized event log so /events replays
// a coherent (if condensed) history. Restored jobs never run again;
// only Submit can start a fresh attempt (failed/canceled IDs are
// retryable, done IDs dedupe).
func restoreJob(w *walJob) *Job {
	j := &Job{
		ID: w.id, Req: w.req, LBSReq: w.lbsReq,
		state: w.state, err: w.err,
		created: w.created, started: w.started, finished: w.finished,
		points: w.points, curves: w.curves, cells: w.cells,
		wake: make(chan struct{}),
	}
	evs := []JobEvent{{State: JobQueued, Event: exp.Event{Type: eventJobQueued, Total: j.totalCells()}}}
	if !w.started.IsZero() {
		evs = append(evs, JobEvent{State: JobRunning, Event: exp.Event{Type: eventJobStarted}})
	}
	evs = append(evs, JobEvent{State: w.state, Event: exp.Event{Type: eventJobFinished, Err: w.err}})
	for i := range evs {
		evs[i].Seq = i
		evs[i].JobID = w.id
	}
	j.events = evs
	return j
}

// append adds ev to the log (stamping seq and job ID) and wakes
// subscribers. Callers must not hold j.mu.
func (j *Job) append(ev JobEvent) {
	j.mu.Lock()
	j.appendLocked(ev)
	j.mu.Unlock()
}

// appendLocked is append for callers holding j.mu.
func (j *Job) appendLocked(ev JobEvent) {
	ev.Seq = len(j.events)
	ev.JobID = j.ID
	j.events = append(j.events, ev)
	close(j.wake)
	j.wake = make(chan struct{})
}

// Emit implements exp.Hook: the job's per-run hook forwards every
// orchestrator event into the job log, which is what /events streams.
func (j *Job) Emit(ev exp.Event) {
	j.append(JobEvent{Event: ev})
}

// snapshot returns the fields a status response needs, consistently.
func (j *Job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:      j.ID,
		State:   j.state,
		Error:   j.err,
		Created: j.created,
		Cells:   j.cells,
		Request: j.Req,
	}
	if j.LBSReq != nil {
		st.Kind = JobKindLBS
		st.LBSRequest = j.LBSReq
	}
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.state == JobDone {
		st.Points = wirePoints(j.points)
		st.Curves = j.curves
	}
	return st
}

// transition moves the job to state, recording timestamps and the
// error, and logs the matching job-level event in the same critical
// section, so a reader that sees a terminal state also sees its
// job-finished event. It is a no-op if the job is already terminal (a
// cancel racing a natural finish keeps whichever landed first).
func (j *Job) transition(state JobState, errMsg string, now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.err = errMsg
	evType := eventJobStarted
	switch state {
	case JobRunning:
		j.started = now
	case JobDone, JobFailed, JobCanceled:
		j.finished = now
		evType = eventJobFinished
	}
	j.appendLocked(JobEvent{State: state, Event: exp.Event{Type: evType, Err: errMsg}})
	return true
}

// eventsSince returns the log tail from seq on, plus the channel that
// will be closed at the next append and whether the job is terminal —
// everything a streaming subscriber needs for one wait cycle.
func (j *Job) eventsSince(seq int) (tail []JobEvent, wake <-chan struct{}, terminal bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if seq < len(j.events) {
		tail = append(tail, j.events[seq:]...)
	}
	return tail, j.wake, j.state.Terminal()
}

// State reports the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// JobKindLBS marks a job submitted through POST /v1/lbs. Sweep jobs
// carry no kind — the zero value keeps the wire form (and the WAL)
// identical to what pre-LBS builds produced.
const JobKindLBS = "lbs"

// JobStatus is the wire form of a job for GET /v1/jobs/{id}. Request is
// always present for compatibility; for LBS jobs it is the zero
// SweepRequest and clients read Kind/LBSRequest/Curves instead.
type JobStatus struct {
	ID         string            `json:"id"`
	Kind       string            `json:"kind,omitempty"`
	State      JobState          `json:"state"`
	Error      string            `json:"error,omitempty"`
	Created    time.Time         `json:"created"`
	Started    *time.Time        `json:"started,omitempty"`
	Finished   *time.Time        `json:"finished,omitempty"`
	Cells      CellCounts        `json:"cells"`
	Points     []SweepPoint      `json:"points,omitempty"`
	Curves     []lbs.CurvePoint  `json:"curves,omitempty"`
	Request    SweepRequest      `json:"request"`
	LBSRequest *lbs.SweepRequest `json:"lbs_request,omitempty"`
}

// SweepPoint is one folded grid cell in wire form: the Figure 1
// quantities plus the raw counters they derive from, and the full
// Result for clients that want everything.
type SweepPoint struct {
	Protocol     string      `json:"protocol"`
	Nodes        int         `json:"nodes"`
	PDF          float64     `json:"pdf"`
	AvgLatencyMS float64     `json:"avg_latency_ms"`
	P95LatencyMS float64     `json:"p95_latency_ms"`
	AvgHops      float64     `json:"avg_hops"`
	Sent         int         `json:"sent"`
	Delivered    int         `json:"delivered"`
	Result       core.Result `json:"result"`
}

func wirePoints(points []core.DensityPoint) []SweepPoint {
	out := make([]SweepPoint, len(points))
	for i, p := range points {
		s := p.Result.Summary
		out[i] = SweepPoint{
			Protocol:     p.Protocol.String(),
			Nodes:        p.Nodes,
			PDF:          s.DeliveryFraction,
			AvgLatencyMS: float64(s.AvgLatency) / float64(time.Millisecond),
			P95LatencyMS: float64(s.P95Latency) / float64(time.Millisecond),
			AvgHops:      s.AvgHops,
			Sent:         s.Sent,
			Delivered:    s.Delivered,
			Result:       p.Result,
		}
	}
	return out
}

// String implements fmt.Stringer for log lines.
func (j *Job) String() string {
	return fmt.Sprintf("job %s [%s]", shortID(j.ID), j.State())
}

// shortID abbreviates a 64-hex job ID for logs; full IDs stay on the
// wire.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}
