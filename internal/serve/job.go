package serve

import (
	"context"
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

// jobSpec is what a job runs, exactly as its admit record journals it:
// a routing sweep (POST /v1/sweeps) in Req or an LBS grid (POST /v1/lbs)
// in LBSReq, never both. Its methods are the one place serve tells the
// two kinds apart.
type jobSpec struct {
	Req    *SweepRequest     `json:"req,omitempty"`
	LBSReq *lbs.SweepRequest `json:"lbs_req,omitempty"`
}

// jobResult is a done job's folded grid, exactly as its done record
// journals it: density points for a sweep, curve points for an LBS grid.
type jobResult struct {
	Points []core.DensityPoint `json:"points,omitempty"`
	Curves []lbs.CurvePoint    `json:"curves,omitempty"`
}

// normalize canonicalizes and validates the request, and bounds its
// grid by maxCells for admission control.
func (s jobSpec) normalize(maxCells int) (jobSpec, error) {
	if s.LBSReq != nil {
		norm, err := s.LBSReq.Normalize()
		if err != nil {
			return s, err
		}
		if n := norm.NumCells(); n > maxCells {
			return s, fmt.Errorf("serve: request expands to %d cells, limit %d", n, maxCells)
		}
		return jobSpec{LBSReq: &norm}, nil
	}
	norm, err := s.Req.normalize(maxCells)
	return jobSpec{Req: &norm}, err
}

// id is the job's content address: exp.KeyOf over the normalized
// request, under a "lbs" kind tag for LBS grids so the two kinds can
// never collide. Identical submissions share one ID, and so one job.
func (s jobSpec) id() (string, error) {
	if s.LBSReq != nil {
		return exp.KeyOf(struct {
			Kind string           `json:"kind"`
			Req  lbs.SweepRequest `json:"req"`
		}{JobKindLBS, *s.LBSReq})
	}
	return exp.KeyOf(*s.Req)
}

// cells is the grid size of the normalized request.
func (s jobSpec) cells() int {
	if s.LBSReq != nil {
		return s.LBSReq.NumCells()
	}
	return s.Req.Cells()
}

// describe fills the status fields that name the request: Request is
// always present (the zero SweepRequest on LBS jobs, for clients that
// predate them), Kind and LBSRequest only on LBS jobs.
func (s jobSpec) describe(st *JobStatus) {
	if s.LBSReq != nil {
		st.Kind, st.LBSRequest = JobKindLBS, s.LBSReq
		return
	}
	st.Request = *s.Req
}

// run executes the grid on m's orchestrator for the spec's kind,
// streaming per-cell telemetry to hook, and returns the cell counts and
// the run error. The result is folded only on clean completion.
func (s jobSpec) run(ctx context.Context, m *Manager, hook exp.Hook) (jobResult, CellCounts, error) {
	if r := s.LBSReq; r != nil {
		outs, counts, err := execute(ctx, m.lbsOrch, r.Cells(), hook)
		if err != nil {
			return jobResult{}, counts, err
		}
		return jobResult{Curves: lbs.Fold(*r, outs)}, counts, nil
	}
	r := s.Req
	pts, err := core.DensityGrid(r.Base, r.NodeCounts, r.Protocols, r.Repeats).Points() // validated at admission
	if err != nil {
		return jobResult{}, CellCounts{}, err
	}
	outs, counts, err := execute(ctx, m.orch, core.Cells(pts), hook)
	if err != nil {
		return jobResult{}, counts, err
	}
	core.Fold(pts, outs)
	return jobResult{Points: core.DensityPoints(pts)}, counts, nil
}

// execute runs cells on o and tallies the outcomes.
func execute[C, R any](ctx context.Context, o *exp.Orchestrator[C, R], cells []exp.Cell[C], hook exp.Hook) ([]exp.Outcome[R], CellCounts, error) {
	outs, err := o.ExecuteContext(ctx, cells, hook)
	counts := CellCounts{Total: len(outs)}
	for _, oc := range outs {
		if oc.Cached {
			counts.Cached++
		}
		if oc.Err != nil {
			counts.Failed++
		}
	}
	return outs, counts, err
}

// Job is one admitted job: what it runs, its lifecycle state, the event
// log feeding /events streams, and — once done — the folded result. A
// job's state is exactly what its journal records carry, so a restart
// rebuilds it by replaying them (see foldWAL).
type Job struct {
	// ID is the deterministic content address of the normalized
	// request (see jobSpec.id), so identical submissions collide onto
	// one job.
	ID   string
	spec jobSpec

	mu       sync.Mutex
	state    JobState
	err      string
	created  time.Time
	started  time.Time
	finished time.Time
	result   jobResult
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

func newJob(id string, spec jobSpec, now time.Time) *Job {
	j := &Job{ID: id, spec: spec, state: JobQueued, created: now, wake: make(chan struct{})}
	j.append(JobEvent{State: JobQueued, Event: exp.Event{Type: eventJobQueued, Total: spec.cells()}})
	return j
}

// record is the journal record of the job's terminal state. The done
// record carries the folded result and cell counts, so a restarted
// daemon serves the job without touching the orchestrator.
func (j *Job) record() walRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec := walRecord{ID: j.ID, Time: j.finished, Err: j.err}
	switch j.state {
	case JobDone:
		cells := j.cells
		rec.Op, rec.jobResult, rec.Cells = walDone, j.result, &cells
	case JobFailed:
		rec.Op = walFail
	case JobCanceled:
		rec.Op = walCancel
	}
	return rec
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
	}
	j.spec.describe(&st)
	if !j.started.IsZero() {
		t := j.started
		st.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.Finished = &t
	}
	if j.state == JobDone {
		st.Points = wirePoints(j.result.Points)
		st.Curves = j.result.Curves
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
