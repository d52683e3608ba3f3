package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"sync"
	"time"

	"anongeo/internal/core"
	"anongeo/internal/durable"
	"anongeo/internal/exp"
	"anongeo/internal/lbs"
)

// Sentinel errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull is admission control saying no: the bounded FIFO
	// queue is at capacity. Maps to 429 + Retry-After.
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrDraining rejects new work while the daemon shuts down. Maps
	// to 503.
	ErrDraining = errors.New("serve: draining, not accepting new jobs")
	// ErrNotFound is an unknown job ID. Maps to 404.
	ErrNotFound = errors.New("serve: no such job")
	// ErrTerminal rejects canceling a job that already finished. Maps
	// to 409.
	ErrTerminal = errors.New("serve: job already terminal")
)

// Options tunes the serving subsystem; zero values get sensible
// defaults (see New).
type Options struct {
	// QueueDepth bounds the admission FIFO: jobs beyond the bound are
	// rejected with ErrQueueFull. Default 16.
	QueueDepth int
	// JobWorkers is how many jobs execute concurrently; each job's
	// cells then fan out on the orchestrator pool. Default 1 — FIFO
	// jobs, parallel cells — which keeps one big sweep from starving
	// interactive submissions of cache bandwidth but not CPU.
	JobWorkers int
	// Parallel is the orchestrator worker-pool width per job
	// (≤0 = GOMAXPROCS).
	Parallel int
	// CacheDir, when non-empty, memoizes cell results on disk so
	// identical cells — across jobs, restarts, and CLI runs sharing
	// the directory — are served without re-execution.
	CacheDir string
	// JournalDir, when non-empty, enables the crash-safe job WAL: every
	// admission and lifecycle transition is fsynced to
	// <JournalDir>/jobs.wal, and NewManager replays it — terminal jobs
	// stay readable, interrupted jobs are re-admitted under their
	// existing IDs and finish from per-cell cache hits. Pair it with
	// CacheDir; without the cache a recovered job recomputes its cells.
	JournalDir string
	// JobTimeout caps one job's execution wall time. Default 15m.
	JobTimeout time.Duration
	// MaxCells rejects grids larger than this at admission. Default
	// 1024.
	MaxCells int
	// RetryAfter is the backpressure hint returned with 429. Default
	// 5s.
	RetryAfter time.Duration
	// Retries is per-cell retry insurance, as in core.SweepOptions.
	Retries int
	// Hooks receive orchestrator telemetry from every job, in addition
	// to the manager's own metrics hook. Hooks must be safe for
	// concurrent runs when JobWorkers > 1.
	Hooks []exp.Hook
	// RunCell, when non-nil, replaces core.RunContext as the sweep
	// orchestrator's cell runner. This is the coordinator seam:
	// internal/dist plugs in here to run each cell on a worker fleet,
	// while the cache, retries, events and metrics stay the
	// orchestrator's. LBS jobs (POST /v1/lbs) always run locally.
	RunCell func(context.Context, core.Config) (core.Result, error)
	// ExtraMetrics, when non-nil, is appended to every /metrics response
	// after the manager's own series — the seam for subsystem metrics
	// (the dist coordinator's fleet gauges) without a registry.
	ExtraMetrics func(w io.Writer)
	// Logf, when non-nil, receives job lifecycle log lines
	// (log.Printf-shaped). Default: silent.
	Logf func(format string, args ...any)
}

// Manager owns the job table, the bounded admission queue, and the
// scheduler workers that drain it onto one shared exp.Orchestrator.
//
// Lock ordering: m.mu before any Job.mu — Submit, Cancel, and the
// replay path all nest that way; nothing may take m.mu while holding a
// job's lock.
type Manager struct {
	opts Options
	orch *exp.Orchestrator[core.Config, core.Result]
	// lbsOrch runs LBS jobs. It shares CacheDir with orch — the cache is
	// content-addressed over (SchemaVersion, config), so the two cell
	// types coexist in one directory without key collisions.
	lbsOrch *exp.Orchestrator[lbs.Config, lbs.Result]
	met     *Metrics

	// journal, when non-nil, is the job WAL (see Options.JournalDir).
	// Appends are serialized by the journal itself.
	journal *durable.Journal

	// baseCtx parents every job's execution context; baseCancel is the
	// drain deadline's hammer.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for listing
	queue    chan *Job
	draining bool

	workers sync.WaitGroup
}

// NewManager builds a manager and starts its scheduler workers.
func NewManager(opts Options) (*Manager, error) {
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.JobWorkers <= 0 {
		opts.JobWorkers = 1
	}
	if opts.JobTimeout <= 0 {
		opts.JobTimeout = 15 * time.Minute
	}
	if opts.MaxCells <= 0 {
		opts.MaxCells = 1024
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = 5 * time.Second
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}

	met := &Metrics{}
	orch, err := core.NewOrchestrator(core.SweepOptions{
		Parallel: opts.Parallel,
		CacheDir: opts.CacheDir,
		Retries:  opts.Retries,
		Hooks:    append([]exp.Hook{met}, opts.Hooks...),
	})
	if err != nil {
		return nil, err
	}
	if opts.RunCell != nil {
		orch.RunCtx = opts.RunCell
	}
	lbsOrch, err := lbs.NewOrchestrator(lbs.Options{
		Parallel: opts.Parallel,
		CacheDir: opts.CacheDir,
		Retries:  opts.Retries,
		Hooks:    append([]exp.Hook{met}, opts.Hooks...),
	})
	if err != nil {
		return nil, err
	}

	// Recover the job WAL before anything is admitted: the queue must be
	// sized to hold every interrupted job being re-admitted.
	var (
		journal     *durable.Journal
		replayed    []*walJob
		replayRecs  int
		replayStart = time.Now()
	)
	if opts.JournalDir != "" {
		journal, replayed, replayRecs, err = openWAL(opts.JournalDir)
		if err != nil {
			return nil, err
		}
	}
	interrupted := 0
	for _, wj := range replayed {
		if !wj.state.Terminal() {
			interrupted++
		}
	}
	queueCap := opts.QueueDepth
	if queueCap < interrupted {
		queueCap = interrupted
	}

	ctx, cancel := context.WithCancel(context.Background())
	m := &Manager{
		opts:       opts,
		orch:       orch,
		lbsOrch:    lbsOrch,
		met:        met,
		journal:    journal,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		queue:      make(chan *Job, queueCap),
	}

	// Rebuild the job table: terminal jobs are restored read-only (their
	// points came back in the done record), interrupted jobs re-enter
	// the queue under their recorded content-address IDs — the workers
	// have not started yet, so the buffered sends cannot block.
	for _, wj := range replayed {
		if wj.state.Terminal() {
			m.jobs[wj.id] = restoreJob(wj)
			m.order = append(m.order, wj.id)
			continue
		}
		var j *Job
		if wj.lbsReq != nil {
			j = newLBSJob(wj.id, *wj.lbsReq, wj.created)
		} else {
			j = newJob(wj.id, wj.req, wj.created)
		}
		m.jobs[wj.id] = j
		m.order = append(m.order, wj.id)
		m.queue <- j
		m.met.jobsReadmitted.Add(1)
		m.opts.Logf("serve: %v re-admitted from journal (%d cells)", j, j.totalCells())
	}
	if journal != nil {
		wall := time.Since(replayStart)
		m.met.journalReplays.Add(1)
		m.met.journalReplayRecords.Store(int64(replayRecs))
		m.met.journalReplayNS.Store(int64(wall))
		m.opts.Logf("serve: journal replayed %d records in %v (%d jobs restored, %d re-admitted)",
			replayRecs, wall.Round(time.Millisecond), len(replayed)-interrupted, interrupted)
	}

	for i := 0; i < opts.JobWorkers; i++ {
		m.workers.Add(1)
		go m.worker()
	}
	return m, nil
}

// Metrics exposes the manager's counters for the /metrics handler.
func (m *Manager) Metrics() *Metrics { return m.met }

// QueueStats samples admission-queue depth and capacity.
func (m *Manager) QueueStats() (depth, capacity int) {
	return len(m.queue), cap(m.queue)
}

// Draining reports whether the manager has stopped admitting jobs.
func (m *Manager) Draining() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.draining
}

// Cache exposes the shared result cache (nil when caching is off), for
// the daemon's periodic GC.
func (m *Manager) Cache() *exp.Cache { return m.orch.Cache }

// Submit admits one sweep request. The job ID is the content address
// of the normalized request, so resubmitting an identical grid returns
// the existing job — queued, running, or done — instead of a new one
// (created=false). A previously failed or canceled identical request
// is re-admitted as a fresh attempt under the same ID.
func (m *Manager) Submit(req SweepRequest) (job *Job, created bool, err error) {
	norm, _, err := req.normalize(m.opts.MaxCells)
	if err != nil {
		return nil, false, err
	}
	id, err := exp.KeyOf(norm)
	if err != nil {
		return nil, false, fmt.Errorf("serve: request not encodable: %w", err)
	}
	return m.admit(id, func(now time.Time) *Job { return newJob(id, norm, now) },
		walRecord{Op: walAdmit, ID: id, Req: &norm})
}

// SubmitLBS admits one LBS privacy-vs-utility grid (POST /v1/lbs) with
// the same dedupe, queueing, and WAL semantics as Submit. The ID is the
// content address of the normalized request under a "lbs" kind tag, so
// an LBS grid can never collide with a routing sweep.
func (m *Manager) SubmitLBS(req lbs.SweepRequest) (job *Job, created bool, err error) {
	norm, err := req.Normalize()
	if err != nil {
		return nil, false, err
	}
	if n := norm.NumCells(); n > m.opts.MaxCells {
		return nil, false, fmt.Errorf("serve: request expands to %d cells, limit %d", n, m.opts.MaxCells)
	}
	id, err := exp.KeyOf(struct {
		Kind string           `json:"kind"`
		Req  lbs.SweepRequest `json:"req"`
	}{JobKindLBS, norm})
	if err != nil {
		return nil, false, fmt.Errorf("serve: request not encodable: %w", err)
	}
	return m.admit(id, func(now time.Time) *Job { return newLBSJob(id, norm, now) },
		walRecord{Op: walAdmit, ID: id, LBSReq: &norm})
}

// admit runs the shared admission path: dedupe against the job table,
// enqueue, journal, register. rec is the admit WAL record minus its
// timestamp.
func (m *Manager) admit(id string, build func(now time.Time) *Job, rec walRecord) (job *Job, created bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if existing, ok := m.jobs[id]; ok && !isRetryable(existing.State()) {
		m.met.jobsDeduped.Add(1)
		return existing, false, nil
	}
	if m.draining {
		return nil, false, ErrDraining
	}
	now := time.Now()
	j := build(now)
	// Enqueue while holding m.mu: Drain closes the queue under the
	// same lock, so a send can never race the close.
	select {
	case m.queue <- j:
	default:
		m.met.jobsRejected.Add(1)
		return nil, false, ErrQueueFull
	}
	// The admit record is fsynced before Submit returns, so any job the
	// client saw acknowledged survives a crash and is re-admitted on the
	// next boot. (A rejected submission writes nothing — nothing to
	// resurrect.)
	rec.Time = now
	m.appendWAL(rec)
	if _, resubmitted := m.jobs[id]; !resubmitted {
		m.order = append(m.order, id)
	}
	m.jobs[id] = j
	m.met.jobsSubmitted.Add(1)
	m.opts.Logf("serve: %v admitted (%d cells, queue %d/%d)", j, j.totalCells(), len(m.queue), cap(m.queue))
	return j, true, nil
}

// isRetryable reports whether a terminal state allows the same content
// address to be submitted again as a fresh job.
func isRetryable(s JobState) bool { return s == JobFailed || s == JobCanceled }

// Job looks a job up by ID.
func (m *Manager) Job(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	return j, nil
}

// Jobs lists all jobs in submission order.
func (m *Manager) Jobs() []*Job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// Cancel stops a job: a queued job is marked canceled (the scheduler
// skips it on dequeue), a running job has its context torn down — the
// orchestrator then abandons pending cells and interrupts in-flight
// simulations. Canceling a terminal job returns ErrTerminal.
//
// The queued→canceled transition happens while holding the manager
// mutex: Submit's dedupe-vs-re-admit decision runs under the same lock,
// so a POST racing a DELETE on the same content-address ID observes
// either the live job (dedupe) or the completed cancellation
// (re-admission as a fresh attempt) — never a half-canceled hybrid.
func (m *Manager) Cancel(id string) error {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return ErrNotFound
	}
	j.mu.Lock()
	state := j.state
	if state.Terminal() {
		j.mu.Unlock()
		m.mu.Unlock()
		return ErrTerminal
	}
	j.canceled = true
	cancel := j.cancel
	j.mu.Unlock()

	if state == JobQueued {
		now := time.Now()
		j.transition(JobCanceled, "canceled while queued", now)
		m.met.jobsCanceled.Add(1)
		m.appendWAL(walRecord{Op: walCancel, ID: id, Time: now, Err: "canceled while queued"})
		m.mu.Unlock()
		m.opts.Logf("serve: %v canceled while queued", j)
		return nil
	}
	m.mu.Unlock()
	if cancel != nil {
		cancel() // runJob observes the context error and finishes the bookkeeping
	}
	m.opts.Logf("serve: %v cancel requested", j)
	return nil
}

// worker is one scheduler loop: dequeue, skip stale cancels, execute.
func (m *Manager) worker() {
	defer m.workers.Done()
	for j := range m.queue {
		if j.State() != JobQueued {
			continue // canceled while queued
		}
		if m.baseCtx.Err() != nil {
			// Drain deadline passed: everything still queued cancels.
			now := time.Now()
			if j.transition(JobCanceled, "server shutting down", now) {
				m.met.jobsCanceled.Add(1)
				m.appendWAL(walRecord{Op: walCancel, ID: j.ID, Time: now, Err: "server shutting down"})
			}
			continue
		}
		m.runJob(j)
	}
}

// runJob executes one job on its kind's shared orchestrator under its
// own cancellable, deadline-bounded context, then folds the outcome
// grid into density points or LBS curves.
func (m *Manager) runJob(j *Job) {
	ctx, cancel := context.WithTimeout(m.baseCtx, m.opts.JobTimeout)
	defer cancel()

	j.mu.Lock()
	if j.canceled { // cancel raced the dequeue
		j.mu.Unlock()
		now := time.Now()
		if j.transition(JobCanceled, "canceled while queued", now) {
			m.met.jobsCanceled.Add(1)
			m.appendWAL(walRecord{Op: walCancel, ID: j.ID, Time: now, Err: "canceled while queued"})
		}
		return
	}
	j.cancel = cancel
	j.mu.Unlock()

	startNow := time.Now()
	j.transition(JobRunning, "", startNow)
	m.appendWAL(walRecord{Op: walStart, ID: j.ID, Time: startNow})
	m.met.jobsRunning.Add(1)
	defer m.met.jobsRunning.Add(-1)
	m.opts.Logf("serve: %v started (%d cells)", j, j.totalCells())

	start := time.Now()
	if j.LBSReq != nil {
		req := *j.LBSReq
		runCells(ctx, m, j, start, m.lbsOrch, req.Cells(), func(outs []exp.Outcome[lbs.Result]) walRecord {
			curves := lbs.Fold(req, outs)
			j.mu.Lock()
			j.curves = curves
			j.mu.Unlock()
			return walRecord{Curves: curves}
		})
		return
	}
	protos := make([]core.Protocol, len(j.Req.Protocols))
	for i, name := range j.Req.Protocols {
		protos[i], _ = ParseProtocol(name) // validated at admission
	}
	cells := core.SweepCells(j.Req.Base, j.Req.NodeCounts, protos, j.Req.Repeats)
	runCells(ctx, m, j, start, m.orch, cells, func(outs []exp.Outcome[core.Result]) walRecord {
		points := core.FoldSweep(j.Req.NodeCounts, protos, j.Req.Repeats, outs)
		j.mu.Lock()
		j.points = points
		j.mu.Unlock()
		return walRecord{Points: points}
	})
}

// runCells is runJob's shared tail for every job kind: execute the
// grid on o, tally the outcomes into the job's cell counts, and land
// the job in its terminal state. fold runs only on clean completion (a
// run that finished cleanly is done even if the context died a moment
// later); it stores the folded result on the job and returns the done
// record's result payload.
func runCells[C, R any](ctx context.Context, m *Manager, j *Job, start time.Time, o *exp.Orchestrator[C, R], cells []exp.Cell[C], fold func([]exp.Outcome[R]) walRecord) {
	outs, err := o.ExecuteContext(ctx, cells, j)
	counts := CellCounts{Total: len(outs)}
	for _, oc := range outs {
		if oc.Cached {
			counts.Cached++
		}
		if oc.Err != nil {
			counts.Failed++
		}
	}
	j.mu.Lock()
	j.cells = counts
	j.cancel = nil // execution is over
	j.mu.Unlock()
	m.finishJob(ctx, j, start, err, counts, func() walRecord { return fold(outs) })
}

// finishJob lands a finished run in its terminal state, with the WAL
// record and metrics that state owes. commitDone runs only on clean
// completion: it stores the folded result on the job and returns the
// done record's result payload (Op/ID/Time/Cells are filled in here).
func (m *Manager) finishJob(ctx context.Context, j *Job, start time.Time, err error, counts CellCounts, commitDone func() walRecord) {
	now := time.Now()
	switch {
	case err != nil && errors.Is(ctx.Err(), context.Canceled):
		if j.transition(JobCanceled, "canceled", now) {
			m.met.jobsCanceled.Add(1)
			m.appendWAL(walRecord{Op: walCancel, ID: j.ID, Time: now, Err: "canceled"})
		}
		m.opts.Logf("serve: %v canceled after %v", j, now.Sub(start).Round(time.Millisecond))
	case err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded):
		msg := fmt.Sprintf("job timeout %v exceeded", m.opts.JobTimeout)
		if j.transition(JobFailed, msg, now) {
			m.met.jobsFailed.Add(1)
			m.appendWAL(walRecord{Op: walFail, ID: j.ID, Time: now, Err: msg})
		}
		m.opts.Logf("serve: %v timed out after %v", j, now.Sub(start).Round(time.Millisecond))
	case err != nil:
		if j.transition(JobFailed, err.Error(), now) {
			m.met.jobsFailed.Add(1)
			m.appendWAL(walRecord{Op: walFail, ID: j.ID, Time: now, Err: err.Error()})
		}
		m.opts.Logf("serve: %v failed: %v", j, err)
	default:
		rec := commitDone()
		if j.transition(JobDone, "", now) {
			m.met.jobsDone.Add(1)
			// The done record carries the folded result, so a restarted
			// daemon serves this job without touching the orchestrator.
			cc := counts
			rec.Op, rec.ID, rec.Time, rec.Cells = walDone, j.ID, now, &cc
			m.appendWAL(rec)
		}
		m.opts.Logf("serve: %v done in %v (%d/%d cells cached)",
			j, now.Sub(start).Round(time.Millisecond), counts.Cached, counts.Total)
	}
}

// Drain shuts the manager down gracefully: admission closes
// immediately (new submissions get ErrDraining, dedupe reads keep
// working), queued and running jobs are given until ctx's deadline to
// finish, then everything still in flight is canceled. Completed
// results remain readable after Drain returns — the job table is never
// dropped.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	close(m.queue) // safe: Submit enqueues under m.mu and checks draining first
	m.mu.Unlock()
	m.opts.Logf("serve: draining (%d queued)", len(m.queue))

	done := make(chan struct{})
	go func() {
		m.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		// Deadline: hammer every in-flight job context, then wait for
		// the workers — cancellation propagates into the engine's
		// interrupt poll, so this is prompt.
		m.baseCancel()
		<-done
		err = ctx.Err()
	}
	// Workers are quiet now; every terminal record is committed. Closing
	// the journal is hygiene — each append was already fsynced.
	if m.journal != nil {
		_ = m.journal.Close()
	}
	return err
}

// LogStd adapts the standard logger for Options.Logf.
func LogStd(format string, args ...any) { log.Printf(format, args...) }
