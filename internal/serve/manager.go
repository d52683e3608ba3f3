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
	// lbsOrch runs LBS jobs. It shares orch's cache handle — the cache
	// is content-addressed over (SchemaVersion, config), so the two cell
	// types coexist in one directory without key collisions, and one
	// quarantine count covers both.
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
		Retries:  opts.Retries,
		Hooks:    append([]exp.Hook{met}, opts.Hooks...),
	})
	if err != nil {
		return nil, err
	}
	lbsOrch.Cache = orch.Cache

	// Recover the job WAL before anything is admitted: the queue must be
	// sized to hold every interrupted job being re-admitted.
	var (
		journal     *durable.Journal
		replayed    []*Job
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
	for _, j := range replayed {
		if !j.State().Terminal() {
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
	// results came back in the done record), interrupted jobs re-enter
	// the queue under their recorded content-address IDs — the workers
	// have not started yet, so the buffered sends cannot block.
	for _, j := range replayed {
		m.jobs[j.ID] = j
		m.order = append(m.order, j.ID)
		if j.State().Terminal() {
			continue
		}
		m.queue <- j
		m.met.jobsReadmitted.Add(1)
		m.opts.Logf("serve: %v re-admitted from journal (%d cells)", j, j.spec.cells())
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

// Cache exposes the result cache every job kind shares (nil when
// caching is off), for the daemon's periodic GC and quarantine metric.
func (m *Manager) Cache() *exp.Cache { return m.orch.Cache }

// Submit admits one sweep request. The job ID is the content address
// of the normalized request, so resubmitting an identical grid returns
// the existing job — queued, running, or done — instead of a new one
// (created=false). A previously failed or canceled identical request
// is re-admitted as a fresh attempt under the same ID.
func (m *Manager) Submit(req SweepRequest) (job *Job, created bool, err error) {
	return m.submit(jobSpec{Req: &req})
}

// SubmitLBS admits one LBS privacy-vs-utility grid (POST /v1/lbs) with
// the same dedupe, queueing, and WAL semantics as Submit.
func (m *Manager) SubmitLBS(req lbs.SweepRequest) (job *Job, created bool, err error) {
	return m.submit(jobSpec{LBSReq: &req})
}

// submit is the admission path of every job: normalize, dedupe against
// the job table, journal, enqueue, register.
func (m *Manager) submit(spec jobSpec) (job *Job, created bool, err error) {
	spec, err = spec.normalize(m.opts.MaxCells)
	if err != nil {
		return nil, false, err
	}
	id, err := spec.id()
	if err != nil {
		return nil, false, fmt.Errorf("serve: request not encodable: %w", err)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if existing, ok := m.jobs[id]; ok && !isRetryable(existing.State()) {
		m.met.jobsDeduped.Add(1)
		return existing, false, nil
	}
	if m.draining {
		return nil, false, ErrDraining
	}
	// Only submit sends on the queue, and only under m.mu (Drain closes
	// it under the same lock), so a free slot seen here is still free
	// at the send below.
	if len(m.queue) == cap(m.queue) {
		m.met.jobsRejected.Add(1)
		return nil, false, ErrQueueFull
	}
	now := time.Now()
	j := newJob(id, spec, now)
	// The admit record is fsynced before the job is queued, so it
	// precedes the job's start record, and any job the client saw
	// acknowledged survives a crash and is re-admitted on the next boot.
	// (A rejected submission writes nothing — nothing to resurrect.)
	m.appendWAL(walRecord{Op: walAdmit, ID: id, Time: now, jobSpec: spec})
	m.queue <- j
	if _, resubmitted := m.jobs[id]; !resubmitted {
		m.order = append(m.order, id)
	}
	m.jobs[id] = j
	m.met.jobsSubmitted.Add(1)
	m.opts.Logf("serve: %v admitted (%d cells, queue %d/%d)", j, spec.cells(), len(m.queue), cap(m.queue))
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
		m.settle(j, JobCanceled, "canceled while queued")
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
			m.settle(j, JobCanceled, "server shutting down")
			continue
		}
		m.runJob(j)
	}
}

// runJob executes one job on its kind's shared orchestrator under its
// own cancellable, deadline-bounded context, and lands it in the
// terminal state the run earned.
func (m *Manager) runJob(j *Job) {
	ctx, cancel := context.WithTimeout(m.baseCtx, m.opts.JobTimeout)
	defer cancel()

	j.mu.Lock()
	if j.canceled { // cancel raced the dequeue
		j.mu.Unlock()
		m.settle(j, JobCanceled, "canceled while queued")
		return
	}
	j.cancel = cancel
	j.mu.Unlock()

	start := time.Now()
	j.transition(JobRunning, "", start)
	m.appendWAL(walRecord{Op: walStart, ID: j.ID, Time: start})
	m.met.jobsRunning.Add(1)
	defer m.met.jobsRunning.Add(-1)
	m.opts.Logf("serve: %v started (%d cells)", j, j.spec.cells())

	result, counts, err := j.spec.run(ctx, m, j)
	j.mu.Lock()
	j.result = result
	j.cells = counts
	j.cancel = nil // execution is over
	j.mu.Unlock()

	elapsed := time.Since(start).Round(time.Millisecond)
	// A run that finished cleanly is done even if the context died a
	// moment later.
	switch {
	case err != nil && errors.Is(ctx.Err(), context.Canceled):
		m.settle(j, JobCanceled, "canceled")
		m.opts.Logf("serve: %v canceled after %v", j, elapsed)
	case err != nil && errors.Is(ctx.Err(), context.DeadlineExceeded):
		m.settle(j, JobFailed, fmt.Sprintf("job timeout %v exceeded", m.opts.JobTimeout))
		m.opts.Logf("serve: %v timed out after %v", j, elapsed)
	case err != nil:
		m.settle(j, JobFailed, err.Error())
		m.opts.Logf("serve: %v failed: %v", j, err)
	default:
		m.settle(j, JobDone, "")
		m.opts.Logf("serve: %v done in %v (%d/%d cells cached)", j, elapsed, counts.Cached, counts.Total)
	}
}

// settle lands j in a terminal state and, unless it already was
// terminal (a cancel racing a natural finish keeps whichever landed
// first), counts it and journals its terminal record.
func (m *Manager) settle(j *Job, state JobState, msg string) {
	if !j.transition(state, msg, time.Now()) {
		return
	}
	switch state {
	case JobDone:
		m.met.jobsDone.Add(1)
	case JobFailed:
		m.met.jobsFailed.Add(1)
	case JobCanceled:
		m.met.jobsCanceled.Add(1)
	}
	m.appendWAL(j.record())
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
