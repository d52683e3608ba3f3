// Package dist is the distributed sweep coordinator: the third tier of
// the serving architecture (client → coordinator → worker fleet). A
// coordinator daemon accepts the same sweep grids the single-process
// daemon does and runs them on the same orchestrator, but each cell
// executes on one of N agrsimd workers, shipped over the existing REST
// API as a single-cell job. The fold is exactly the points a
// single-process run would produce — bit-identical, because every
// cell's config (seed included) reaches the worker unchanged, core.Run
// is a pure function of its config, and results round-trip through
// JSON exactly.
//
// Coordinator.RunCell is the per-cell remote runner, installed as the
// sweep orchestrator's RunCtx through serve.Options.RunCell. The
// orchestrator keeps its cache, retries, events, metrics hook and
// cancellation; RunCell adds the fleet scheduling:
//
//   - a background probe loop drives each worker's /readyz and /metrics
//     (queue depth and capacity), and a dispatch only targets healthy
//     workers with admission headroom;
//   - a dispatch lost to its worker (refused connection, forgotten or
//     failed worker job) is re-dispatched at once;
//   - a cell not completed within a dynamic deadline (a multiple of
//     the fleet's per-cell completion EWMA, floored by StealAfter) is
//     hedged on another worker — first success wins, a later success
//     is counted as a duplicate and discarded.
//
// Durability comes from the orchestrator's content-addressed cache: a
// folded cell is cached under its config's key, so after a coordinator
// crash the serve job WAL re-admits the job and every finished cell is
// a cache hit. Coordinator resume therefore needs the cache, like
// -journal recovery everywhere.
package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"anongeo/internal/core"
	"anongeo/internal/serve"
)

// Options configures a Coordinator; zero values get defaults (see New).
type Options struct {
	// Workers are the backend daemons' base URLs. At least one is
	// required.
	Workers []string
	// NewClient, when non-nil, builds the per-worker client — the test
	// seam for retry policy and transports. Default: NewClient with the
	// package default policy.
	NewClient func(url string) *Client

	// MaxInflight caps the cells this coordinator keeps in flight per
	// worker (default 4). The worker-side admission queue is respected
	// on top of this via scraped queue capacity.
	MaxInflight int
	// ProbeInterval is the health/backpressure probe period (default 3s).
	ProbeInterval time.Duration
	// PollInterval is how often a dispatch polls its worker job, and
	// how often a cell waiting for a worker with headroom looks again
	// (default 150ms).
	PollInterval time.Duration

	// StealAfter floors the straggler deadline: a cell's newest
	// dispatch must be at least this old before the cell is hedged on
	// another worker (default 30s).
	StealAfter time.Duration
	// StealFactor scales the fleet's per-cell completion EWMA into the
	// dynamic deadline, deadline = max(StealAfter, StealFactor × EWMA)
	// (default 4).
	StealFactor float64
	// MaxAttempts bounds dispatches per cell, hedges included; a cell
	// still failing after that many fails like any failed orchestrator
	// cell (default max(3, len(Workers)+1)).
	MaxAttempts int

	// Logf receives coordinator log lines; default silent.
	Logf func(format string, args ...any)
}

// Coordinator runs sweep cells on a worker fleet. RunCell is safe for
// concurrent use; Close stops the probe loop.
type Coordinator struct {
	opts Options
	pool *pool
	met  coordMetrics

	ewmaMu sync.Mutex
	ewma   time.Duration // fleet-wide per-cell completion EWMA
}

// New validates opts, builds the fleet state, probes every worker once,
// and starts the background probe loop.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("dist: no workers configured")
	}
	if opts.NewClient == nil {
		opts.NewClient = NewClient
	}
	if opts.MaxInflight <= 0 {
		opts.MaxInflight = 4
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = 3 * time.Second
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 150 * time.Millisecond
	}
	if opts.StealAfter <= 0 {
		opts.StealAfter = 30 * time.Second
	}
	if opts.StealFactor <= 0 {
		opts.StealFactor = 4
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = len(opts.Workers) + 1
		if opts.MaxAttempts < 3 {
			opts.MaxAttempts = 3
		}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	c := &Coordinator{
		opts: opts,
		pool: newPool(opts.Workers, opts.NewClient, opts.ProbeInterval),
	}
	c.pool.start()
	return c, nil
}

// Close stops the probe loop. In-flight RunCell calls keep running on
// their last-known fleet state.
func (c *Coordinator) Close() { c.pool.close() }

// HealthyWorkers reports how many workers currently pass probes.
func (c *Coordinator) HealthyWorkers() int { return c.pool.healthyCount() }

// cellRequest builds the single-cell sweep request that makes a worker
// reproduce exactly cfg. The worker's grid sweeps nodes, so its cell
// seed derives from the base seed; core.BaseSeedFor inverts that rule,
// and with Nodes and Protocol re-applied to the same values the
// worker's expanded cell config is bit-for-bit cfg.
func cellRequest(cfg core.Config) serve.SweepRequest {
	base := cfg
	base.Seed = core.BaseSeedFor(cfg.Seed, cfg.Nodes)
	return serve.SweepRequest{
		Base:       base,
		NodeCounts: []int{cfg.Nodes},
		Protocols:  []string{core.ProtocolValue(cfg.Protocol)},
		Repeats:    1,
	}
}

// cellName labels a cell in log lines.
func cellName(cfg core.Config) string {
	return fmt.Sprintf("cell %v/N%d/seed%d", cfg.Protocol, cfg.Nodes, cfg.Seed)
}

// attempt is one dispatch's report back to RunCell.
type attempt struct {
	w    *workerState
	res  core.Result
	err  error
	wall time.Duration
}

// RunCell executes one cell on the fleet and returns its result. It is
// the RunCtx of the daemon's sweep orchestrator (serve.Options.RunCell),
// so the orchestrator keeps everything a local cell gets: the cache,
// retries, events, metrics and cancellation.
//
// RunCell dispatches the cell to the least-loaded worker with headroom,
// waiting for one at PollInterval when none qualifies. A dispatch lost
// to its worker (transport failure, forgotten or failed worker job) is
// re-dispatched at once unless another dispatch of the cell is still
// running. A cell not completed within the straggler deadline is hedged
// on a worker not already running it; the first success wins and the
// others are canceled. MaxAttempts bounds the dispatches.
func (c *Coordinator) RunCell(ctx context.Context, cfg core.Config) (core.Result, error) {
	var wg sync.WaitGroup
	defer wg.Wait()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // stops the losing dispatches before the Wait
	// Buffered for every dispatch this call may make, so a dispatch
	// finishing after the loop stopped reading never blocks.
	results := make(chan attempt, c.opts.MaxAttempts)
	var won atomic.Bool
	running := make(map[*workerState]bool)
	dispatches := 0
	var lastErr error

	hedge := time.NewTimer(time.Hour)
	defer hedge.Stop()
	launch := func(w *workerState) {
		if dispatches > 0 {
			c.met.cellsStolen.Add(1)
		}
		dispatches++
		c.met.cellsAssigned.Add(1)
		running[w] = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.dispatch(ctx, w, cfg, &won, results)
		}()
		if !hedge.Stop() {
			select { // drop a tick the loop did not consume
			case <-hedge.C:
			default:
			}
		}
		hedge.Reset(c.stealDeadline())
	}

	for {
		if len(running) == 0 {
			if dispatches >= c.opts.MaxAttempts {
				return core.Result{}, fmt.Errorf("dist: %d dispatches failed, last: %w", dispatches, lastErr)
			}
			w, err := c.waitWorker(ctx)
			if err != nil {
				return core.Result{}, err
			}
			if lastErr != nil {
				c.opts.Logf("dist: re-dispatching %s to %s after %v", cellName(cfg), w.url, lastErr)
			}
			launch(w)
		}
		select {
		case a := <-results:
			delete(running, a.w)
			if a.err == nil {
				c.observe(a.wall)
				return a.res, nil
			}
			lastErr = a.err
		case <-hedge.C:
			if dispatches >= c.opts.MaxAttempts {
				continue
			}
			w := c.pool.pick(c.opts.MaxInflight, running)
			if w == nil {
				hedge.Reset(c.opts.PollInterval) // no spare worker yet
				continue
			}
			c.opts.Logf("dist: hedging straggler %s on %s", cellName(cfg), w.url)
			launch(w)
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
	}
}

// waitWorker reserves the least-loaded available worker, polling until
// one qualifies or ctx ends.
func (c *Coordinator) waitWorker(ctx context.Context) (*workerState, error) {
	for ctx.Err() == nil {
		if w := c.pool.pick(c.opts.MaxInflight, nil); w != nil {
			return w, nil
		}
		select {
		case <-time.After(c.opts.PollInterval):
		case <-ctx.Done():
		}
	}
	return nil, ctx.Err()
}

// stealDeadline is how long a cell's newest dispatch may run before
// the cell is hedged: max(StealAfter, StealFactor × EWMA).
func (c *Coordinator) stealDeadline() time.Duration {
	c.ewmaMu.Lock()
	ewma := c.ewma
	c.ewmaMu.Unlock()
	if d := time.Duration(c.opts.StealFactor * float64(ewma)); d > c.opts.StealAfter {
		return d
	}
	return c.opts.StealAfter
}

// observe folds a winning dispatch's wall time into the fleet-wide
// completion EWMA.
func (c *Coordinator) observe(wall time.Duration) {
	c.ewmaMu.Lock()
	if c.ewma == 0 {
		c.ewma = wall
	} else {
		c.ewma = (c.ewma*7 + wall) / 8
	}
	c.ewmaMu.Unlock()
}

// dispatch drives one (cell, worker) attempt on a worker slot reserved
// by pick: submit the single-cell job, poll it to a terminal state,
// report. The worker's content-address dedupe makes the POST
// idempotent, so client retries inside SubmitSweep are safe. A success
// after another dispatch of the cell already won counts as a
// duplicate.
func (c *Coordinator) dispatch(ctx context.Context, w *workerState, cfg core.Config, won *atomic.Bool, results chan<- attempt) {
	defer w.release()
	start := time.Now()
	res, err := c.runOn(ctx, w, cfg)
	if err == nil && !won.CompareAndSwap(false, true) {
		c.met.cellsDuplicate.Add(1)
		c.opts.Logf("dist: duplicate completion of %s from %s discarded", cellName(cfg), w.url)
	}
	results <- attempt{w: w, res: res, err: err, wall: time.Since(start)}
}

// runOn submits cfg to w as a single-cell job and polls it to a
// terminal state. A transport failure marks the worker unhealthy.
func (c *Coordinator) runOn(ctx context.Context, w *workerState, cfg core.Config) (core.Result, error) {
	sub, err := w.client.SubmitSweep(ctx, cellRequest(cfg))
	if err != nil {
		if ctx.Err() == nil {
			w.markFailure()
		}
		return core.Result{}, fmt.Errorf("submit to %s: %w", w.url, err)
	}
	t := time.NewTicker(c.opts.PollInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		case <-t.C:
		}
		st, err := w.client.Job(ctx, sub.ID)
		switch {
		case IsNotFound(err):
			// The worker restarted without a journal and forgot the
			// job: a lost dispatch, not a dead worker.
			return core.Result{}, fmt.Errorf("worker %s lost job %s", w.url, sub.ID)
		case err != nil:
			if ctx.Err() == nil {
				w.markFailure()
			}
			return core.Result{}, fmt.Errorf("poll %s: %w", w.url, err)
		}
		switch st.State {
		case serve.JobDone:
			if len(st.Points) != 1 {
				return core.Result{}, fmt.Errorf("worker %s returned %d points for a single-cell job", w.url, len(st.Points))
			}
			return st.Points[0].Result, nil
		case serve.JobFailed, serve.JobCanceled:
			return core.Result{}, fmt.Errorf("worker %s job %s: %s", w.url, st.State, st.Error)
		}
	}
}

// Stats is a snapshot of the coordinator's counters, for tests and
// logs; the /metrics rendering is WriteMetrics.
type Stats struct {
	Assigned   int64
	Stolen     int64
	Duplicates int64
}

// Stats samples the coordinator's counters.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Assigned:   c.met.cellsAssigned.Load(),
		Stolen:     c.met.cellsStolen.Load(),
		Duplicates: c.met.cellsDuplicate.Load(),
	}
}
