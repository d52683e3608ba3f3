// Package exp is a deterministic parallel experiment orchestrator.
//
// Every figure in the paper's evaluation — and every ablation built on
// top of it — is a grid of independent simulation cells: one
// configuration in, one result out, no shared state between cells. exp
// turns such a grid into a schedulable unit of work. It executes cells
// on a bounded worker pool, returns results in stable input order
// regardless of completion order, memoizes finished cells in a
// content-addressed on-disk cache (see Cache), survives per-cell
// failures with capped-backoff retries and panic recovery, and streams
// run telemetry through pluggable hooks (see Hook, Progress, JSONL).
//
// The orchestrator is generic over the config and result types so it
// does not depend on the simulator: internal/core layers its density
// sweeps on top of exp, internal/serve runs multi-tenant HTTP jobs on
// it, and any future experiment grid (parameter scans, adversary
// batteries, calibration searches) can reuse it unchanged.
//
// Determinism contract: exp adds no randomness of its own. As long as
// the run function is a pure function of its config — which core.Run
// is, because every run owns a seed-derived engine and every RNG in the
// stack is instance-owned — executing a grid with Parallel=N is
// bit-for-bit identical to executing it serially.
//
// Concurrency contract: an Orchestrator holds no per-run mutable state,
// so one shared instance may execute many grids concurrently (the serve
// daemon's scheduler does exactly that); each ExecuteContext call owns
// its counters and serializes emission to its own hooks. A Hook
// instance shared across concurrent runs must be internally
// synchronized.
package exp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

// CtxRunFunc executes one cell's config into a result. It must be safe
// to call concurrently from multiple goroutines with distinct configs,
// and should be a pure function of its config for cache correctness.
// Implementations should return promptly (with ctx.Err or an error
// wrapping it) once ctx is done, so job cancellation and daemon
// shutdown do not wait out a long simulation.
type CtxRunFunc[C, R any] func(context.Context, C) (R, error)

// Cell is one unit of work: a config plus a human-readable label used
// in telemetry and error messages.
type Cell[C any] struct {
	Label  string
	Config C
}

// Outcome is the orchestrator's verdict on one cell, in input order.
type Outcome[R any] struct {
	Label string
	Index int
	Value R
	// Err is the last attempt's error; nil on success (cached or run).
	// A cell abandoned to cancellation carries the context's error.
	Err error
	// Cached reports the value was served from the cache, not executed.
	Cached bool
	// Attempts counts executions (0 for a cache hit, ≥1 otherwise).
	Attempts int
	// Wall is the total wall-clock time spent executing the cell,
	// including retries and backoff sleeps; ~0 for cache hits.
	Wall time.Duration
}

// Orchestrator executes cells of one experiment grid. The zero value
// plus a RunCtx function is usable: serial-width pool sized by
// GOMAXPROCS, no cache, no retries, no telemetry. All fields are read-only during
// execution, so a single Orchestrator may serve concurrent
// ExecuteContext calls.
type Orchestrator[C, R any] struct {
	// RunCtx executes one cell (required). It receives the execution
	// context so in-flight cells stop promptly on cancellation.
	RunCtx CtxRunFunc[C, R]

	// Parallel bounds the worker pool; ≤0 means runtime.GOMAXPROCS(0).
	// Parallel=1 is strictly serial in input order.
	Parallel int

	// Cache, when non-nil, memoizes successful results keyed by the
	// canonical encoding of the config (see Cache.Key).
	Cache *Cache
	// Cacheable, when non-nil, exempts configs from the cache — e.g.
	// configs whose results carry non-serializable attachments or whose
	// runs have observable side effects. nil means everything is
	// cacheable when Cache is set.
	Cacheable func(C) bool

	// Retries is the number of extra attempts after a failed execution
	// (transient-failure insurance; deterministic failures simply fail
	// Retries+1 times). Panics inside RunCtx are converted to errors and
	// retried like any other failure.
	Retries int
	// Backoff is the sleep before the first retry, doubling per retry
	// up to MaxBackoff. Defaults: 100ms base, 5s cap.
	Backoff    time.Duration
	MaxBackoff time.Duration

	// SimDuration, when non-nil, reports the simulated time a config
	// covers so telemetry can include simulated-time throughput
	// (simulated seconds per wall second).
	SimDuration func(C) time.Duration

	// Hooks receive telemetry events from every run. Per-run emission
	// is serialized, so a hook used by one run at a time needs no
	// locking; hooks shared across concurrent runs must synchronize.
	Hooks []Hook
}

// runState is the mutable state of one ExecuteContext call, kept off
// the Orchestrator so concurrent runs do not trample each other.
type runState struct {
	mu       sync.Mutex // serializes hook emission and the counters
	hooks    []Hook
	done     int
	cached   int
	failed   int
	canceled int
}

// Execute runs every cell and returns one Outcome per cell in input
// order. A failing cell fails only itself: the rest of the grid still
// runs, and the joined per-cell errors come back alongside the full
// outcome slice so callers can choose between all-or-nothing and
// partial-result handling.
func (o *Orchestrator[C, R]) Execute(cells []Cell[C]) ([]Outcome[R], error) {
	return o.ExecuteContext(context.Background(), cells)
}

// ExecuteContext is Execute under a context: once ctx is done, no new
// cell starts, retry backoffs abort, and in-flight cells are told to
// stop. Abandoned cells come back with ctx's error in their Outcome.
// extraHooks receive this run's telemetry in addition to o.Hooks
// (per-job streaming, say) without mutating the shared orchestrator.
func (o *Orchestrator[C, R]) ExecuteContext(ctx context.Context, cells []Cell[C], extraHooks ...Hook) ([]Outcome[R], error) {
	par := o.Parallel
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par > len(cells) {
		par = len(cells)
	}
	if par < 1 {
		par = 1
	}
	rs := &runState{hooks: append(append([]Hook(nil), o.Hooks...), extraHooks...)}
	rs.emit(Event{Type: EventRunStarted, Total: len(cells), Workers: par})

	out := make([]Outcome[R], len(cells))
	start := time.Now()
	if par == 1 {
		// Strictly serial: no goroutines, no interleaving, the exact
		// reference order parallel execution is measured against.
		for i, c := range cells {
			out[i] = o.runCell(ctx, rs, i, len(cells), c)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < par; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					out[i] = o.runCell(ctx, rs, i, len(cells), cells[i])
				}
			}()
		}
		for i := range cells {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}

	var errs []error
	for _, oc := range out {
		if oc.Err != nil {
			errs = append(errs, fmt.Errorf("cell %q: %w", oc.Label, oc.Err))
		}
	}
	rs.mu.Lock()
	done, cached, failed := rs.done, rs.cached, rs.failed
	rs.mu.Unlock()
	rs.emit(Event{
		Type: EventRunFinished, Total: len(cells), Done: done,
		CachedCells: cached, FailedCells: failed, Wall: time.Since(start),
	})
	return out, errors.Join(errs...)
}

// runCell resolves one cell: cancellation check, cache lookup, then
// execution with retries and panic recovery, then cache fill.
func (o *Orchestrator[C, R]) runCell(ctx context.Context, rs *runState, i, total int, c Cell[C]) Outcome[R] {
	out := Outcome[R]{Label: c.Label, Index: i}

	if err := ctx.Err(); err != nil {
		out.Err = err
		rs.count(func() { rs.done++; rs.failed++; rs.canceled++ })
		rs.emit(Event{Type: EventCellCanceled, Label: c.Label, Index: i, Total: total, Err: err.Error()})
		return out
	}

	var key string
	useCache := o.Cache != nil && (o.Cacheable == nil || o.Cacheable(c.Config))
	if useCache {
		k, err := o.Cache.Key(c.Config)
		if err != nil {
			// Unencodable config: run uncached rather than fail the cell.
			useCache = false
		} else {
			key = k
			var v R
			hit, err := o.Cache.Get(key, &v)
			if err == nil && hit {
				out.Value = v
				out.Cached = true
				rs.count(func() { rs.done++; rs.cached++ })
				rs.emit(Event{Type: EventCellCached, Label: c.Label, Index: i, Total: total, Key: key})
				return out
			}
			if errors.Is(err, ErrCorrupt) {
				// The entry was quarantined inside Get; surface the event
				// so operators can count corruption instead of it hiding
				// as an ordinary miss.
				rs.emit(Event{Type: EventCacheCorrupt, Label: c.Label, Index: i, Total: total, Key: key, Err: err.Error()})
			}
			// A corrupt or unreadable entry is a miss: re-run and rewrite.
		}
	}

	start := time.Now()
	rs.emit(Event{Type: EventCellStarted, Label: c.Label, Index: i, Total: total})
	backoff := o.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	maxBackoff := o.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 5 * time.Second
	}
	attempts := o.Retries + 1
	if attempts < 1 {
		attempts = 1
	}
	canceled := false
	for a := 1; a <= attempts; a++ {
		out.Attempts = a
		v, err := o.runRecovered(ctx, c.Config)
		if err == nil {
			out.Value, out.Err = v, nil
			break
		}
		out.Err = err
		if cerr := ctx.Err(); cerr != nil {
			// A failure during teardown is a cancellation, not a cell
			// bug: don't burn retries racing a dying context, and let
			// callers match on the context error.
			out.Err = fmt.Errorf("%w (attempt %d: %v)", cerr, a, err)
			canceled = true
			break
		}
		if a < attempts {
			rs.emit(Event{
				Type: EventCellRetried, Label: c.Label, Index: i, Total: total,
				Attempt: a, Err: err.Error(),
			})
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				out.Err = ctx.Err()
				canceled = true
			}
			if canceled {
				break
			}
			if backoff *= 2; backoff > maxBackoff {
				backoff = maxBackoff
			}
		}
	}
	out.Wall = time.Since(start)

	if out.Err == nil && useCache {
		// Serving future runs is best-effort; a full disk or an
		// unencodable result must not fail a finished cell.
		_ = o.Cache.Put(key, out.Value)
	}

	if canceled {
		rs.count(func() { rs.done++; rs.failed++; rs.canceled++ })
		rs.emit(Event{
			Type: EventCellCanceled, Label: c.Label, Index: i, Total: total,
			Attempt: out.Attempts, Wall: out.Wall, Err: out.Err.Error(),
		})
		return out
	}

	ev := Event{
		Type: EventCellFinished, Label: c.Label, Index: i, Total: total,
		Attempt: out.Attempts, Wall: out.Wall,
	}
	if o.SimDuration != nil {
		ev.Sim = o.SimDuration(c.Config)
		if out.Wall > 0 {
			ev.Throughput = ev.Sim.Seconds() / out.Wall.Seconds()
		}
	}
	if out.Err != nil {
		ev.Err = out.Err.Error()
		rs.count(func() { rs.done++; rs.failed++ })
	} else {
		rs.count(func() { rs.done++ })
	}
	rs.emit(ev)
	return out
}

// count mutates the progress counters under the telemetry lock.
func (rs *runState) count(f func()) {
	rs.mu.Lock()
	f()
	rs.mu.Unlock()
}

// emit fans one event out to every hook, serialized so hooks observe a
// consistent ordering even under parallel workers. The progress
// counters are attached to every event.
func (rs *runState) emit(ev Event) {
	if len(rs.hooks) == 0 {
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	ev.Done, ev.CachedCells, ev.FailedCells = rs.done, rs.cached, rs.failed
	for _, h := range rs.hooks {
		h.Emit(ev)
	}
}

// runRecovered executes one attempt through RunCtx, converting a panic
// into an error so one bad cell cannot take down the whole sweep.
func (o *Orchestrator[C, R]) runRecovered(ctx context.Context, cfg C) (v R, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("exp: cell panicked: %v\n%s", p, debug.Stack())
		}
	}()
	return o.RunCtx(ctx, cfg)
}
