// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine is the substrate every other package in this repository runs
// on: the wireless channel, the 802.11 MAC, routing protocols, mobility and
// traffic generators all schedule their work as events on a single engine.
// It plays the role NS-2's scheduler played in the paper's evaluation.
//
// Time is a virtual clock that starts at zero and only advances when Run
// processes events; wall-clock time never leaks in, so runs with the same
// seed are bit-for-bit reproducible.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Time is an instant on the simulation clock, in nanoseconds since the
// start of the run. It intentionally mirrors time.Duration's resolution so
// the two interconvert without loss.
type Time int64

// Common simulation-time constants.
const (
	Microsecond Time = 1e3
	Millisecond Time = 1e6
	Second      Time = 1e9
)

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts the instant to the duration elapsed since time zero.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Add returns the instant d after t.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration between t and u (t - u).
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// String formats the instant as seconds with millisecond precision.
func (t Time) String() string { return fmt.Sprintf("%.6fs", t.Seconds()) }

// Event is a scheduled callback. The zero value is not usable; events are
// created by Engine.Schedule and Engine.At.
type Event struct {
	at  Time
	seq uint64 // tiebreak for equal times: FIFO order
	// bucket and index address the event's calendar-queue slot for O(1)
	// removal; index is -1 when the event is not queued.
	index    int
	bucket   int32
	eng      *Engine
	fn       func()
	canceled bool
}

// Time reports when the event will fire.
func (e *Event) Time() Time { return e.at }

// Cancel prevents the event from firing and removes it from the queue
// immediately (an O(1) swap-remove from its calendar bucket), so heavily
// canceled timers — MAC backoff, ACK timeouts — do not bloat the queue
// as tombstones until their fire time. Removal cannot change the firing
// order of live events: (at, seq) is a strict total order, so the queue
// pops the survivors in exactly the same sequence whatever its internal
// layout.
//
// Canceling an already-canceled event is a no-op, as is an event
// canceling itself from inside its own callback. Beyond that the handle
// is dead once the event has fired: the engine recycles fired events, so
// model code must drop (or overwrite) stored *Event references when the
// callback runs — the discipline the MAC and routing timers already
// follow — rather than canceling them later.
func (e *Event) Cancel() {
	if e.canceled {
		return
	}
	e.canceled = true
	if e.eng != nil && e.index >= 0 {
		e.eng.cal.removeSlot(int(e.bucket), e.index)
		e.fn = nil
		e.eng.free = append(e.eng.free, e)
	}
}

// Canceled reports whether Cancel was called.
func (e *Event) Canceled() bool { return e.canceled }

// Engine is a single-threaded discrete-event scheduler. It is not safe for
// concurrent use: all model code runs inside event callbacks on the
// goroutine that called Run.
type Engine struct {
	now     Time
	cal     calQueue // the pending events
	seq     uint64
	rng     *rand.Rand
	stopped bool
	// chunk and free keep event allocation off the garbage collector's
	// back: the hot paths schedule (and retire) on the order of a million
	// short-lived events per minute of simulated time, so new events are
	// carved out of block allocations and — once fired or canceled —
	// recycled through a free list. Steady-state event memory is bounded
	// by the peak number of pending events, not by throughput.
	chunk []Event
	free  []*Event
	// processed counts events that have fired, for diagnostics and the
	// runaway guard.
	processed uint64
	// MaxEvents aborts Run with ErrEventBudget when positive and exceeded.
	MaxEvents uint64
	// Interrupt, when non-nil, is polled once every interruptStride
	// fired events; a non-nil return aborts Run with that error. It
	// exists so a wall-clock authority (a canceled job context, a
	// draining daemon) can stop a long simulation promptly without
	// perturbing determinism: the poll draws no randomness and fires
	// between events, so a run that is not interrupted is bit-for-bit
	// identical with or without the hook installed.
	Interrupt func() error
}

// interruptStride is how many fired events pass between Interrupt
// polls. At the simulator's typical millions-of-events-per-second pace
// this bounds cancellation latency to well under wall-clock
// milliseconds while keeping the per-event cost to one nil check.
const interruptStride = 4096

// ErrEventBudget is returned by Run when Engine.MaxEvents is exceeded.
var ErrEventBudget = errors.New("sim: event budget exceeded")

// NewEngine returns an engine whose random stream is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now reports the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rand exposes the engine's deterministic random stream. Model code must
// draw all randomness from here (or from streams derived from it) so runs
// are reproducible.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// NewStream derives an independent deterministic random stream. Use one
// stream per stochastic component (mobility of node i, traffic of flow j)
// so adding events to one component does not perturb another.
func (e *Engine) NewStream() *rand.Rand {
	return rand.New(rand.NewSource(e.rng.Int63()))
}

// Processed reports how many events have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Schedule runs fn after delay d. A negative delay is treated as zero.
func (e *Engine) Schedule(d time.Duration, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	return e.At(e.now.Add(d), fn)
}

// chunkSize is the bump-allocator block size; see Engine.chunk.
const chunkSize = 256

// At runs fn at absolute simulation time t. Scheduling in the past is an
// error in the model; it is clamped to now so the event still fires, which
// keeps the clock monotonic.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		t = e.now
	}
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.canceled = false
	} else {
		if len(e.chunk) == 0 {
			e.chunk = make([]Event, chunkSize)
		}
		ev = &e.chunk[0]
		e.chunk = e.chunk[1:]
		ev.eng = e
	}
	ev.at, ev.seq, ev.fn = t, e.seq, fn
	e.seq++
	e.cal.push(ev)
	return ev
}

// popLE removes and returns the earliest pending event if its timestamp
// is at most end, else nil (leaving the queue intact).
func (e *Engine) popLE(end Time) *Event {
	ev := e.cal.popMin()
	if ev == nil {
		return nil
	}
	if ev.at > end {
		// Peek miss: put it back. (at, seq) are still set, so the
		// reinsert lands in exactly the order it left.
		e.cal.push(ev)
		return nil
	}
	return ev
}

// Stop makes Run return after the current event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events in timestamp order until the clock would pass
// `until` (a duration from time zero), the queue drains, or Stop is
// called. Events scheduled exactly at `until` still fire. It returns
// ErrEventBudget if MaxEvents is exceeded.
func (e *Engine) Run(until time.Duration) error {
	end := Time(until)
	e.stopped = false
	for !e.stopped {
		ev := e.popLE(end)
		if ev == nil {
			break
		}
		if ev.canceled {
			continue
		}
		e.now = ev.at
		e.processed++
		if e.MaxEvents > 0 && e.processed > e.MaxEvents {
			return ErrEventBudget
		}
		if e.Interrupt != nil && e.processed%interruptStride == 0 {
			if err := e.Interrupt(); err != nil {
				return err
			}
		}
		fn := ev.fn
		ev.fn = nil // release the closure before it runs
		fn()
		// Recycle after fn returns: a callback canceling its own event
		// sees index == -1 and leaves the free list alone, so the shell
		// is pushed exactly once.
		e.free = append(e.free, ev)
	}
	// Advance the clock to the horizon so repeated Run calls resume from
	// where the previous one left off.
	if e.now < end {
		e.now = end
	}
	return nil
}

// RunAll processes every queued event regardless of timestamp. Intended
// for tests and for models whose event graph is known to terminate.
func (e *Engine) RunAll() error {
	e.stopped = false
	for !e.stopped {
		ev := e.popLE(maxTime)
		if ev == nil {
			break
		}
		if ev.canceled {
			continue
		}
		e.now = ev.at
		e.processed++
		if e.MaxEvents > 0 && e.processed > e.MaxEvents {
			return ErrEventBudget
		}
		fn := ev.fn
		ev.fn = nil
		fn()
		e.free = append(e.free, ev)
	}
	return nil
}

// maxTime is the largest representable instant; RunAll's horizon.
const maxTime = Time(1<<63 - 1)

// Pending reports the number of queued events. Canceled events are
// removed from the queue eagerly, so they do not count.
func (e *Engine) Pending() int { return e.cal.count }
