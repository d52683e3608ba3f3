package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// EventType names a telemetry event.
type EventType string

// The orchestrator's event vocabulary.
const (
	// EventRunStarted opens a grid: Total cells on Workers workers.
	EventRunStarted EventType = "run-started"
	// EventRunFinished closes a grid with final counters and wall time.
	EventRunFinished EventType = "run-finished"
	// EventCellStarted marks a cell beginning execution (not emitted
	// for cache hits).
	EventCellStarted EventType = "cell-started"
	// EventCellFinished marks a cell's last attempt completing, with
	// wall time, simulated-time throughput, and the error if it failed.
	EventCellFinished EventType = "cell-finished"
	// EventCellCached marks a cell served from the result cache.
	EventCellCached EventType = "cell-cached"
	// EventCellRetried marks a failed attempt that will be retried.
	EventCellRetried EventType = "cell-retried"
	// EventCellCanceled marks a cell abandoned because the run's
	// context was canceled — either before it started (Attempt 0) or
	// mid-execution.
	EventCellCanceled EventType = "cell-canceled"
	// EventCacheCorrupt marks a cache entry that failed its integrity
	// check during a cell's lookup: the entry was quarantined and the
	// cell re-executes as an ordinary miss.
	EventCacheCorrupt EventType = "cache-corrupt"
)

// Event is one telemetry record. Zero-valued fields are meaningless for
// a given type and omitted from JSON.
type Event struct {
	Type  EventType `json:"type"`
	Label string    `json:"label,omitempty"`
	// Index is the cell's position in input order.
	Index int `json:"index"`
	Total int `json:"total,omitempty"`
	// Workers is the pool width (run-started only).
	Workers int `json:"workers,omitempty"`
	// Attempt is the 1-based execution attempt.
	Attempt int `json:"attempt,omitempty"`
	// Key is the cache key (cell-cached only).
	Key string `json:"key,omitempty"`
	// Wall is execution wall-clock time.
	Wall time.Duration `json:"wall_ns,omitempty"`
	// Sim is the simulated time the cell covers, when known.
	Sim time.Duration `json:"sim_ns,omitempty"`
	// Throughput is simulated seconds per wall-clock second.
	Throughput float64 `json:"sim_per_wall,omitempty"`
	Err        string  `json:"error,omitempty"`
	// Running progress counters, attached to every event.
	Done        int `json:"done"`
	CachedCells int `json:"cached,omitempty"`
	FailedCells int `json:"failed,omitempty"`
}

// Hook receives telemetry events. The orchestrator serializes Emit
// calls, so implementations only need internal locking when one hook
// instance is shared across orchestrators.
type Hook interface {
	Emit(Event)
}

// Progress is the default human-facing reporter: one line per
// completed cell (and per retry) to a writer, typically stderr.
type Progress struct {
	W io.Writer
}

// NewProgress returns a progress reporter writing to w.
func NewProgress(w io.Writer) *Progress { return &Progress{W: w} }

// Emit implements Hook.
func (p *Progress) Emit(ev Event) {
	switch ev.Type {
	case EventRunStarted:
		fmt.Fprintf(p.W, "exp: %d cells on %d workers\n", ev.Total, ev.Workers)
	case EventCellCached:
		fmt.Fprintf(p.W, "exp: [%d/%d] %s cached\n", ev.Done, ev.Total, ev.Label)
	case EventCellRetried:
		fmt.Fprintf(p.W, "exp: %s attempt %d failed, retrying: %s\n", ev.Label, ev.Attempt, ev.Err)
	case EventCellCanceled:
		fmt.Fprintf(p.W, "exp: [%d/%d] %s canceled: %s\n", ev.Done, ev.Total, ev.Label, ev.Err)
	case EventCellFinished:
		if ev.Err != "" {
			fmt.Fprintf(p.W, "exp: [%d/%d] %s FAILED after %d attempt(s): %s\n",
				ev.Done, ev.Total, ev.Label, ev.Attempt, ev.Err)
			return
		}
		line := fmt.Sprintf("exp: [%d/%d] %s done in %v", ev.Done, ev.Total, ev.Label, ev.Wall.Round(time.Millisecond))
		if ev.Throughput > 0 {
			line += fmt.Sprintf(" (%.0fx realtime)", ev.Throughput)
		}
		fmt.Fprintln(p.W, line)
	case EventRunFinished:
		fmt.Fprintf(p.W, "exp: run finished: %d/%d cells (%d cached, %d failed) in %v\n",
			ev.Done, ev.Total, ev.CachedCells, ev.FailedCells, ev.Wall.Round(time.Millisecond))
	}
}

// JSONL emits every event as one JSON object per line — the
// machine-readable twin of Progress, suitable for piping into run
// dashboards or jq.
type JSONL struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewJSONL returns a JSON-lines emitter writing to w.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{enc: json.NewEncoder(w)}
}

// Emit implements Hook.
func (j *JSONL) Emit(ev Event) {
	j.mu.Lock()
	defer j.mu.Unlock()
	_ = j.enc.Encode(ev)
}

// HookForMode maps a CLI -progress mode to a telemetry hook: "off" (or
// empty) means none, "stderr" the human-readable Progress reporter, and
// "jsonl" the JSON-lines emitter. Both write to stderr so stdout stays
// clean for CSV/tables.
func HookForMode(mode string) (Hook, error) {
	switch mode {
	case "", "off":
		return nil, nil
	case "stderr":
		return NewProgress(os.Stderr), nil
	case "jsonl":
		return NewJSONL(os.Stderr), nil
	default:
		return nil, fmt.Errorf("exp: unknown progress mode %q (want off | stderr | jsonl)", mode)
	}
}
