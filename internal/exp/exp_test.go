package exp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// fakeCfg/fakeRes stand in for core.Config/core.Result: pure data,
// JSON-encodable, deterministic to compute.
type fakeCfg struct {
	Seed  int64
	Nodes int
}

type fakeRes struct {
	Score float64
	Tag   string
}

func fakeRun(c fakeCfg) (fakeRes, error) {
	return fakeRes{Score: float64(c.Seed) * float64(c.Nodes), Tag: fmt.Sprintf("s%d/n%d", c.Seed, c.Nodes)}, nil
}

// withCtx adapts a context-free test runner to RunCtx.
func withCtx[C, R any](run func(C) (R, error)) CtxRunFunc[C, R] {
	return func(_ context.Context, c C) (R, error) { return run(c) }
}

func grid(n int) []Cell[fakeCfg] {
	cells := make([]Cell[fakeCfg], n)
	for i := range cells {
		cells[i] = Cell[fakeCfg]{
			Label:  fmt.Sprintf("cell%d", i),
			Config: fakeCfg{Seed: int64(i + 1), Nodes: 10 * (i + 1)},
		}
	}
	return cells
}

func TestExecuteStableOrder(t *testing.T) {
	cells := grid(17)
	// Make completion order scramble: later cells finish first.
	run := func(c fakeCfg) (fakeRes, error) {
		time.Sleep(time.Duration(20-c.Seed) * time.Millisecond)
		return fakeRun(c)
	}
	o := &Orchestrator[fakeCfg, fakeRes]{RunCtx: withCtx(run), Parallel: 8}
	out, err := o.Execute(cells)
	if err != nil {
		t.Fatal(err)
	}
	for i, oc := range out {
		want, _ := fakeRun(cells[i].Config)
		if oc.Index != i || oc.Value != want || oc.Label != cells[i].Label {
			t.Fatalf("slot %d holds %+v, want %+v", i, oc, want)
		}
	}
}

func TestParallelMatchesSerial(t *testing.T) {
	cells := grid(12)
	serialO := &Orchestrator[fakeCfg, fakeRes]{RunCtx: withCtx(fakeRun), Parallel: 1}
	serial, err := serialO.Execute(cells)
	if err != nil {
		t.Fatal(err)
	}
	parO := &Orchestrator[fakeCfg, fakeRes]{RunCtx: withCtx(fakeRun), Parallel: 4}
	par, err := parO.Execute(cells)
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock time is the one legitimately nondeterministic field.
	for i := range serial {
		serial[i].Wall, par[i].Wall = 0, 0
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("parallel execution diverged from serial:\n%+v\nvs\n%+v", par, serial)
	}
}

func TestOneBadCellFailsOnlyItself(t *testing.T) {
	cells := grid(6)
	run := func(c fakeCfg) (fakeRes, error) {
		switch c.Seed {
		case 3:
			return fakeRes{}, errors.New("transceiver on fire")
		case 5:
			panic("event heap corrupted")
		}
		return fakeRun(c)
	}
	o := &Orchestrator[fakeCfg, fakeRes]{RunCtx: withCtx(run), Parallel: 3}
	out, err := o.Execute(cells)
	if err == nil {
		t.Fatal("want joined error for the failed cells")
	}
	if !strings.Contains(err.Error(), "transceiver on fire") || !strings.Contains(err.Error(), "event heap corrupted") {
		t.Fatalf("joined error missing cell failures: %v", err)
	}
	for i, oc := range out {
		switch i {
		case 2:
			if oc.Err == nil {
				t.Fatalf("cell %d should have failed", i)
			}
		case 4:
			if oc.Err == nil || !strings.Contains(oc.Err.Error(), "panicked") {
				t.Fatalf("cell %d panic not converted to error: %v", i, oc.Err)
			}
		default:
			if oc.Err != nil {
				t.Fatalf("healthy cell %d failed: %v", i, oc.Err)
			}
			want, _ := fakeRun(cells[i].Config)
			if oc.Value != want {
				t.Fatalf("cell %d value %+v, want %+v", i, oc.Value, want)
			}
		}
	}
}

func TestRetryRecoversTransientFailure(t *testing.T) {
	var calls atomic.Int64
	run := func(c fakeCfg) (fakeRes, error) {
		if calls.Add(1) < 3 {
			return fakeRes{}, errors.New("transient")
		}
		return fakeRun(c)
	}
	o := &Orchestrator[fakeCfg, fakeRes]{
		RunCtx: withCtx(run), Parallel: 1, Retries: 3,
		Backoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond,
	}
	out, err := o.Execute(grid(1))
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", out[0].Attempts)
	}
	if out[0].Err != nil {
		t.Fatalf("cell should have recovered: %v", out[0].Err)
	}
}

func TestCacheServesSecondRun(t *testing.T) {
	cache, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	run := func(c fakeCfg) (fakeRes, error) {
		calls.Add(1)
		return fakeRun(c)
	}
	cells := grid(9)
	mk := func() *Orchestrator[fakeCfg, fakeRes] {
		return &Orchestrator[fakeCfg, fakeRes]{RunCtx: withCtx(run), Parallel: 3, Cache: cache}
	}

	first, err := mk().Execute(cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(cells)) {
		t.Fatalf("first run executed %d cells, want %d", got, len(cells))
	}
	if n, err := cache.Len(); err != nil || n != len(cells) {
		t.Fatalf("cache holds %d entries (err=%v), want %d", n, err, len(cells))
	}

	second, err := mk().Execute(cells)
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(len(cells)) {
		t.Fatalf("second run executed %d more cells, want 0", got-int64(len(cells)))
	}
	for i := range second {
		if !second[i].Cached {
			t.Fatalf("cell %d not served from cache", i)
		}
		if second[i].Value != first[i].Value {
			t.Fatalf("cached value diverged at %d: %+v vs %+v", i, second[i].Value, first[i].Value)
		}
	}
}

func TestCacheableExemption(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	run := func(c fakeCfg) (fakeRes, error) {
		calls.Add(1)
		return fakeRun(c)
	}
	o := &Orchestrator[fakeCfg, fakeRes]{
		RunCtx: withCtx(run), Parallel: 1, Cache: cache,
		Cacheable: func(c fakeCfg) bool { return c.Seed%2 == 0 },
	}
	cells := grid(4) // seeds 1..4: two cacheable, two exempt
	if _, err := o.Execute(cells); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Execute(cells); err != nil {
		t.Fatal(err)
	}
	// 4 + 2: the exempt (odd-seed) cells re-execute on the second run.
	if got := calls.Load(); got != 6 {
		t.Fatalf("calls = %d, want 6", got)
	}
}

func TestCacheKeyStability(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a, err := cache.Key(fakeCfg{Seed: 7, Nodes: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.Key(fakeCfg{Seed: 7, Nodes: 50})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("equal configs produced different keys: %s vs %s", a, b)
	}
	c, err := cache.Key(fakeCfg{Seed: 7, Nodes: 51})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different configs collided")
	}
	if _, err := cache.Key(struct{ F func() }{}); err == nil {
		t.Fatal("unencodable config should not produce a key")
	}
}

func TestCacheCorruptEntryIsMiss(t *testing.T) {
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, err := cache.Key(fakeCfg{Seed: 1, Nodes: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := cache.Put(key, fakeRes{Score: 1}); err != nil {
		t.Fatal(err)
	}
	// Corrupt the entry on disk, then make sure the orchestrator
	// re-executes instead of failing or serving garbage.
	if err := corrupt(cache, key); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	o := &Orchestrator[fakeCfg, fakeRes]{
		RunCtx: func(_ context.Context, c fakeCfg) (fakeRes, error) {
			calls.Add(1)
			return fakeRun(c)
		},
		Cache: cache,
	}
	out, err := o.Execute([]Cell[fakeCfg]{{Label: "x", Config: fakeCfg{Seed: 1, Nodes: 10}}})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 1 || out[0].Cached {
		t.Fatalf("corrupt entry not treated as miss: calls=%d cached=%v", calls.Load(), out[0].Cached)
	}
}

func corrupt(c *Cache, key string) error {
	return os.WriteFile(c.path(key), []byte("not json{"), 0o644)
}

func TestTelemetryEvents(t *testing.T) {
	var (
		mu  sync.Mutex
		got []Event
	)
	hook := hookFunc(func(ev Event) {
		mu.Lock()
		got = append(got, ev)
		mu.Unlock()
	})
	cache, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := &Orchestrator[fakeCfg, fakeRes]{
		RunCtx: withCtx(fakeRun), Parallel: 2, Cache: cache,
		SimDuration: func(fakeCfg) time.Duration { return 30 * time.Second },
		Hooks:       []Hook{hook},
	}
	cells := grid(3)
	if _, err := o.Execute(cells); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Execute(cells); err != nil { // all cached
		t.Fatal(err)
	}
	counts := map[EventType]int{}
	for _, ev := range got {
		counts[ev.Type]++
	}
	want := map[EventType]int{
		EventRunStarted:   2,
		EventRunFinished:  2,
		EventCellStarted:  3,
		EventCellFinished: 3,
		EventCellCached:   3,
	}
	for ty, n := range want {
		if counts[ty] != n {
			t.Fatalf("%s events = %d, want %d (all: %v)", ty, counts[ty], n, counts)
		}
	}
	for _, ev := range got {
		if ev.Type == EventCellFinished && ev.Sim != 30*time.Second {
			t.Fatalf("finished event missing sim duration: %+v", ev)
		}
	}
}

type hookFunc func(Event)

func (f hookFunc) Emit(ev Event) { f(ev) }

func TestProgressAndJSONLWriters(t *testing.T) {
	var pb, jb bytes.Buffer
	o := &Orchestrator[fakeCfg, fakeRes]{
		RunCtx: withCtx(fakeRun), Parallel: 1,
		Hooks: []Hook{NewProgress(&pb), NewJSONL(&jb)},
	}
	if _, err := o.Execute(grid(2)); err != nil {
		t.Fatal(err)
	}
	text := pb.String()
	if !strings.Contains(text, "2 cells") || !strings.Contains(text, "run finished") {
		t.Fatalf("progress output incomplete:\n%s", text)
	}
	lines := strings.Split(strings.TrimSpace(jb.String()), "\n")
	// run-started + 2×(started+finished) + run-finished = 6 lines.
	if len(lines) != 6 {
		t.Fatalf("jsonl lines = %d, want 6:\n%s", len(lines), jb.String())
	}
	for _, ln := range lines {
		if !strings.HasPrefix(ln, `{"type":`) {
			t.Fatalf("not a JSON event line: %s", ln)
		}
	}
}
