package exp

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// TestExecuteContextCancelStopsPromptly cancels a grid mid-flight and
// checks three things: cells finished before the cancel keep their
// results, cells never started come back with the context error, and
// an in-flight context-aware cell is told to stop.
func TestExecuteContextCancelStopsPromptly(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	var interrupted atomic.Bool
	o := &Orchestrator[int, int]{
		Parallel: 1, // serial: cell 0 completes, cell 1 blocks, 2..4 never start
		RunCtx: func(ctx context.Context, v int) (int, error) {
			if v == 1 {
				close(started)
				select {
				case <-ctx.Done():
					interrupted.Store(true)
					return 0, ctx.Err()
				case <-release:
				}
			}
			return v * 10, nil
		},
	}
	cells := make([]Cell[int], 5)
	for i := range cells {
		cells[i] = Cell[int]{Label: fmt.Sprintf("c%d", i), Config: i}
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	defer close(release)

	outs, err := o.ExecuteContext(ctx, cells)
	if err == nil {
		t.Fatal("want joined error from canceled cells")
	}
	if outs[0].Err != nil || outs[0].Value != 0 {
		t.Fatalf("pre-cancel cell should have completed: %+v", outs[0])
	}
	if !interrupted.Load() {
		t.Fatal("in-flight cell never observed cancellation")
	}
	if !errors.Is(outs[1].Err, context.Canceled) {
		t.Fatalf("in-flight cell error = %v, want context.Canceled", outs[1].Err)
	}
	for i := 2; i < 5; i++ {
		if !errors.Is(outs[i].Err, context.Canceled) {
			t.Fatalf("unstarted cell %d error = %v, want context.Canceled", i, outs[i].Err)
		}
		if outs[i].Attempts != 0 {
			t.Fatalf("unstarted cell %d executed %d times", i, outs[i].Attempts)
		}
	}
}

// TestExecuteContextCancelAbortsBackoff checks a canceled context cuts
// a retry backoff short instead of sleeping it out.
func TestExecuteContextCancelAbortsBackoff(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	o := &Orchestrator[int, int]{
		Retries: 1,
		Backoff: time.Hour, // the test hangs here unless cancel interrupts the sleep
		RunCtx: func(context.Context, int) (int, error) {
			cancel()
			return 0, errors.New("transient")
		},
	}
	done := make(chan struct{})
	var outs []Outcome[int]
	go func() {
		outs, _ = o.ExecuteContext(ctx, []Cell[int]{{Label: "only", Config: 1}})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("backoff sleep ignored cancellation")
	}
	if !errors.Is(outs[0].Err, context.Canceled) {
		t.Fatalf("outcome error = %v, want context.Canceled", outs[0].Err)
	}
}

// TestConcurrentExecuteSharedOrchestrator runs many grids through one
// orchestrator at once — the serve scheduler's usage — and checks each
// run's outcomes and its private hook's counters are self-consistent.
// Run with -race for the real assertion.
func TestConcurrentExecuteSharedOrchestrator(t *testing.T) {
	o := &Orchestrator[int, int]{
		Parallel: 2,
		RunCtx:   func(_ context.Context, v int) (int, error) { return v + 1, nil },
	}
	const runs, cellsPer = 8, 12
	errc := make(chan error, runs)
	for r := 0; r < runs; r++ {
		go func(r int) {
			cells := make([]Cell[int], cellsPer)
			for i := range cells {
				cells[i] = Cell[int]{Label: fmt.Sprintf("r%dc%d", r, i), Config: r*100 + i}
			}
			var finishes atomic.Int64
			hook := countingHook(func(ev Event) {
				if ev.Type == EventCellFinished {
					finishes.Add(1)
				}
			})
			outs, err := o.ExecuteContext(context.Background(), cells, hook)
			if err != nil {
				errc <- err
				return
			}
			for i, out := range outs {
				if out.Value != r*100+i+1 {
					errc <- fmt.Errorf("run %d cell %d: value %d", r, i, out.Value)
					return
				}
			}
			if n := finishes.Load(); n != cellsPer {
				errc <- fmt.Errorf("run %d: hook saw %d finishes, want %d", r, n, cellsPer)
				return
			}
			errc <- nil
		}(r)
	}
	for r := 0; r < runs; r++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

type countingHook func(Event)

func (f countingHook) Emit(ev Event) { f(ev) }

// TestCachePrune exercises both eviction dimensions and their
// interaction.
func TestCachePrune(t *testing.T) {
	open := func(t *testing.T) *Cache {
		c, err := Open(filepath.Join(t.TempDir(), "cache"))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	fill := func(t *testing.T, c *Cache, n int) []string {
		keys := make([]string, n)
		for i := 0; i < n; i++ {
			k, err := c.Key(map[string]int{"cell": i})
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Put(k, i); err != nil {
				t.Fatal(err)
			}
			keys[i] = k
		}
		return keys
	}
	age := func(t *testing.T, c *Cache, key string, by time.Duration) {
		p := filepath.Join(c.Dir(), key[:2], key+".json")
		old := time.Now().Add(-by)
		if err := os.Chtimes(p, old, old); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("noop", func(t *testing.T) {
		c := open(t)
		fill(t, c, 3)
		n, err := c.Prune(0, 0)
		if err != nil || n != 0 {
			t.Fatalf("Prune(0,0) = %d, %v; want 0, nil", n, err)
		}
		if got, _ := c.Len(); got != 3 {
			t.Fatalf("entries after noop = %d, want 3", got)
		}
	})

	t.Run("age", func(t *testing.T) {
		c := open(t)
		keys := fill(t, c, 4)
		age(t, c, keys[0], 48*time.Hour)
		age(t, c, keys[1], 48*time.Hour)
		n, err := c.Prune(0, 24*time.Hour)
		if err != nil || n != 2 {
			t.Fatalf("Prune by age = %d, %v; want 2, nil", n, err)
		}
		var v int
		if hit, _ := c.Get(keys[0], &v); hit {
			t.Fatal("aged-out entry still readable")
		}
		if hit, _ := c.Get(keys[2], &v); !hit {
			t.Fatal("fresh entry was evicted")
		}
	})

	t.Run("count-evicts-oldest", func(t *testing.T) {
		c := open(t)
		keys := fill(t, c, 5)
		// Stamp distinct ages so "oldest" is well-defined.
		for i, k := range keys {
			age(t, c, k, time.Duration(len(keys)-i)*time.Hour)
		}
		n, err := c.Prune(2, 0)
		if err != nil || n != 3 {
			t.Fatalf("Prune by count = %d, %v; want 3, nil", n, err)
		}
		var v int
		for i, k := range keys {
			hit, _ := c.Get(k, &v)
			if want := i >= 3; hit != want {
				t.Fatalf("entry %d survival = %v, want %v", i, hit, want)
			}
		}
	})

	t.Run("both", func(t *testing.T) {
		c := open(t)
		keys := fill(t, c, 6)
		age(t, c, keys[0], 48*time.Hour)
		for i := 1; i < 6; i++ {
			age(t, c, keys[i], time.Duration(6-i)*time.Minute)
		}
		n, err := c.Prune(3, 24*time.Hour)
		if err != nil || n != 3 { // one by age, two more by count
			t.Fatalf("Prune both = %d, %v; want 3, nil", n, err)
		}
		if got, _ := c.Len(); got != 3 {
			t.Fatalf("entries after prune = %d, want 3", got)
		}
	})
}
