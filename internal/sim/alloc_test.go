package sim

import (
	"testing"
	"time"
)

// Allocation budgets: the event hot paths must be garbage-free at
// steady state. These are hard assertions (not benchmarks), so a future
// change that reintroduces per-event garbage fails CI rather than
// silently regressing -benchmem numbers.

// TestScheduleCancelZeroAlloc pins the MAC's hottest timer pattern:
// arm a future event, cancel it before it fires.
func TestScheduleCancelZeroAlloc(t *testing.T) {
	eng := NewEngine(1)
	fn := func() {}
	// Warm up the free list and bucket capacity.
	for i := 0; i < 4096; i++ {
		eng.Schedule(time.Second, fn).Cancel()
	}
	avg := testing.AllocsPerRun(1000, func() {
		eng.Schedule(time.Second, fn).Cancel()
	})
	if avg != 0 {
		t.Errorf("Schedule+Cancel allocates %.2f objects/op, want 0", avg)
	}
}

// TestDispatchZeroAlloc pins the schedule→fire round trip through Run.
func TestDispatchZeroAlloc(t *testing.T) {
	eng := NewEngine(1)
	fired := 0
	fn := func() { fired++ }
	burst := func() {
		for i := 0; i < 64; i++ {
			eng.Schedule(time.Duration(i%5)*time.Microsecond, fn)
		}
		if err := eng.RunAll(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: the calendar queue grows each wheel bucket's capacity on
	// first touch, so steady state needs the event pattern to have
	// wrapped the wheel a few times.
	for i := 0; i < 512; i++ {
		burst()
	}
	avg := testing.AllocsPerRun(100, burst)
	// 64 dispatches per run: demand strictly less than one allocation per
	// 64 events, i.e. amortized zero (the calendar queue may resize once
	// in a blue moon; that is the only tolerated source).
	if avg >= 1 {
		t.Errorf("dispatch burst allocates %.2f objects/run (64 events), want 0", avg)
	}
	if fired == 0 {
		t.Fatal("no events fired; budget check is vacuous")
	}
}
