package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestCancelRemovesFromQueue pins the eager-removal contract: a canceled
// event leaves the queue immediately instead of lingering as a tombstone
// until its fire time.
func TestCancelRemovesFromQueue(t *testing.T) {
	e := NewEngine(1)
	var evs []*Event
	for i := 0; i < 10; i++ {
		evs = append(evs, e.Schedule(time.Duration(i+1)*time.Second, func() {}))
	}
	if got := e.Pending(); got != 10 {
		t.Fatalf("Pending() = %d, want 10", got)
	}
	evs[3].Cancel()
	evs[7].Cancel()
	if got := e.Pending(); got != 8 {
		t.Fatalf("Pending() after 2 cancels = %d, want 8", got)
	}
	// Double cancel is a no-op.
	evs[3].Cancel()
	if got := e.Pending(); got != 8 {
		t.Fatalf("Pending() after double cancel = %d, want 8", got)
	}
	if err := e.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() after run = %d, want 0", got)
	}
	if got := e.Processed(); got != 8 {
		t.Fatalf("Processed() = %d, want 8", got)
	}
}

// TestCancelPreservesFiringOrder interleaves schedules and cancels
// (including same-timestamp events, where seq breaks the tie) and checks
// the survivors fire in exactly (time, FIFO) order. (at, seq) is a
// strict total order, so eager removal cannot perturb the pop order of
// the remaining events — this test would catch a regression in that
// argument.
func TestCancelPreservesFiringOrder(t *testing.T) {
	e := NewEngine(7)
	rng := rand.New(rand.NewSource(42))
	type rec struct {
		at Time
		id int
	}
	var fired []rec
	var all []*Event
	var want []rec
	for i := 0; i < 500; i++ {
		// Coarse timestamps force plenty of ties.
		at := time.Duration(rng.Intn(50)) * time.Millisecond
		id := i
		ev := e.Schedule(at, func() { fired = append(fired, rec{e.Now(), id}) })
		all = append(all, ev)
		want = append(want, rec{Time(at), id})
	}
	// Cancel a third of them, in random order.
	canceled := map[int]bool{}
	for _, i := range rng.Perm(len(all))[:len(all)/3] {
		all[i].Cancel()
		canceled[i] = true
	}
	var keep []rec
	for _, w := range want {
		if !canceled[w.id] {
			keep = append(keep, w)
		}
	}
	// Expected firing order: by time, FIFO (schedule order) within ties.
	sort.SliceStable(keep, func(i, j int) bool { return keep[i].at < keep[j].at })
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(fired) != len(keep) {
		t.Fatalf("fired %d events, want %d", len(fired), len(keep))
	}
	// Schedule order == seq order, so within one timestamp the FIFO
	// (id) order must be preserved; across timestamps, time order.
	for i := range keep {
		if fired[i] != keep[i] {
			t.Fatalf("firing[%d] = %+v, want %+v", i, fired[i], keep[i])
		}
	}
}

// TestCancelDuringOwnCallback exercises the e.index == -1 branch: by the
// time fn runs the event is already off the queue.
func TestCancelDuringOwnCallback(t *testing.T) {
	e := NewEngine(1)
	var ev *Event
	ran := false
	ev = e.Schedule(time.Millisecond, func() {
		ran = true
		ev.Cancel() // must not panic or corrupt the queue
	})
	e.Schedule(2*time.Millisecond, func() {})
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("callback did not run")
	}
	if got := e.Processed(); got != 2 {
		t.Fatalf("Processed() = %d, want 2", got)
	}
}

// TestRecycledEventIsCancelable pins the free-list reset: a shell
// recycled from a fired (or canceled, or self-canceled) event must come
// back with a clear canceled flag, so Cancel on the new event actually
// removes it instead of hitting the already-canceled early return.
func TestRecycledEventIsCancelable(t *testing.T) {
	e := NewEngine(1)
	// Retire shells through all three paths: plain fire, pre-fire cancel,
	// and self-cancel inside the callback.
	var self *Event
	e.Schedule(time.Millisecond, func() {})
	e.Schedule(2*time.Millisecond, func() {}).Cancel()
	self = e.Schedule(3*time.Millisecond, func() { self.Cancel() })
	if err := e.Run(10 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// New events now reuse those shells.
	fired := 0
	var evs []*Event
	for i := 0; i < 3; i++ {
		evs = append(evs, e.Schedule(time.Millisecond, func() { fired++ }))
	}
	for _, ev := range evs {
		if ev.Canceled() {
			t.Fatal("recycled event born canceled")
		}
		ev.Cancel()
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() after canceling recycled events = %d, want 0", got)
	}
	if err := e.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if fired != 0 {
		t.Fatalf("%d canceled recycled events fired", fired)
	}
}
