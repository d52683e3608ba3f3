package sim

import (
	"math/rand"
	"testing"
	"time"
)

// liveSet is the tests' own model of the event queue: every scheduled
// event that has neither fired nor been canceled, keyed by scheduling
// order. The engine's contract is that each firing is the least
// (time, scheduling order) pair of this set.
type liveSet struct {
	t     *testing.T
	eng   *Engine
	next  int
	live  map[int]Time
	fired int
}

func newLiveSet(t *testing.T, eng *Engine) *liveSet {
	return &liveSet{t: t, eng: eng, live: map[int]Time{}}
}

// schedule schedules fn after d and records it as live; it returns the
// event's handle and its scheduling-order id.
func (s *liveSet) schedule(d time.Duration, fn func()) (*Event, int) {
	id := s.next
	s.next++
	s.live[id] = s.eng.Now().Add(d)
	return s.eng.Schedule(d, func() {
		s.check(id)
		fn()
	}), id
}

// check asserts that the firing event id is the minimum of the live set
// and retires it.
func (s *liveSet) check(id int) {
	at := s.live[id]
	if now := s.eng.Now(); now != at {
		s.t.Fatalf("event %d scheduled for %v fired at %v", id, at, now)
	}
	for other, oat := range s.live {
		if oat < at || (oat == at && other < id) {
			s.t.Fatalf("event %d (%v) fired while event %d (%v) was pending", id, at, other, oat)
		}
	}
	delete(s.live, id)
	s.fired++
}

// cancel cancels a live event and drops it from the set.
func (s *liveSet) cancel(ev *Event, id int) {
	ev.Cancel()
	delete(s.live, id)
}

// TestSchedulerParityRandomized drives the calendar queue through
// randomized schedule/cancel/reschedule workloads — heavy timestamp
// ties, cancels from inside callbacks, chained rescheduling — and
// requires every firing to be the least (time, scheduling order) pair
// among the events still pending.
func TestSchedulerParityRandomized(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		eng := NewEngine(1)
		s := newLiveSet(t, eng)
		rng := rand.New(rand.NewSource(seed))
		var handles []*Event
		var ids []int
		add := func(d time.Duration, fn func()) {
			ev, id := s.schedule(d, fn)
			handles = append(handles, ev)
			ids = append(ids, id)
		}
		// cancelRandom cancels a random scheduled event if it is still
		// live: a fired event's handle is recycled and must not be used.
		cancelRandom := func() {
			k := rng.Intn(len(ids))
			if _, ok := s.live[ids[k]]; ok {
				s.cancel(handles[k], ids[k])
			}
		}
		// Seed events; callbacks reschedule and cancel more.
		var spawn func(depth int) func()
		spawn = func(depth int) func() {
			return func() {
				if depth == 0 {
					return
				}
				// Chain: schedule follow-ups, sometimes at the same instant
				// (scheduling-order tie-break), sometimes canceling a
				// random live event.
				for i, n := 0, rng.Intn(3); i < n; i++ {
					add(time.Duration(rng.Intn(5))*time.Millisecond, spawn(depth-1))
				}
				if rng.Intn(3) == 0 {
					cancelRandom()
				}
			}
		}
		for i := 0; i < 200; i++ {
			add(time.Duration(rng.Intn(40))*time.Millisecond, spawn(2))
		}
		// Cancel a batch up front.
		for i := 0; i < 50; i++ {
			cancelRandom()
		}
		if err := eng.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if len(s.live) != 0 || eng.Pending() != 0 {
			t.Fatalf("seed %d: %d events never fired (engine reports %d pending)", seed, len(s.live), eng.Pending())
		}
		if s.fired < 150 {
			t.Fatalf("seed %d: only %d events fired; the workload checks little", seed, s.fired)
		}
	}
}

// TestSchedulerParitySparseAndClustered covers the calendar queue's two
// hard regimes in one deterministic script: microsecond-clustered bursts
// (many events per bucket-day) followed by minute-scale gaps (whole
// empty revolutions, exercising the direct-search fallback), with
// repeated Run horizons landing between events (the peek-reinsert path).
func TestSchedulerParitySparseAndClustered(t *testing.T) {
	eng := NewEngine(1)
	s := newLiveSet(t, eng)
	nop := func() {}
	// Dense cluster at t≈0, a stray at 2 min, another cluster there.
	for i := 0; i < 300; i++ {
		s.schedule(time.Duration(i%7)*time.Microsecond, nop)
	}
	s.schedule(2*time.Minute, func() {
		for i := 0; i < 100; i++ {
			s.schedule(time.Duration(i%3)*time.Microsecond, nop)
		}
	})
	// Horizons that stop between populated regions.
	for _, h := range []time.Duration{time.Millisecond, time.Second, 90 * time.Second, 3 * time.Minute} {
		if err := eng.Run(h); err != nil {
			t.Fatal(err)
		}
	}
	if len(s.live) != 0 || eng.Pending() != 0 {
		t.Fatalf("%d events never fired (engine reports %d pending)", len(s.live), eng.Pending())
	}
	if s.fired != 401 {
		t.Fatalf("fired %d events, want 401", s.fired)
	}
}
