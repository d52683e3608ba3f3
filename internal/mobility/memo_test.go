package mobility

import (
	"math/rand"
	"sort"
	"testing"

	"anongeo/internal/geo"
	"anongeo/internal/sim"
)

// searchPositionAt is the memo-free reference lookup: binary search the
// leg containing t, touching no memo state.
func searchPositionAt(w *Waypoint, t sim.Time) geo.Point {
	if t < 0 {
		t = 0
	}
	w.extendTo(t)
	i := sort.Search(len(w.legs), func(i int) bool { return w.legs[i].depart > t })
	return legPos(&w.legs[i], t)
}

// newTestPair builds two waypoint models with identical trajectories
// (same seed): one queried through PositionAt's memo, one through
// searchPositionAt.
func newTestPair(seed int64) (memo, plain *Waypoint) {
	cfg := WaypointConfig{
		Bounds:   geo.NewRect(1500, 300),
		MinSpeed: 1,
		MaxSpeed: 20,
		Pause:    5 * sim.Second,
		Start:    geo.Pt(100, 100),
	}
	memo = NewWaypoint(cfg, rand.New(rand.NewSource(seed)))
	plain = NewWaypoint(cfg, rand.New(rand.NewSource(seed)))
	return memo, plain
}

// TestLegMemoMatchesSearch drives the memoized model through monotonic,
// random, and adversarial (backwards, repeated, boundary) query orders
// and requires bit-identical positions to the pure binary-search model.
func TestLegMemoMatchesSearch(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		memo, plain := newTestPair(seed)
		rng := rand.New(rand.NewSource(seed + 100))

		var times []sim.Time
		// Near-monotonic sweep, the radio hot-path pattern.
		for ti := sim.Time(0); ti < 900*sim.Second; ti += sim.Time(rng.Intn(int(2 * sim.Second))) {
			times = append(times, ti)
		}
		// Fully random jumps, both directions.
		for i := 0; i < 2000; i++ {
			times = append(times, sim.Time(rng.Int63n(int64(900*sim.Second))))
		}
		// Repeats and exact leg boundaries.
		times = append(times, times[len(times)-1], 0, 0)
		memo.extendTo(200 * sim.Second)
		for _, l := range memo.legs {
			times = append(times, l.start, l.arrive, l.depart-1, l.depart)
		}

		for k, ti := range times {
			got := memo.PositionAt(ti)
			want := searchPositionAt(plain, ti)
			if got != want {
				t.Fatalf("seed %d query %d: PositionAt(%v) = %v with memo, %v without",
					seed, k, ti, got, want)
			}
		}
	}
}

// TestLegMemoNegativeTime pins the t<0 clamp through the memo path.
func TestLegMemoNegativeTime(t *testing.T) {
	memo, plain := newTestPair(9)
	if got, want := memo.PositionAt(-sim.Second), searchPositionAt(plain, -sim.Second); got != want {
		t.Fatalf("PositionAt(-1s) = %v with memo, %v without", got, want)
	}
}
