package mobility

import (
	"math/rand"
	"testing"
	"time"

	"anongeo/internal/geo"
	"anongeo/internal/sim"
)

// benchPositionAt queries a waypoint model at mostly-advancing times —
// the channel's access pattern — through the last-hit leg memo or the
// memo-free binary search.
func benchPositionAt(b *testing.B, memo bool) {
	arena := geo.NewRect(1500, 300)
	rng := rand.New(rand.NewSource(1))
	w := NewWaypoint(WaypointConfig{
		Bounds:   arena,
		MinSpeed: 1,
		MaxSpeed: 20,
		Pause:    sim.Second,
		Start:    RandomStart(arena, rng),
	}, rng)
	b.ReportAllocs()
	b.ResetTimer()
	var sink geo.Point
	for i := 0; i < b.N; i++ {
		t := sim.Time(i%60000) * sim.Time(time.Millisecond)
		if memo {
			sink = w.PositionAt(t)
		} else {
			sink = searchPositionAt(w, t)
		}
	}
	_ = sink
}

func BenchmarkWaypointPositionAt(b *testing.B) {
	b.Run("memo", func(b *testing.B) { benchPositionAt(b, true) })
	b.Run("nomemo", func(b *testing.B) { benchPositionAt(b, false) })
}
