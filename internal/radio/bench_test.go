package radio

import (
	"math/rand"
	"testing"
	"time"

	"anongeo/internal/geo"
	"anongeo/internal/mobility"
	"anongeo/internal/sim"
)

// BenchmarkTransmitDense drives the channel hot path at Figure 1's top
// density — 150 waypoint nodes in a 1500×300 m arena — one frame every
// 2 ms, timing the full transmit→finish cycle (sensing-set freeze,
// busy/idle notifications, delivery bookkeeping, index rebinning).
func BenchmarkTransmitDense(b *testing.B) {
	arena := geo.NewRect(1500, 300)
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	c.SetCarrierSenseRange(550)
	c.EnableSpatialIndex(arena, 20)
	const n = 150
	rng := rand.New(rand.NewSource(9))
	for k := 0; k < n; k++ {
		c.AddNode(mobility.NewWaypoint(mobility.WaypointConfig{
			Bounds:   arena,
			MinSpeed: 1,
			MaxSpeed: 20,
			Start:    mobility.RandomStart(arena, rng),
		}, rand.New(rand.NewSource(int64(k)))), nullRx{})
	}
	sent := 0
	var step func()
	step = func() {
		c.ifaces[sent%n].Transmit(64*8, 500*time.Microsecond, nil)
		sent++
		if sent < b.N {
			eng.Schedule(2*time.Millisecond, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Schedule(time.Millisecond, step)
	if err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
	if got := c.Stats().Transmissions; got != b.N {
		b.Fatalf("made %d transmissions, want %d", got, b.N)
	}
}
