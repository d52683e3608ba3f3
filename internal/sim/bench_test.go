package sim

import (
	"testing"
	"time"
)

// BenchmarkEngineDispatch measures the schedule→fire round trip of the
// event loop — the cost every simulated frame, timer, and beacon pays.
// With the event free-list this must run allocation-free at steady state.
func BenchmarkEngineDispatch(b *testing.B) {
	eng := NewEngine(1)
	fired := 0
	var step func()
	step = func() {
		fired++
		if fired < b.N {
			eng.Schedule(time.Microsecond, step)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Schedule(time.Microsecond, step)
	if err := eng.RunAll(); err != nil {
		b.Fatal(err)
	}
	if fired != b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// BenchmarkEngineScheduleCancel measures the MAC's most common timer
// pattern: arm a future event and cancel it before it fires. Cancel
// removes eagerly and recycles the shell, so this too must be
// allocation-free at steady state.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	eng := NewEngine(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Schedule(time.Second, fn).Cancel()
	}
	if eng.Pending() != 0 {
		b.Fatalf("%d events left pending", eng.Pending())
	}
}
