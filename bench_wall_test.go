// Wall-clock throughput of the whole simulator, as a go-test benchmark.
// Unlike bench_test.go (whose metrics are the paper's figures), here the
// time per op IS the result: one op is one complete Figure 1(a) N=150
// GPSR run, and sim-s/wall-s reports how much simulated time one
// wall-clock second buys. The committed BENCH_core.json (from
// `go run ./cmd/bench`) tracks the same quantity with min-of-reps noise
// control.
package anongeo_test

import (
	"testing"
	"time"

	"anongeo"
)

func BenchmarkEngineThroughput(b *testing.B) {
	cfg := benchConfig(anongeo.ProtoGPSR, 150, 1)
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := anongeo.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
	wall := time.Since(start).Seconds()
	b.ReportMetric(cfg.Duration.Seconds()*float64(b.N)/wall, "sim-s/wall-s")
}
