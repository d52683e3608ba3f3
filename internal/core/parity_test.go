package core

import (
	"reflect"
	"testing"
	"time"

	"anongeo/internal/geo"
	"anongeo/internal/neighbor"
)

// fig1Config is the calibrated Figure 1 workload at bench duration (the
// same cell bench_test.go runs), parameterized by protocol and density.
func fig1Config(proto Protocol, nodes int, seed int64) Config {
	cfg := DefaultConfig()
	cfg.Protocol = proto
	cfg.Nodes = nodes
	cfg.Seed = seed
	cfg.Area = geo.NewRect(1500, 300)
	cfg.Duration = 60 * time.Second
	cfg.PacketInterval = 300 * time.Millisecond
	cfg.PayloadBytes = 64
	cfg.Policy = neighbor.PolicyWeighted
	cfg.ReachFilter = true
	return cfg
}

// TestSpatialIndexParity holds the spatial-index radio to the results
// of the brute-force O(n) scan it replaced, on full Figure 1
// configurations: the pinned digests of the "parity" cells were
// recorded with both paths agreeing bit for bit.
func TestSpatialIndexParity(t *testing.T) {
	checkDigests(t, "parity/")
}

// TestSchedulerParity holds the calendar-queue scheduler to the results
// of the binary heap it replaced, on the same cells: their pinned
// digests were recorded with both schedulers agreeing bit for bit.
func TestSchedulerParity(t *testing.T) {
	checkDigests(t, "parity/")
}

// TestSweepWidthParity spot-checks that sweep results are independent of
// the worker-pool width — each cell owns its seed-derived engine, so a
// serial and a 4-wide run of the same grid must be identical, including
// under the calendar scheduler's pooled internal state.
func TestSweepWidthParity(t *testing.T) {
	base := fig1Config(ProtoGPSR, 50, 1)
	base.Duration = 20 * time.Second
	nodes := []int{50, 100}
	protos := []Protocol{ProtoGPSR, ProtoAGFW}
	serial, err := DensitySweepOpts(base, nodes, protos, SweepOptions{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := DensitySweepOpts(base, nodes, protos, SweepOptions{Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Errorf("sweep results depend on worker width:\nserial: %+v\nwide:   %+v", serial, wide)
	}
}
