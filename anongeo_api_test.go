package anongeo_test

import (
	"strings"
	"testing"
	"time"

	"anongeo"
)

// These tests exercise the public façade end to end, the way a
// downstream user would.

func tinyConfig() anongeo.Config {
	cfg := anongeo.DefaultConfig()
	cfg.Nodes = 20
	cfg.Senders = 6
	cfg.Flows = 8
	cfg.Duration = 30 * time.Second
	return cfg
}

func TestPublicRunAGFW(t *testing.T) {
	cfg := tinyConfig()
	cfg.Protocol = anongeo.ProtoAGFW
	res, err := anongeo.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Sent == 0 || res.Summary.Delivered == 0 {
		t.Fatalf("no traffic: %+v", res.Summary)
	}
	if res.Protocol != anongeo.ProtoAGFW {
		t.Fatalf("protocol = %v", res.Protocol)
	}
}

func TestPublicBuildAndInspect(t *testing.T) {
	net, err := anongeo.Build(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(net.Nodes) != 20 {
		t.Fatalf("nodes = %d", len(net.Nodes))
	}
	id := anongeo.NodeID(3)
	if net.Node(id) == nil {
		t.Fatalf("node %s missing", id)
	}
	loc, ok := net.Lookup(id)
	if !ok || !net.Cfg.Area.Contains(loc) {
		t.Fatalf("lookup = %v %v", loc, ok)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Sent == 0 {
		t.Fatal("no packets sent")
	}
}

func TestPublicSweepAndWriters(t *testing.T) {
	cfg := tinyConfig()
	cfg.Duration = 20 * time.Second
	pts, err := anongeo.DensitySweepOpts(cfg, []int{20, 30},
		[]anongeo.Protocol{anongeo.ProtoGPSR, anongeo.ProtoAGFWNoAck}, anongeo.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	var table, csv strings.Builder
	if err := anongeo.WriteSweepTable(&table, pts); err != nil {
		t.Fatal(err)
	}
	if err := anongeo.WriteSweepCSV(&csv, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "AGFW-noACK") || !strings.Contains(csv.String(), "GPSR-Greedy") {
		t.Fatal("writers missing protocols")
	}
}

func TestPublicLocationServiceModes(t *testing.T) {
	cfg := tinyConfig()
	cfg.LocationService = anongeo.LSALS
	cfg.Warmup = 15 * time.Second
	cfg.Duration = 45 * time.Second
	net, err := anongeo.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	if net.LSStats().Updates == 0 {
		t.Fatal("LS overlay idle via public API")
	}
}

func TestPaperNodeCounts(t *testing.T) {
	if len(anongeo.PaperNodeCounts) == 0 || anongeo.PaperNodeCounts[0] != 50 {
		t.Fatalf("PaperNodeCounts = %v", anongeo.PaperNodeCounts)
	}
}
