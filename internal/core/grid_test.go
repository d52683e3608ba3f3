package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"anongeo/internal/fault"
)

// TestSweepCellsMatchNestedLoops pins the Figure 1 expansion the
// daemon, perfbench and DensitySweepOpts run: (nodes × protocol ×
// repeat) in that nesting order, each cell under base + 1000·nodes +
// rep, which is what the loops in front of the grid used to build.
func TestSweepCellsMatchNestedLoops(t *testing.T) {
	base := DefaultConfig()
	base.Seed = 7
	nodes := []int{20, 50}
	protos := []Protocol{ProtoGPSR, ProtoAGFW, ProtoAGFWNoAck}
	var want []Config
	for _, n := range nodes {
		for _, p := range protos {
			for rep := 0; rep < 2; rep++ {
				cfg := base
				cfg.Nodes, cfg.Protocol, cfg.Seed = n, p, base.Seed+int64(n)*1000+int64(rep)
				want = append(want, cfg)
			}
		}
	}
	cells := SweepCells(base, nodes, protos, 2)
	if len(cells) != len(want) {
		t.Fatalf("%d cells, want %d", len(cells), len(want))
	}
	for i, c := range cells {
		if !reflect.DeepEqual(c.Config, want[i]) {
			t.Errorf("cell %d (%s): config differs from the nested-loop expansion", i, c.Label)
		}
		if got := BaseSeedFor(c.Config.Seed, c.Config.Nodes); got != base.Seed+int64(i%2) {
			t.Errorf("cell %d: BaseSeedFor = %d, want %d", i, got, base.Seed+int64(i%2))
		}
	}
	if got := cells[3].Label; got != "AGFW/20 nodes/rep 1" {
		t.Errorf("label = %q", got)
	}
}

// TestGridSeedsWithoutNodesAxis: a grid that does not sweep nodes runs
// every point under base+rep, so its points share placements.
func TestGridSeedsWithoutNodesAxis(t *testing.T) {
	g := Grid{Base: DefaultConfig(), Axes: []Axis{{Name: "loss", Values: []string{"0", "0.1"}}}, Repeats: 3}
	g.Base.Seed = 5
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		for rep, c := range p.Cells {
			if c.Config.Seed != 5+int64(rep) {
				t.Errorf("%s: seed %d, want %d", c.Label, c.Config.Seed, 5+rep)
			}
		}
	}
	if pts[1].Coords[0] != "0.1" || pts[1].Cells[0].Config.LossRate != 0.1 {
		t.Errorf("point 1 = %v, loss %g", pts[1].Coords, pts[1].Cells[0].Config.LossRate)
	}
}

// TestGridDefenseDropsUnarmablePairs: the defense axis keeps a
// (protocol, defense) pair only when the stack can be armed, so every
// cell of the full defense × protocol grid validates.
func TestGridDefenseDropsUnarmablePairs(t *testing.T) {
	base := DefaultConfig()
	base.Duration = 20 * time.Second
	g := Grid{Base: base, Axes: []Axis{
		{Name: "defense", Values: []string{"all"}},
		{Name: "protocol", Values: []string{"gpsr", "agfw", "agfw-noack"}},
	}}
	pts, err := g.Points()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pts {
		got = append(got, strings.Join(p.Coords, "/"))
		if err := p.Cells[0].Config.Validate(); err != nil {
			t.Errorf("%s: %v", p.Cells[0].Label, err)
		}
	}
	want := "off/gpsr off/agfw off/agfw-noack trust/gpsr trust/agfw trust/agfw-noack revoke/agfw revoke/agfw-noack authack/agfw"
	if strings.Join(got, " ") != want {
		t.Errorf("points:\ngot  %s\nwant %s", strings.Join(got, " "), want)
	}
}

// TestParseAxisCanonicalizes covers the spellings the front ends and the
// wire accept, and the field+value errors for the rest.
func TestParseAxisCanonicalizes(t *testing.T) {
	for _, c := range []struct {
		axis string
		in   []string
		want string
	}{
		{"protocol", []string{"GPSR-Greedy", " agfw ", "AGFW-noACK", "gpsr"}, "gpsr agfw agfw-noack gpsr"},
		{"defense", []string{"on", "both"}, "trust off trust"},
		{"reach-filter", []string{"TRUE", "false"}, "true false"},
		{"loss", []string{"0.10", " 0 "}, "0.10 0"},
		{"policy", []string{"Closest"}, "closest"},
	} {
		a, err := ParseAxis(c.axis, c.in)
		if err != nil {
			t.Errorf("%s %v: %v", c.axis, c.in, err)
			continue
		}
		if got := strings.Join(a.Values, " "); got != c.want {
			t.Errorf("%s %v = %q, want %q", c.axis, c.in, got, c.want)
		}
	}
	for _, c := range []struct{ axis, value, want string }{
		{"warp", "1", `axis "warp": unknown`},
		{"nodes", "2.5", `axis nodes: value "2.5"`},
		{"loss", "x", `axis loss: value "x"`},
		{"protocol", "ospf", `axis protocol: value "ospf": want gpsr | agfw | agfw-noack`},
	} {
		if _, err := ParseAxis(c.axis, []string{c.value}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s=%s: got %v, want %q", c.axis, c.value, err, c.want)
		}
	}
	for _, p := range []Protocol{ProtoGPSR, ProtoAGFW, ProtoAGFWNoAck} {
		a, err := ParseAxis("protocol", []string{ProtocolValue(p)})
		if err != nil || a.Values[0] != ProtocolValue(p) {
			t.Errorf("ProtocolValue(%v) = %q does not round-trip: %v", p, ProtocolValue(p), err)
		}
	}
}

// TestEveryAxisMovesConfig applies one sample value per registry axis
// and checks that it lands on the Config; a new axis without a sample
// fails here.
func TestEveryAxisMovesConfig(t *testing.T) {
	samples := map[string]string{
		"nodes": "77", "payload": "128", "churn": "3", "authk": "2", "interval-ms": "150",
		"loss": "0.2", "speed": "5", "protocol": "gpsr", "policy": "closest", "reach-filter": "false",
		"greyhole": "0.1", "blackhole": "0.1", "burst": "0.5", "sigma": "10", "bogus": "0.1",
		"ackspoof": "0.1", "flood": "0.1", "defense": "trust",
	}
	base := DefaultConfig()
	for _, name := range axisNames() {
		v, ok := samples[name]
		if !ok {
			t.Errorf("axis %s has no sample value", name)
			continue
		}
		pts, err := Grid{Base: base, Axes: []Axis{{Name: name, Values: []string{v}, Rate: 40}}}.Points()
		if err != nil {
			t.Fatalf("%s=%s: %v", name, v, err)
		}
		if reflect.DeepEqual(pts[0].Cells[0].Config, base) {
			t.Errorf("%s=%s left the config unchanged", name, v)
		}
	}
	pts, err := Grid{Base: base, Axes: []Axis{{Name: "flood", Values: []string{"0.2"}, Rate: 40}}}.Points()
	if err != nil {
		t.Fatal(err)
	}
	want := fault.Entry{Kind: fault.KindFlood, Fraction: 0.2, Rate: 40}
	if f := pts[0].Cells[0].Config.Faults; f == nil || !reflect.DeepEqual(f.Entries, []fault.Entry{want}) {
		t.Errorf("flood plan = %+v, want %+v", f, want)
	}
}
