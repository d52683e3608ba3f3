package core

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"anongeo/internal/exp"
	"anongeo/internal/fault"
	"anongeo/internal/geo"
)

// TestConfigValidateFaultKnobs is the bugfix satellite's table test:
// the legacy fault knobs must be range-checked instead of silently
// misbehaving.
func TestConfigValidateFaultKnobs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		ok     bool
	}{
		{"defaults", func(c *Config) {}, true},
		{"loss at boundary 0", func(c *Config) { c.LossRate = 0 }, true},
		{"loss 0.5", func(c *Config) { c.LossRate = 0.5 }, true},
		{"loss negative", func(c *Config) { c.LossRate = -0.1 }, false},
		{"loss 1", func(c *Config) { c.LossRate = 1 }, false},
		{"loss above 1", func(c *Config) { c.LossRate = 1.5 }, false},
		{"churn down negative", func(c *Config) { c.ChurnDownFor = -time.Second }, false},
		{"churn negative", func(c *Config) { c.ChurnFailures = -1 }, false},
		{"churn all nodes", func(c *Config) { c.ChurnFailures = c.Nodes }, true},
		{"churn exceeds nodes", func(c *Config) { c.ChurnFailures = c.Nodes + 1 }, false},
		{"bad plan entry", func(c *Config) {
			c.Faults = &fault.Plan{Entries: []fault.Entry{{Kind: fault.KindBlackhole, Nodes: []int{c.Nodes}}}}
		}, false},
		{"good plan entry", func(c *Config) {
			c.Faults = &fault.Plan{Entries: []fault.Entry{{Kind: fault.KindGreyhole, P: 0.5, Count: 3}}}
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			c.mutate(&cfg)
			err := cfg.Validate()
			if c.ok && err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if !c.ok && err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// TestLegacyFaultKnobsParity is the back-compat gate for the fault-plan
// rewrite: on Figure 1 configurations, LossRate/ChurnFailures compiled
// through the fault plan must reproduce the pre-plan wiring. The pinned
// digests of the "legacy" cells were recorded with both wirings
// agreeing bit for bit.
func TestLegacyFaultKnobsParity(t *testing.T) {
	checkDigests(t, "legacy/")
}

// faultTestConfig is a small, fast scenario for fault-plan tests.
func faultTestConfig(proto Protocol, seed int64) Config {
	cfg := DefaultConfig()
	cfg.Protocol = proto
	cfg.Nodes = 25
	cfg.Seed = seed
	cfg.Area = geo.NewRect(1000, 300)
	cfg.Duration = 15 * time.Second
	cfg.Warmup = 3 * time.Second
	cfg.PacketInterval = 300 * time.Millisecond
	cfg.Flows = 10
	cfg.Senders = 8
	return cfg
}

// randomPlan draws a valid random fault plan: 1–4 entries of any kind
// with in-range parameters and windows inside the run.
func randomPlan(rng *rand.Rand, nodes int, duration time.Duration) *fault.Plan {
	kinds := []fault.Kind{
		fault.KindBernoulliLoss, fault.KindGilbertElliott, fault.KindJam,
		fault.KindBlackhole, fault.KindGreyhole, fault.KindMute,
		fault.KindPositionError, fault.KindOutage, fault.KindChurn,
		fault.KindBogusBeacon, fault.KindAckSpoof, fault.KindFlood,
	}
	window := func(e *fault.Entry) {
		e.From = time.Duration(rng.Float64() * float64(duration) / 2)
		if rng.Intn(2) == 0 {
			e.Until = e.From + time.Duration((0.1+rng.Float64()*0.4)*float64(duration))
		}
	}
	var p fault.Plan
	for n := 1 + rng.Intn(4); len(p.Entries) < n; {
		e := fault.Entry{Kind: kinds[rng.Intn(len(kinds))]}
		switch e.Kind {
		case fault.KindBernoulliLoss:
			e.P = rng.Float64() * 0.4
		case fault.KindGilbertElliott:
			e.PGood = rng.Float64() * 0.05
			e.PBad = 0.5 + rng.Float64()*0.5
			e.MeanGood = time.Duration(1+rng.Intn(5)) * time.Second
			e.MeanBad = time.Duration(1+rng.Intn(1000)) * time.Millisecond
		case fault.KindJam:
			window(&e)
			if rng.Intn(2) == 0 {
				r := geo.Rect{Min: geo.Point{X: 300, Y: 0}, Max: geo.Point{X: 600, Y: 300}}
				e.Region = &r
			}
		case fault.KindBlackhole, fault.KindMute:
			e.Count = 1 + rng.Intn(nodes/5)
			window(&e)
		case fault.KindGreyhole:
			e.Count = 1 + rng.Intn(nodes/5)
			e.P = rng.Float64()
			window(&e)
		case fault.KindPositionError:
			e.Fraction = rng.Float64()
			e.Sigma = rng.Float64() * 100
			e.FixInterval = time.Duration(1+rng.Intn(2000)) * time.Millisecond
		case fault.KindOutage:
			e.Count = 1 + rng.Intn(nodes/5)
			window(&e)
		case fault.KindChurn:
			e.Count = 1 + rng.Intn(nodes/2)
			e.DownFor = time.Duration(1+rng.Intn(10)) * time.Second
		case fault.KindBogusBeacon:
			e.Count = 1 + rng.Intn(nodes/5)
			e.P = rng.Float64()
			e.Lure = 50 + rng.Float64()*300
			window(&e)
		case fault.KindAckSpoof:
			e.Count = 1 + rng.Intn(nodes/5)
			e.P = rng.Float64()
			window(&e)
		case fault.KindFlood:
			e.Count = 1 + rng.Intn(nodes/5)
			e.Rate = 5 + rng.Float64()*15 // modest: keep test event counts sane
			window(&e)
		}
		p.Entries = append(p.Entries, e)
	}
	return &p
}

// TestRandomFaultPlansDeterministic is the property test: random seeded
// fault plans never panic, never fail the conservation audit or wedge
// detector (both run inside core.Run), and the same seed reproduces the
// identical Result — across all three protocols.
func TestRandomFaultPlansDeterministic(t *testing.T) {
	protos := []Protocol{ProtoGPSR, ProtoAGFW, ProtoAGFWNoAck}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		for _, proto := range protos {
			cfg := faultTestConfig(proto, seed)
			cfg.Faults = randomPlan(rand.New(rand.NewSource(seed*100+int64(proto))), cfg.Nodes, cfg.Duration)
			name := proto.String() + "/seed" + string(rune('0'+seed))
			t.Run(name, func(t *testing.T) {
				a, err := Run(cfg)
				if err != nil {
					t.Fatalf("plan %+v: %v", cfg.Faults.Entries, err)
				}
				b, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Errorf("same seed + same plan produced different results:\n%+v\n%+v", a, b)
				}
				if a.Summary.Sent == 0 {
					t.Fatal("no traffic generated; determinism check is vacuous")
				}
			})
		}
	}
}

// TestFaultMatrixSmoke runs every fault kind against every protocol at
// short duration — the CI -race job's target. Each cell must complete,
// pass the end-of-run audit, and still move some traffic.
func TestFaultMatrixSmoke(t *testing.T) {
	region := geo.Rect{Min: geo.Point{X: 400, Y: 0}, Max: geo.Point{X: 700, Y: 300}}
	entries := map[string]fault.Entry{
		"bernoulli": {Kind: fault.KindBernoulliLoss, P: 0.2},
		"ge":        {Kind: fault.KindGilbertElliott, PGood: 0.01, PBad: 0.8, MeanGood: 3 * time.Second, MeanBad: 500 * time.Millisecond},
		"jam":       {Kind: fault.KindJam, From: 5 * time.Second, Until: 10 * time.Second, Region: &region},
		"blackhole": {Kind: fault.KindBlackhole, Fraction: 0.2},
		"greyhole":  {Kind: fault.KindGreyhole, Fraction: 0.3, P: 0.5},
		"mute":      {Kind: fault.KindMute, Count: 5},
		"poserr":    {Kind: fault.KindPositionError, Fraction: 1, Sigma: 50},
		"outage":    {Kind: fault.KindOutage, Count: 4, From: 5 * time.Second, Until: 10 * time.Second},
		"churn":     {Kind: fault.KindChurn, Count: 8, DownFor: 4 * time.Second},
		"bogus":     {Kind: fault.KindBogusBeacon, Fraction: 0.2, P: 1},
		"ackspoof":  {Kind: fault.KindAckSpoof, Fraction: 0.2, P: 1},
		"flood":     {Kind: fault.KindFlood, Fraction: 0.15, Rate: 20},
	}
	protos := []Protocol{ProtoGPSR, ProtoAGFW, ProtoAGFWNoAck}
	for name, e := range entries {
		for _, proto := range protos {
			t.Run(name+"/"+proto.String(), func(t *testing.T) {
				cfg := faultTestConfig(proto, 11)
				cfg.Faults = &fault.Plan{Entries: []fault.Entry{e}}
				r, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if r.Summary.Sent == 0 {
					t.Fatal("no traffic generated")
				}
			})
		}
	}
}

// TestFaultSweepParallelWidths pins the acceptance criterion that fault
// plans stay deterministic across orchestrator parallelism: the same
// faulty grid run serially and at width 4 must match cell for cell.
func TestFaultSweepParallelWidths(t *testing.T) {
	base := faultTestConfig(ProtoAGFW, 5)
	base.Duration = 10 * time.Second
	base.Faults = &fault.Plan{Entries: []fault.Entry{
		{Kind: fault.KindGreyhole, Fraction: 0.2, P: 0.5},
		{Kind: fault.KindGilbertElliott, PGood: 0.02, PBad: 0.7},
	}}
	counts := []int{20, 25}
	protos := []Protocol{ProtoAGFW, ProtoGPSR}
	serial, err := DensitySweepOpts(base, counts, protos, SweepOptions{Repeats: 2, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := DensitySweepOpts(base, counts, protos, SweepOptions{Repeats: 2, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, wide) {
		t.Errorf("parallel width changed sweep results:\nserial: %+v\nwide:   %+v", serial, wide)
	}
}

// TestFaultsCacheKeyStable asserts the exp-cache compatibility
// satellite: a nil Faults field must not appear in the canonical config
// JSON (so pre-existing configs keep their cache keys within a schema
// version), while an actual plan must change the key.
func TestFaultsCacheKeyStable(t *testing.T) {
	cfg := DefaultConfig()
	b, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(b), "Faults") {
		t.Errorf("nil Faults leaks into canonical config JSON: %s", b)
	}
	cache, err := exp.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k1, err := cache.Key(cfg)
	if err != nil {
		t.Fatal(err)
	}
	withPlan := cfg
	withPlan.Faults = &fault.Plan{Entries: []fault.Entry{{Kind: fault.KindBernoulliLoss, P: 0.1}}}
	k2, err := cache.Key(withPlan)
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("attaching a fault plan did not change the cache key")
	}
}
