package core

import (
	"strings"
	"testing"
	"time"

	"anongeo/internal/neighbor"
)

// shortConfig is a fast scenario for unit tests: 45 s, 50 nodes.
func shortConfig(proto Protocol) Config {
	cfg := DefaultConfig()
	cfg.Duration = 45 * time.Second
	cfg.Protocol = proto
	return cfg
}

func TestConfigValidation(t *testing.T) {
	cases := map[string]func(*Config){
		"too few nodes":    func(c *Config) { c.Nodes = 1 },
		"zero range":       func(c *Config) { c.RadioRange = 0 },
		"zero duration":    func(c *Config) { c.Duration = 0 },
		"warmup>=duration": func(c *Config) { c.Warmup = c.Duration },
		"senders>nodes":    func(c *Config) { c.Senders = c.Nodes + 1 },
		"zero flows":       func(c *Config) { c.Flows = 0 },
		"zero interval":    func(c *Config) { c.PacketInterval = 0 },
		"bad protocol":     func(c *Config) { c.Protocol = 0 },
	}
	for name, mutate := range cases {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := Build(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoGPSR.String() != "GPSR-Greedy" || ProtoAGFW.String() != "AGFW" || ProtoAGFWNoAck.String() != "AGFW-noACK" {
		t.Fatal("protocol names wrong")
	}
	if !strings.Contains(Protocol(9).String(), "9") {
		t.Fatal("unknown protocol string")
	}
}

func TestGPSRScenarioDelivers(t *testing.T) {
	res, err := Run(shortConfig(ProtoGPSR))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Sent == 0 {
		t.Fatal("no traffic generated")
	}
	if res.Summary.DeliveryFraction < 0.9 {
		t.Fatalf("GPSR pdf = %.3f at modest load, want >= 0.9 (drops %v)",
			res.Summary.DeliveryFraction, res.Summary.Drops)
	}
	if res.GPSR.BeaconsSent == 0 {
		t.Fatal("no beacons sent")
	}
	if res.MAC.RTSSent == 0 {
		t.Fatal("GPSR sent no RTS frames despite RTS/CTS being enabled")
	}
}

func TestAGFWScenarioDelivers(t *testing.T) {
	res, err := Run(shortConfig(ProtoAGFW))
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.DeliveryFraction < 0.9 {
		t.Fatalf("AGFW pdf = %.3f, want >= 0.9 (drops %v)",
			res.Summary.DeliveryFraction, res.Summary.Drops)
	}
	if res.MAC.RTSSent != 0 {
		t.Fatal("AGFW used RTS/CTS; all transmissions must be broadcasts")
	}
	if res.AGFW.TrapdoorOpens == 0 {
		t.Fatal("no trapdoors opened")
	}
	// §3.2's efficiency claim: trapdoor attempts happen only in the
	// last-hop region, so tries must be far fewer than data forwards.
	if res.AGFW.TrapdoorTries > res.AGFW.Forwards {
		t.Fatalf("trapdoor tries (%d) exceed forwards (%d); locality broken",
			res.AGFW.TrapdoorTries, res.AGFW.Forwards)
	}
}

func TestAGFWNoAckDeliversLess(t *testing.T) {
	withAck, err := Run(shortConfig(ProtoAGFW))
	if err != nil {
		t.Fatal(err)
	}
	noAck, err := Run(shortConfig(ProtoAGFWNoAck))
	if err != nil {
		t.Fatal(err)
	}
	if noAck.Summary.DeliveryFraction >= withAck.Summary.DeliveryFraction {
		t.Fatalf("noACK pdf %.3f >= ACK pdf %.3f",
			noAck.Summary.DeliveryFraction, withAck.Summary.DeliveryFraction)
	}
	if noAck.AGFW.Retransmits != 0 {
		t.Fatal("noACK variant retransmitted")
	}
}

func TestBroadcastOnlyMACInAGFW(t *testing.T) {
	cfg := shortConfig(ProtoAGFW)
	cfg.WithSniffer = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Harvest == nil {
		t.Fatal("sniffer harvest missing")
	}
	if len(res.Harvest.ByMAC) != 0 {
		t.Fatal("AGFW leaked MAC addresses")
	}
	if len(res.Harvest.ByIdentity) != 0 {
		t.Fatal("AGFW leaked identities")
	}
	if len(res.Harvest.ByPseudonym) == 0 {
		t.Fatal("no pseudonymous hellos observed")
	}
}

func TestGPSRLeaksInHarvest(t *testing.T) {
	cfg := shortConfig(ProtoGPSR)
	cfg.WithSniffer = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Harvest.ByIdentity) < cfg.Nodes {
		t.Fatalf("adversary learned %d identities, want all %d", len(res.Harvest.ByIdentity), cfg.Nodes)
	}
}

func TestExposeSenderMACMisconfiguration(t *testing.T) {
	cfg := shortConfig(ProtoAGFW)
	cfg.ExposeSenderMAC = true
	cfg.WithSniffer = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Harvest.ByMAC) == 0 {
		t.Fatal("misconfigured AGFW should leak MAC addresses")
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := shortConfig(ProtoAGFW)
	cfg.Duration = 30 * time.Second
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.Sent != b.Summary.Sent ||
		a.Summary.Delivered != b.Summary.Delivered ||
		a.Summary.AvgLatency != b.Summary.AvgLatency ||
		a.Channel.Transmissions != b.Channel.Transmissions {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.Summary, b.Summary)
	}
	cfg.Seed++
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Channel.Transmissions == c.Channel.Transmissions && a.Summary.AvgLatency == c.Summary.AvgLatency {
		t.Fatal("different seeds produced identical runs")
	}
}

func TestStaticScenario(t *testing.T) {
	cfg := shortConfig(ProtoAGFW)
	cfg.Static = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.DeliveryFraction < 0.9 {
		t.Fatalf("static pdf = %.3f", res.Summary.DeliveryFraction)
	}
}

func TestRealCryptoScenario(t *testing.T) {
	cfg := shortConfig(ProtoAGFW)
	cfg.Nodes = 12
	cfg.Senders = 4
	cfg.Flows = 6
	cfg.Duration = 30 * time.Second
	cfg.RealCrypto = true
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.Delivered == 0 {
		t.Fatalf("real-crypto run delivered nothing: %v", res.Summary.Drops)
	}
	if res.AGFW.TrapdoorOpens == 0 {
		t.Fatal("no real trapdoors opened")
	}
}

func TestPerimeterScenario(t *testing.T) {
	cfg := shortConfig(ProtoGPSR)
	cfg.Perimeter = true
	cfg.Nodes = 30 // sparser: greedy dead-ends appear
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary.DeliveryFraction == 0 {
		t.Fatal("perimeter scenario delivered nothing")
	}
}

func TestAuthHelloScenario(t *testing.T) {
	base := shortConfig(ProtoAGFW)
	base.Duration = 30 * time.Second
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	authed := base
	authed.AuthHelloK = 4
	auth, err := Run(authed)
	if err != nil {
		t.Fatal(err)
	}
	// Ring-signed hellos are far bigger: channel bytes must grow.
	if auth.Channel.BitsSent <= plain.Channel.BitsSent {
		t.Fatalf("auth hellos (%d bits) not larger than plain (%d bits)",
			auth.Channel.BitsSent, plain.Channel.BitsSent)
	}
	if auth.Summary.Delivered == 0 {
		t.Fatal("auth-hello run delivered nothing")
	}
}

func TestPolicyAblationRuns(t *testing.T) {
	for _, pol := range []neighbor.Policy{neighbor.PolicyClosest, neighbor.PolicyFreshest, neighbor.PolicyWeighted} {
		cfg := shortConfig(ProtoAGFW)
		cfg.Duration = 30 * time.Second
		cfg.Policy = pol
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.DeliveryFraction < 0.7 {
			t.Fatalf("policy %v pdf = %.3f", pol, res.Summary.DeliveryFraction)
		}
	}
}

func TestNodeLookupOracle(t *testing.T) {
	net, err := Build(shortConfig(ProtoAGFW))
	if err != nil {
		t.Fatal(err)
	}
	loc, ok := net.Lookup(NodeID(3))
	if !ok {
		t.Fatal("oracle missing node")
	}
	if !net.Cfg.Area.Contains(loc) {
		t.Fatalf("node outside area: %v", loc)
	}
	if _, ok := net.Lookup("ghost"); ok {
		t.Fatal("oracle found a ghost")
	}
	if net.Node(NodeID(3)) == nil || net.Node("ghost") != nil {
		t.Fatal("Node() lookup wrong")
	}
}

func TestSweepHelpers(t *testing.T) {
	cfg := shortConfig(ProtoAGFW)
	cfg.Duration = 20 * time.Second
	cfg.Nodes = 30
	cfg.Senders = 10
	cfg.Flows = 10
	pts, err := DensitySweepOpts(cfg, []int{30, 40}, []Protocol{ProtoGPSR, ProtoAGFW}, SweepOptions{Repeats: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	var sb strings.Builder
	if err := WriteSweepTable(&sb, pts); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "GPSR-Greedy") {
		t.Fatalf("table missing protocol: %s", sb.String())
	}
	sb.Reset()
	if err := WriteSweepCSV(&sb, pts); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(strings.TrimSpace(sb.String()), "\n")) != 5 {
		t.Fatalf("csv rows wrong:\n%s", sb.String())
	}
	for _, p := range pts {
		if p.PDF() < 0 || p.PDF() > 1 {
			t.Fatalf("pdf out of range: %v", p.PDF())
		}
		_ = p.Latency()
	}
}
