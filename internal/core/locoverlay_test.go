package core

import (
	"testing"
	"time"
)

// lsConfig is a scenario with an in-band location service.
func lsConfig(mode LocationServiceMode) Config {
	cfg := DefaultConfig()
	cfg.Duration = 90 * time.Second
	cfg.PacketInterval = 300 * time.Millisecond
	cfg.LocationService = mode
	cfg.Warmup = 20 * time.Second // let the first RLU round land
	return cfg
}

func TestLSModeString(t *testing.T) {
	if LSOracle.String() != "oracle" || LSALS.String() != "ALS" || LSPlainDLM.String() != "DLM" {
		t.Fatal("mode names wrong")
	}
	if LocationServiceMode(9).String() == "" {
		t.Fatal("unknown mode empty")
	}
}

// TestLSReplaysIdentical runs one ALS and one DLM cell twice: the
// overlay must send its geocasts in an order fixed by the run, not by
// map iteration, so both runs produce the same result digest.
func TestLSReplaysIdentical(t *testing.T) {
	for _, mode := range []LocationServiceMode{LSALS, LSPlainDLM} {
		cfg := lsDigestConfig(mode)
		a, err := digestOf(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := digestOf(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%v: replay digest %.16s, first run %.16s", mode, b, a)
		}
	}
}

func TestPlainDLMOverlayDelivers(t *testing.T) {
	net, err := Build(lsConfig(LSPlainDLM))
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	ls := net.LSStats()
	if ls.Updates == 0 || ls.Queries == 0 {
		t.Fatalf("overlay idle: %+v", ls)
	}
	if ls.Resolved == 0 {
		t.Fatalf("no lookups resolved: %+v", ls)
	}
	if res.Summary.DeliveryFraction < 0.8 {
		t.Fatalf("DLM-overlay pdf = %.3f, want >= 0.8 (drops %v)",
			res.Summary.DeliveryFraction, res.Summary.Drops)
	}
}

func TestALSOverlayDelivers(t *testing.T) {
	net, err := Build(lsConfig(LSALS))
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	ls := net.LSStats()
	if ls.Resolved == 0 {
		t.Fatalf("no ALS lookups resolved: %+v", ls)
	}
	if ls.Decrypts == 0 {
		t.Fatal("ALS replies opened without decryption accounting")
	}
	if res.Summary.DeliveryFraction < 0.8 {
		t.Fatalf("ALS-overlay pdf = %.3f, want >= 0.8 (drops %v)",
			res.Summary.DeliveryFraction, res.Summary.Drops)
	}
}

func TestALSOverlayDegradesGracefully(t *testing.T) {
	// §5's prediction: with ALS in-band, performance is "expected to be
	// similar ... one might also expect it to elegantly degrade a bit"
	// relative to the oracle-assisted runs.
	oracle, err := Run(lsConfig(LSOracle))
	if err != nil {
		t.Fatal(err)
	}
	alsNet, err := Build(lsConfig(LSALS))
	if err != nil {
		t.Fatal(err)
	}
	als, err := alsNet.Run()
	if err != nil {
		t.Fatal(err)
	}
	if als.Summary.DeliveryFraction > oracle.Summary.DeliveryFraction {
		t.Logf("note: ALS pdf %.3f above oracle %.3f (seed luck, fine)",
			als.Summary.DeliveryFraction, oracle.Summary.DeliveryFraction)
	}
	if als.Summary.DeliveryFraction < oracle.Summary.DeliveryFraction-0.15 {
		t.Fatalf("ALS pdf %.3f degrades too much vs oracle %.3f",
			als.Summary.DeliveryFraction, oracle.Summary.DeliveryFraction)
	}
	if als.Summary.AvgLatency > 4*oracle.Summary.AvgLatency {
		t.Fatalf("ALS latency %v blows up vs oracle %v",
			als.Summary.AvgLatency, oracle.Summary.AvgLatency)
	}
}

func TestALSOverlayWorksUnderGPSRToo(t *testing.T) {
	// The DLM overlay also rides the GPSR baseline (geocast over
	// unicast forwarding).
	cfg := lsConfig(LSPlainDLM)
	cfg.Protocol = ProtoGPSR
	net, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if net.LSStats().Resolved == 0 {
		t.Fatalf("GPSR overlay resolved nothing: %+v", net.LSStats())
	}
	if res.Summary.DeliveryFraction < 0.8 {
		t.Fatalf("pdf = %.3f", res.Summary.DeliveryFraction)
	}
}

func TestALSOverlayPrivacy(t *testing.T) {
	// Even with the location service in-band, AGFW+ALS must not expose
	// identities or MAC addresses to a global sniffer.
	cfg := lsConfig(LSALS)
	cfg.WithSniffer = true
	net, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := net.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Harvest.ByIdentity) != 0 {
		t.Fatalf("ALS overlay leaked identities: %d", len(res.Harvest.ByIdentity))
	}
	if len(res.Harvest.ByMAC) != 0 {
		t.Fatal("ALS overlay leaked MAC addresses")
	}
}

func TestPlainDLMServerSeesIdentities(t *testing.T) {
	// The contrast: DLM's servers store (identity, location) cleartext.
	cfg := lsConfig(LSPlainDLM)
	net, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	exposed := 0
	for _, node := range net.Nodes {
		if node.overlay != nil {
			exposed += len(node.overlay.plainStore)
		}
	}
	if exposed == 0 {
		t.Fatal("no cleartext records at DLM servers — overlay not exercised")
	}
	// And under ALS, servers hold only opaque ciphertext records.
	cfgA := lsConfig(LSALS)
	netA, err := Build(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := netA.Run(); err != nil {
		t.Fatal(err)
	}
	ciphertexts := 0
	for _, node := range netA.Nodes {
		if node.overlay == nil {
			continue
		}
		if len(node.overlay.plainStore) != 0 {
			t.Fatal("ALS node holds plaintext records")
		}
		ciphertexts += len(node.overlay.alsStore)
	}
	if ciphertexts == 0 {
		t.Fatal("no sealed records at ALS servers")
	}
}

func TestLSCacheHitsServeRepeatTraffic(t *testing.T) {
	net, err := Build(lsConfig(LSALS))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Run(); err != nil {
		t.Fatal(err)
	}
	ls := net.LSStats()
	if ls.CacheHits <= ls.Queries {
		t.Fatalf("cache not absorbing repeat lookups: hits=%d queries=%d",
			ls.CacheHits, ls.Queries)
	}
}
