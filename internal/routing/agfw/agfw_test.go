package agfw

import (
	"crypto/rsa"
	"fmt"
	"testing"
	"time"

	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/mac"
	"anongeo/internal/metrics"
	"anongeo/internal/mobility"
	"anongeo/internal/neighbor"
	"anongeo/internal/radio"
	"anongeo/internal/sim"
)

// testBed wires engine, channel, collector, and AGFW nodes.
type testBed struct {
	eng     *sim.Engine
	ch      *radio.Channel
	col     *metrics.Collector
	routers []*Router
	macs    []*mac.DCF
}

func newTestBed(seed int64) *testBed {
	eng := sim.NewEngine(seed)
	return &testBed{
		eng: eng,
		ch:  radio.NewChannel(eng, 250),
		col: metrics.NewCollector(),
	}
}

// addNode creates an AGFW node. All MAC frames use the broadcast source
// address: the anonymous configuration.
func (tb *testBed) addNode(model mobility.Model, cfg Config) *Router {
	i := len(tb.routers)
	id := anoncrypto.Identity(fmt.Sprintf("n%d", i))
	d := mac.New(tb.eng, tb.ch, model, mac.DefaultParams(), mac.Broadcast, nil, tb.eng.NewStream())
	r := New(tb.eng, d, id, d.Iface().Pos, NewModeledScheme(id), cfg, tb.col, nil, tb.eng.NewStream())
	r.Start()
	tb.routers = append(tb.routers, r)
	tb.macs = append(tb.macs, d)
	return r
}

func (tb *testBed) addStatic(x, y float64, cfg Config) *Router {
	return tb.addNode(mobility.Static{At: geo.Pt(x, y)}, cfg)
}

func (tb *testBed) line(n int, cfg Config) {
	for i := 0; i < n; i++ {
		tb.addStatic(float64(i)*200, 0, cfg)
	}
}

func TestHellosBuildANT(t *testing.T) {
	tb := newTestBed(1)
	tb.line(3, DefaultConfig())
	if err := tb.eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	now := tb.eng.Now()
	// The middle node heard several hellos from two neighbors; with
	// per-hello pseudonyms the ANT holds more entries than neighbors.
	if got := tb.routers[1].ANT().Len(now); got < 2 {
		t.Fatalf("middle ANT has %d entries, want >= 2", got)
	}
}

func TestANTEntriesArePseudonymous(t *testing.T) {
	tb := newTestBed(2)
	tb.line(2, DefaultConfig())
	if err := tb.eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Multiple hellos from the same neighbor must appear under multiple
	// pseudonyms (unlinkability).
	entries := tb.routers[0].ANT().Entries(tb.eng.Now())
	seen := map[anoncrypto.Pseudonym]bool{}
	for _, e := range entries {
		if seen[e.N] {
			t.Fatal("duplicate pseudonym entries")
		}
		seen[e.N] = true
	}
	if len(entries) < 2 {
		t.Fatalf("expected multiple pseudonym entries, got %d", len(entries))
	}
}

func TestMultiHopDeliveryWithAck(t *testing.T) {
	tb := newTestBed(3)
	tb.line(5, DefaultConfig())
	tb.eng.Schedule(5*time.Second, func() {
		tb.routers[0].SendData("n4", geo.Pt(800, 0), 64, 1)
	})
	if err := tb.eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	s := tb.col.Summarize()
	if s.Delivered != 1 {
		t.Fatalf("not delivered: %v drops=%v", s, tb.col.Drops())
	}
	if s.AvgHops < 3 || s.AvgHops > 6 {
		t.Fatalf("hops = %v, implausible for a 4-hop chain", s.AvgHops)
	}
}

func TestMultiHopDeliveryWithoutAck(t *testing.T) {
	cfg := DefaultConfig()
	cfg.UseAck = false
	tb := newTestBed(4)
	tb.line(5, cfg)
	tb.eng.Schedule(5*time.Second, func() {
		tb.routers[0].SendData("n4", geo.Pt(800, 0), 64, 1)
	})
	if err := tb.eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// A quiet chain has no collisions; even without ACKs it delivers.
	if tb.col.Summarize().Delivered != 1 {
		t.Fatalf("quiet-network no-ack delivery failed: drops=%v", tb.col.Drops())
	}
}

func TestOnlyLastHopRegionTriesTrapdoor(t *testing.T) {
	tb := newTestBed(5)
	tb.line(5, DefaultConfig())
	tb.eng.Schedule(5*time.Second, func() {
		tb.routers[0].SendData("n4", geo.Pt(800, 0), 64, 1)
	})
	if err := tb.eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Nodes 0..2 are farther than 250 m from (800,0): no trapdoor tries.
	for i := 0; i < 3; i++ {
		if got := tb.routers[i].Stats().TrapdoorTries; got != 0 {
			t.Fatalf("node %d outside last-hop region tried %d trapdoors", i, got)
		}
	}
	// The destination must have opened exactly one.
	if got := tb.routers[4].Stats().TrapdoorOpens; got != 1 {
		t.Fatalf("destination opens = %d, want 1", got)
	}
}

func TestLastForwardingAttempt(t *testing.T) {
	// Topology: relay chain 0-1, destination n2 close to loc_d but NOT
	// the greedy target: n1 has no neighbor closer to loc_d than itself
	// (n2's hellos do make it a neighbor though...). Force the last-hop
	// broadcast instead by making the destination's reported location
	// between n1 and n2 so that n1 is within range of loc_d but n2's
	// entries are farther from loc_d than n1.
	cfg := DefaultConfig()
	tb := newTestBed(6)
	tb.addStatic(0, 0, cfg)   // n0 source
	tb.addStatic(200, 0, cfg) // n1 relay in last-hop region of loc_d
	tb.addStatic(360, 0, cfg) // n2 destination, 60 m past loc_d
	if err := tb.eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	// loc_d = (300,0): dist(n1)=100 (in region), dist(n2)=60 — n2 IS
	// closer, so greedy reaches n2 directly; to force the n=0 path give
	// loc_d = (240,0): dist(n1)=40, dist(n2)=120 → no neighbor of n1 is
	// closer to loc_d than n1 itself, so n1 must broadcast n=0 and n2
	// (within 250 m of n1) opens the trapdoor.
	tb.eng.Schedule(0, func() {
		tb.routers[0].SendData("n2", geo.Pt(240, 0), 64, 1)
	})
	if err := tb.eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tb.col.Summarize().Delivered != 1 {
		t.Fatalf("last forwarding attempt failed: drops=%v", tb.col.Drops())
	}
	if tb.routers[1].Stats().LastHopAttempts == 0 {
		t.Fatal("relay never used the n=0 last forwarding attempt")
	}
}

func TestDeadEndStops(t *testing.T) {
	tb := newTestBed(7)
	cfg := DefaultConfig()
	tb.addStatic(0, 0, cfg)
	tb.addStatic(200, 0, cfg)
	// Destination at 900: n1 has no closer neighbor and is not in the
	// last-hop region → STOP, packet dropped.
	tb.col.PacketSent(99, 0)
	tb.eng.Schedule(5*time.Second, func() {
		p := Packet{PktID: 99, DstLoc: geo.Pt(900, 0), Trapdoor: ModeledTrapdoor{Dst: "nowhere"}, Bytes: 64}
		tb.routers[0].handled[99] = true
		tb.routers[0].forwardDecision(p)
	})
	if err := tb.eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if tb.col.Summarize().Delivered != 0 {
		t.Fatal("undeliverable packet delivered")
	}
	total := 0
	for _, r := range tb.routers {
		total += r.Stats().DeadEnds
	}
	if total == 0 {
		t.Fatalf("no dead end recorded: drops=%v", tb.col.Drops())
	}
}

func TestAckRetransmissionRecoversLoss(t *testing.T) {
	// Hidden-terminal jammer j sits in range of relay n1 but not of
	// source n0. j floods broadcasts, colliding many first transmissions
	// at n1; the network-layer ACK must recover via retransmission.
	cfg := DefaultConfig()
	tb := newTestBed(8)
	tb.addStatic(0, 0, cfg)          // n0 source
	tb.addStatic(240, 0, cfg)        // n1 relay/destination region
	tb.addStatic(420, 0, cfg)        // n2 destination
	jam := tb.addStatic(480, 0, cfg) // j: hidden from n0/n1's CS at 480? in range of n2 only
	_ = jam
	if err := tb.eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	sent := 0
	for i := 0; i < 20; i++ {
		id := uint64(i + 1)
		tb.eng.Schedule(time.Duration(i)*100*time.Millisecond, func() {
			tb.routers[0].SendData("n2", geo.Pt(420, 0), 64, id)
		})
		sent++
	}
	if err := tb.eng.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	s := tb.col.Summarize()
	if s.Delivered < sent*8/10 {
		t.Fatalf("delivered %d of %d with ACKs; drops=%v", s.Delivered, sent, tb.col.Drops())
	}
}

func TestNoAckLosesUnderHiddenTerminals(t *testing.T) {
	// Two hidden sources saturate a middle relay; without ACKs a chunk
	// of packets must vanish, and with ACKs most must survive. This is
	// Figure 1(a)'s mechanism in miniature.
	run := func(useAck bool, seed int64) float64 {
		cfg := DefaultConfig()
		cfg.UseAck = useAck
		tb := newTestBed(seed)
		tb.addStatic(0, 0, cfg)     // n0 source A
		tb.addStatic(500, 0, cfg)   // n1 source B (hidden from A)
		tb.addStatic(250, 0, cfg)   // n2 middle relay
		tb.addStatic(250, 200, cfg) // n3 destination near middle
		if err := tb.eng.Run(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		id := uint64(0)
		for i := 0; i < 20; i++ {
			d := time.Duration(i) * 25 * time.Millisecond
			id++
			a := id
			tb.eng.Schedule(d, func() { tb.routers[0].SendData("n3", geo.Pt(250, 200), 64, a) })
			id++
			b := id
			tb.eng.Schedule(d, func() { tb.routers[1].SendData("n3", geo.Pt(250, 200), 64, b) })
		}
		if err := tb.eng.Run(25 * time.Second); err != nil {
			t.Fatal(err)
		}
		return tb.col.Summarize().DeliveryFraction
	}
	noAck := run(false, 9)
	withAck := run(true, 9)
	if noAck >= withAck {
		t.Fatalf("pdf noAck=%.3f >= withAck=%.3f; ACK not helping", noAck, withAck)
	}
	if withAck < 0.85 {
		t.Fatalf("pdf with ACK = %.3f, too low", withAck)
	}
	if noAck > withAck-0.3 {
		t.Fatalf("pdf without ACK = %.3f vs %.3f, hidden terminals had no effect", noAck, withAck)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	tb := newTestBed(10)
	tb.line(3, DefaultConfig())
	if err := tb.eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	tb.eng.Schedule(0, func() { tb.routers[0].SendData("n2", geo.Pt(400, 0), 64, 1) })
	if err := tb.eng.Run(15 * time.Second); err != nil {
		t.Fatal(err)
	}
	s := tb.col.Summarize()
	if s.Delivered != 1 {
		t.Fatalf("delivered = %d", s.Delivered)
	}
	// However many retransmissions occurred, the destination reported
	// the packet up exactly once (metrics dedupe saw no extra arrivals
	// from this router's own dedupe).
	if tb.routers[2].Stats().TrapdoorOpens > 1 {
		t.Fatalf("destination processed the packet %d times", tb.routers[2].Stats().TrapdoorOpens)
	}
}

func TestFrameSizesIncludeTrapdoor(t *testing.T) {
	tb := newTestBed(11)
	tb.line(2, DefaultConfig())
	if err := tb.eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	before := tb.ch.Stats().BitsSent
	tb.eng.Schedule(0, func() { tb.routers[0].SendData("n1", geo.Pt(200, 0), 64, 1) })
	if err := tb.eng.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	bits := tb.ch.Stats().BitsSent - before
	// At least one data frame: header 23 + trapdoor 64 + payload 64 +
	// MAC header 28 = 179 bytes = 1432 bits.
	if bits < 1432 {
		t.Fatalf("data transmission only %d bits; trapdoor bytes missing", bits)
	}
}

func TestEncryptDecryptDelaysCharged(t *testing.T) {
	cfg := DefaultConfig()
	tb := newTestBed(12)
	tb.line(2, cfg)
	if err := tb.eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	var deliveredAt sim.Time
	tb.routers[1].deliver = func(uint64, int) { deliveredAt = tb.eng.Now() }
	start := tb.eng.Now()
	tb.eng.Schedule(0, func() { tb.routers[0].SendData("n1", geo.Pt(200, 0), 64, 1) })
	if err := tb.eng.Run(6 * time.Second); err != nil {
		t.Fatal(err)
	}
	if deliveredAt == 0 {
		t.Fatal("not delivered")
	}
	lat := deliveredAt.Sub(start)
	// Must include at least 0.5 ms encrypt + 8.5 ms decrypt.
	if lat < 9*time.Millisecond {
		t.Fatalf("one-hop latency %v omits crypto processing delays", lat)
	}
}

func TestSelfDelivery(t *testing.T) {
	tb := newTestBed(13)
	tb.line(1, DefaultConfig())
	tb.eng.Schedule(0, func() { tb.routers[0].SendData("n0", geo.Pt(0, 0), 64, 1) })
	if err := tb.eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if tb.col.Summarize().Delivered != 1 {
		t.Fatal("self delivery failed")
	}
}

func TestFreshnessPolicySelectsConfigured(t *testing.T) {
	for _, pol := range []neighbor.Policy{neighbor.PolicyClosest, neighbor.PolicyFreshest, neighbor.PolicyWeighted} {
		cfg := DefaultConfig()
		cfg.Policy = pol
		tb := newTestBed(14)
		tb.line(4, cfg)
		tb.eng.Schedule(5*time.Second, func() {
			tb.routers[0].SendData("n3", geo.Pt(600, 0), 64, 1)
		})
		if err := tb.eng.Run(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if tb.col.Summarize().Delivered != 1 {
			t.Fatalf("policy %v failed delivery: %v", pol, tb.col.Drops())
		}
	}
}

func TestRealTrapdoorSchemeEndToEnd(t *testing.T) {
	// Same 3-node chain, but with genuine RSA trapdoors.
	eng := sim.NewEngine(15)
	ch := radio.NewChannel(eng, 250)
	col := metrics.NewCollector()

	keys := make(map[anoncrypto.Identity]*anoncrypto.KeyPair)
	ids := []anoncrypto.Identity{"n0", "n1", "n2"}
	for _, id := range ids {
		kp, err := anoncrypto.KeyPairFor(id, anoncrypto.DefaultKeyBits)
		if err != nil {
			t.Fatal(err)
		}
		keys[id] = kp
	}
	dir := CertDirectory(func(dst anoncrypto.Identity) (*rsa.PublicKey, bool) {
		kp, ok := keys[dst]
		if !ok {
			return nil, false
		}
		return kp.Public(), true
	})

	var routers []*Router
	for i, id := range ids {
		d := mac.New(eng, ch, mobility.Static{At: geo.Pt(float64(i)*200, 0)}, mac.DefaultParams(), mac.Broadcast, nil, eng.NewStream())
		r := New(eng, d, id, d.Iface().Pos, &RealScheme{Self: keys[id], Dir: dir}, DefaultConfig(), col, nil, eng.NewStream())
		r.Start()
		routers = append(routers, r)
	}
	if err := eng.Run(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	eng.Schedule(0, func() { routers[0].SendData("n2", geo.Pt(400, 0), 64, 1) })
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if col.Summarize().Delivered != 1 {
		t.Fatalf("real-crypto delivery failed: %v", col.Drops())
	}
	if routers[2].Stats().TrapdoorOpens != 1 {
		t.Fatal("destination did not open the real trapdoor")
	}
	if routers[1].Stats().TrapdoorOpens != 0 {
		t.Fatal("relay opened a trapdoor not meant for it")
	}
}
