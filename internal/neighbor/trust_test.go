package neighbor

import (
	"math/rand"
	"sort"
	"testing"
	"time"

	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/mac"
	"anongeo/internal/sim"
)

// testTrustConfig is DefaultTrustConfig with the scenario-derived knobs
// (normally filled by core.Config) pinned for unit tests.
func testTrustConfig() TrustConfig {
	cfg := DefaultTrustConfig()
	cfg.MaxSpeed = 20
	cfg.RadioRange = 250
	return cfg
}

// TestTrustScoreConvergence pins the EWMA dynamics the defense relies
// on: a consistently honest relay converges to a high score within a few
// observations, and a consistently dropping one falls below the shun
// threshold within K = 3 failures at the default gain — about one
// pseudonym lifetime of ARQ interactions.
func TestTrustScoreConvergence(t *testing.T) {
	tr := NewTrust(testTrustConfig())
	now := sim.Time(0)
	for i := 0; i < 5; i++ {
		tr.Record("honest", true, now)
		now += sim.Second
	}
	if s := tr.Score("honest"); s < 0.9 {
		t.Errorf("honest relay score = %.3f after 5 confirmations, want > 0.9", s)
	}
	for i := 0; i < 3; i++ {
		if i < 2 && tr.Shunned("greyhole") {
			t.Fatalf("relay shunned after only %d failures", i)
		}
		tr.Record("greyhole", false, now)
		now += sim.Second
	}
	if !tr.Shunned("greyhole") {
		t.Errorf("dropping relay score = %.3f after 3 failures, still above shun threshold %.3f",
			tr.Score("greyhole"), tr.Config().MinScore)
	}
	if tr.Shunned("honest") || tr.Shunned("unknown") {
		t.Error("honest or unseen keys must not be shunned")
	}
}

// TestTrustCheckBeaconRange rejects beacons whose claimed position could
// not have been heard: farther than RangeSlack×RadioRange from the
// receiver. The violator is quarantined for QuarantineFor and usable
// again afterward.
func TestTrustCheckBeaconRange(t *testing.T) {
	tr := NewTrust(testTrustConfig())
	rx := geo.Pt(0, 0)
	if !tr.CheckBeacon("near", geo.Pt(200, 0), rx, 0) {
		t.Error("in-range claim rejected")
	}
	if tr.CheckBeacon("liar", geo.Pt(400, 0), rx, 0) {
		t.Error("claim at 400 m accepted against 1.25×250 m bound")
	}
	if tr.Quarantines != 1 {
		t.Errorf("Quarantines = %d, want 1", tr.Quarantines)
	}
	if !tr.Quarantined("liar", sim.Second) {
		t.Error("violator not quarantined")
	}
	if tr.Quarantined("liar", tr.Config().QuarantineFor+sim.Second) {
		t.Error("quarantine never expires")
	}
	if tr.Quarantined("near", sim.Second) {
		t.Error("honest key quarantined")
	}
}

// TestTrustCheckBeaconJump rejects position jumps no honest node could
// drive: farther than MaxSpeed·dt + JumpSlack between consecutive
// advertisements. Very stale history (dt > 10 s) is too loose to judge
// and is skipped.
func TestTrustCheckBeaconJump(t *testing.T) {
	tr := NewTrust(testTrustConfig())
	rx := geo.Pt(0, 0)
	if !tr.CheckBeacon("k", geo.Pt(100, 0), rx, 0) {
		t.Fatal("first beacon rejected")
	}
	// 1 s later the plausible envelope is 20·1 + 25 = 45 m.
	if tr.CheckBeacon("k", geo.Pt(200, 0), rx, sim.Second) {
		t.Error("100 m jump in 1 s accepted")
	}
	tr2 := NewTrust(testTrustConfig())
	tr2.CheckBeacon("k", geo.Pt(100, 0), rx, 0)
	if !tr2.CheckBeacon("k", geo.Pt(130, 0), rx, sim.Second) {
		t.Error("30 m jump in 1 s rejected")
	}
	tr3 := NewTrust(testTrustConfig())
	tr3.CheckBeacon("k", geo.Pt(100, 0), rx, 0)
	if !tr3.CheckBeacon("k", geo.Pt(240, 0), rx, sim.Time(11*time.Second)) {
		t.Error("jump judged against >10 s stale history")
	}
}

// TestTrustExpire garbage-collects untouched keys back to InitScore —
// the bound on state growth under pseudonym-rotating floods.
func TestTrustExpire(t *testing.T) {
	tr := NewTrust(testTrustConfig())
	tr.Record("old", false, 0)
	tr.Record("fresh", false, 9*sim.Second)
	tr.Expire(10*sim.Second, 5*sim.Second)
	if s := tr.Score("old"); s != tr.Config().InitScore {
		t.Errorf("expired key score = %.3f, want re-seeded init %.3f", s, tr.Config().InitScore)
	}
	if s := tr.Score("fresh"); s == tr.Config().InitScore {
		t.Error("recently touched key was expired")
	}
}

// TestTableClosestTrustedIsolatesGreyhole is the defense's selection
// story at the Table level: an attacker offering the best geographic
// progress wins at neutral trust, loses selection to an honest
// alternative within K recorded failures, and comes back only as a
// last-resort fallback when it is the sole candidate.
func TestTableClosestTrustedIsolatesGreyhole(t *testing.T) {
	tb := NewTable(ttl)
	dest, from := geo.Pt(1000, 0), geo.Pt(0, 0)
	tb.Update("attacker", mac.AddrFromUint64(1), geo.Pt(240, 0), 0)
	tb.Update("honest", mac.AddrFromUint64(2), geo.Pt(180, 0), 0)
	tr := NewTrust(testTrustConfig())

	if e, ok := tb.Closest(dest, from, sim.Second, tr); !ok || e.ID != "attacker" {
		t.Fatalf("neutral trust pick = %+v, %v; want the best-progress entry", e, ok)
	}
	for i := 0; i < 3; i++ {
		tr.Record("attacker", false, sim.Second)
	}
	if e, ok := tb.Closest(dest, from, sim.Second, tr); !ok || e.ID != "honest" {
		t.Fatalf("post-evidence pick = %+v, %v; want the honest entry", e, ok)
	}
	tb.Remove("honest")
	fallbacks := tr.Fallbacks
	if e, ok := tb.Closest(dest, from, sim.Second, tr); !ok || e.ID != "attacker" {
		t.Fatalf("sole-candidate pick = %+v, %v; want the shunned fallback", e, ok)
	}
	if tr.Fallbacks != fallbacks+1 {
		t.Error("fallback selection did not count")
	}
}

// TestANTTrustedIsolatesGreyhole mirrors the isolation story on the
// anonymous table: within one pseudonym lifetime, recorded ACK failures
// push a lure entry below an honest one despite better progress.
func TestANTTrustedIsolatesGreyhole(t *testing.T) {
	ant := NewANT(ttl, 20)
	dest, from := geo.Pt(1000, 0), geo.Pt(0, 0)
	var attacker, honest anoncrypto.Pseudonym
	attacker[0], honest[0] = 0xAA, 0xBB
	ant.Update(attacker, geo.Pt(240, 0), 0)
	ant.Update(honest, geo.Pt(180, 0), 0)
	tr := NewTrust(testTrustConfig())

	if e, ok := ant.ChooseNextHop(dest, from, sim.Second, PolicyClosest, nil, tr); !ok || e.N != attacker {
		t.Fatalf("neutral trust pick = %+v, %v; want the best-progress entry", e, ok)
	}
	for i := 0; i < 3; i++ {
		tr.Record(string(attacker[:]), false, sim.Second)
	}
	if e, ok := ant.ChooseNextHop(dest, from, sim.Second, PolicyClosest, nil, tr); !ok || e.N != honest {
		t.Fatalf("post-evidence pick = %+v, %v; want the honest entry", e, ok)
	}
	if e, ok := ant.ChooseNextHop(dest, from, sim.Second, PolicyClosest, map[anoncrypto.Pseudonym]bool{honest: true}, tr); !ok || e.N != attacker {
		t.Fatalf("sole-candidate pick = %+v, %v; want the shunned fallback", e, ok)
	}
}

// TestTrustedSelectionNeutralParity is the property test behind "nil
// trust means neutral": with no recorded evidence (every key at the
// uniform InitScore), selection through a trust table must agree with
// nil-trust selection on random tables — for the identity table, and
// for the ANT under PolicyWeighted (whose staleness-discounted ordering
// the trust table scales by the uniform score, preserving the argmax and
// the tie-break chain).
func TestTrustedSelectionNeutralParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		now := sim.Time(10 * time.Second)
		dest := geo.Pt(rng.Float64()*1000, rng.Float64()*300)
		from := geo.Pt(rng.Float64()*1000, rng.Float64()*300)

		tb := NewTable(ttl)
		ant := NewANT(ttl, 20)
		ant.SetReachRange(250)
		n := 1 + rng.Intn(12)
		seens := make([]sim.Time, n)
		for i := range seens {
			seens[i] = now - sim.Time(rng.Int63n(int64(ttl)))
		}
		sort.Slice(seens, func(i, j int) bool { return seens[i] < seens[j] })
		for i := 0; i < n; i++ {
			loc := geo.Pt(rng.Float64()*1000, rng.Float64()*300)
			tb.Update(anoncrypto.Identity(string(rune('a'+i))), mac.AddrFromUint64(uint64(i)), loc, seens[i])
			var p anoncrypto.Pseudonym
			rng.Read(p[:])
			ant.Update(p, loc, seens[i])
		}

		tr := NewTrust(testTrustConfig())
		wantT, okT := tb.Closest(dest, from, now, nil)
		gotT, gokT := tb.Closest(dest, from, now, tr)
		if okT != gokT || wantT != gotT {
			t.Fatalf("trial %d: table parity broke: nil trust (%+v, %v) vs neutral trust (%+v, %v)",
				trial, wantT, okT, gotT, gokT)
		}
		wantA, okA := ant.ChooseNextHop(dest, from, now, PolicyWeighted, nil, nil)
		gotA, gokA := ant.ChooseNextHop(dest, from, now, PolicyWeighted, nil, tr)
		if okA != gokA || wantA != gotA {
			t.Fatalf("trial %d: ANT parity broke: nil trust (%+v, %v) vs neutral trust (%+v, %v)",
				trial, wantA, okA, gotA, gokA)
		}
		if tr.Fallbacks != 0 || tr.Quarantines != 0 {
			t.Fatalf("trial %d: neutral selection recorded defense events", trial)
		}
	}
}
