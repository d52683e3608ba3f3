package neighbor

import (
	"math/rand"
	"testing"
	"testing/quick"

	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/sim"
)

// randomANT builds an ANT with n random live entries drawn from rng.
func randomANT(rng *rand.Rand, n int, maxSpeed float64) (*ANT, sim.Time) {
	a := NewANT(10*sim.Second, maxSpeed)
	now := sim.Time(20 * sim.Second)
	for i := 0; i < n; i++ {
		p := anoncrypto.NewPseudonym(rng, "x")
		loc := geo.Pt(rng.Float64()*1500, rng.Float64()*300)
		age := sim.Time(rng.Int63n(int64(10 * sim.Second)))
		a.Update(p, loc, now-age)
	}
	return a, now
}

// Property: whatever the policy, a chosen next hop is strictly closer to
// the destination than the forwarding node.
func TestChooseNextHopAlwaysImproves(t *testing.T) {
	prop := func(seed int64, n uint8, policyRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a, now := randomANT(rng, int(n%32), 20)
		from := geo.Pt(rng.Float64()*1500, rng.Float64()*300)
		dest := geo.Pt(rng.Float64()*1500, rng.Float64()*300)
		policy := Policy(policyRaw%3) + PolicyClosest
		e, ok := a.ChooseNextHop(dest, from, now, policy, nil, nil)
		if !ok {
			return true
		}
		return e.Loc.Dist(dest) < from.Dist(dest)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: excluded pseudonyms are never chosen.
func TestChooseNextHopHonorsExclusion(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a, now := randomANT(rng, int(n%16)+2, 20)
		from := geo.Pt(0, 150)
		dest := geo.Pt(1500, 150)
		// Exclude whatever would win, repeatedly; each winner must be new.
		exclude := map[anoncrypto.Pseudonym]bool{}
		for i := 0; i < 20; i++ {
			e, ok := a.ChooseNextHop(dest, from, now, PolicyClosest, exclude, nil)
			if !ok {
				return true
			}
			if exclude[e.N] {
				return false
			}
			exclude[e.N] = true
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with the reach filter armed, every chosen hop satisfies the
// conservative reachability bound.
func TestChooseNextHopReachFilterBound(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a, now := randomANT(rng, int(n%32), 20)
		a.SetReachRange(250)
		from := geo.Pt(rng.Float64()*1500, rng.Float64()*300)
		dest := geo.Pt(rng.Float64()*1500, rng.Float64()*300)
		e, ok := a.ChooseNextHop(dest, from, now, PolicyWeighted, nil, nil)
		if !ok {
			return true
		}
		return from.Dist(e.Loc)+20*e.Age(now).Seconds() <= 250+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: selection is deterministic — same table state, same answer.
func TestChooseNextHopDeterministic(t *testing.T) {
	prop := func(seed int64, n uint8, policyRaw uint8) bool {
		build := func() (ANTEntry, bool) {
			rng := rand.New(rand.NewSource(seed))
			a, now := randomANT(rng, int(n%24), 20)
			return a.ChooseNextHop(geo.Pt(1500, 150), geo.Pt(0, 150), now, Policy(policyRaw%3)+PolicyClosest, nil, nil)
		}
		e1, ok1 := build()
		e2, ok2 := build()
		return ok1 == ok2 && e1.N == e2.N
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the plain table's Closest never returns a stale or
// non-improving entry.
func TestTableClosestProperty(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := NewTable(5 * sim.Second)
		now := sim.Time(10 * sim.Second)
		for i := 0; i < int(n%24); i++ {
			id := anoncrypto.Identity(string(rune('a' + i)))
			loc := geo.Pt(rng.Float64()*1500, rng.Float64()*300)
			age := sim.Time(rng.Int63n(int64(8 * sim.Second)))
			tb.Update(id, [6]byte{byte(i)}, loc, now-age)
		}
		from := geo.Pt(rng.Float64()*1500, rng.Float64()*300)
		dest := geo.Pt(rng.Float64()*1500, rng.Float64()*300)
		e, ok := tb.Closest(dest, from, now, nil)
		if !ok {
			return true
		}
		return e.Loc.Dist(dest) < from.Dist(dest) && now-e.Seen <= 5*sim.Second
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: pseudonym memory always owns its current pseudonym and never
// owns more than depth values.
func TestPseudonymMemoryProperty(t *testing.T) {
	prop := func(seed int64, rotations uint8, depthRaw uint8) bool {
		depth := int(depthRaw%10) + 2
		m := NewPseudonymMemory("n", rand.New(rand.NewSource(seed)), depth)
		var history []anoncrypto.Pseudonym
		history = append(history, m.Current())
		for i := 0; i < int(rotations%40); i++ {
			history = append(history, m.Rotate())
		}
		if !m.Owns(m.Current()) {
			return false
		}
		owned := 0
		for _, p := range history {
			if m.Owns(p) {
				owned++
			}
		}
		want := len(history)
		if want > depth {
			want = depth
		}
		return owned == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
