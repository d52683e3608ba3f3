package neighbor

import (
	"math/rand"
	"testing"

	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/mac"
	"anongeo/internal/sim"
)

const ttl = 5 * sim.Second

func TestTableUpdateGetExpire(t *testing.T) {
	tb := NewTable(ttl)
	tb.Update("a", mac.AddrFromUint64(1), geo.Pt(10, 10), 0)
	if e, ok := tb.Get("a", sim.Second); !ok || e.Loc != geo.Pt(10, 10) {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if _, ok := tb.Get("a", 6*sim.Second); ok {
		t.Fatal("stale entry returned")
	}
	if _, ok := tb.Get("missing", 0); ok {
		t.Fatal("phantom entry")
	}
	tb.Expire(10 * sim.Second)
	if n := tb.Len(10 * sim.Second); n != 0 {
		t.Fatalf("%d live entries after expiry", n)
	}
}

func TestTableRefreshExtendsLifetime(t *testing.T) {
	tb := NewTable(ttl)
	tb.Update("a", mac.AddrFromUint64(1), geo.Pt(1, 1), 0)
	tb.Update("a", mac.AddrFromUint64(1), geo.Pt(2, 2), 4*sim.Second)
	if e, ok := tb.Get("a", 8*sim.Second); !ok || e.Loc != geo.Pt(2, 2) {
		t.Fatalf("refreshed entry = %+v, %v", e, ok)
	}
}

func TestTableClosestGreedy(t *testing.T) {
	tb := NewTable(ttl)
	me := geo.Pt(0, 0)
	dest := geo.Pt(1000, 0)
	tb.Update("near", mac.AddrFromUint64(1), geo.Pt(100, 0), 0)
	tb.Update("far", mac.AddrFromUint64(2), geo.Pt(200, 0), 0)
	tb.Update("back", mac.AddrFromUint64(3), geo.Pt(-100, 0), 0)
	e, ok := tb.Closest(dest, me, 0, nil)
	if !ok || e.ID != "far" {
		t.Fatalf("Closest = %+v, %v; want far", e, ok)
	}
}

func TestTableClosestLocalMaximum(t *testing.T) {
	tb := NewTable(ttl)
	me := geo.Pt(500, 0)
	dest := geo.Pt(1000, 0)
	tb.Update("behind", mac.AddrFromUint64(1), geo.Pt(100, 0), 0)
	if _, ok := tb.Closest(dest, me, 0, nil); ok {
		t.Fatal("greedy advanced backward")
	}
}

func TestTableClosestIgnoresStale(t *testing.T) {
	tb := NewTable(ttl)
	tb.Update("old", mac.AddrFromUint64(1), geo.Pt(900, 0), 0)
	tb.Update("new", mac.AddrFromUint64(2), geo.Pt(600, 0), 9*sim.Second)
	e, ok := tb.Closest(geo.Pt(1000, 0), geo.Pt(0, 0), 10*sim.Second, nil)
	if !ok || e.ID != "new" {
		t.Fatalf("stale entry won: %+v %v", e, ok)
	}
}

func TestTableLenAndEntries(t *testing.T) {
	tb := NewTable(ttl)
	tb.Update("a", mac.AddrFromUint64(1), geo.Pt(1, 1), 0)
	tb.Update("b", mac.AddrFromUint64(2), geo.Pt(2, 2), 4*sim.Second)
	if tb.Len(6*sim.Second) != 1 {
		t.Fatalf("Len = %d, want 1 (a expired)", tb.Len(6*sim.Second))
	}
	if es := tb.Entries(6 * sim.Second); len(es) != 1 || es[0].ID != "b" {
		t.Fatalf("Entries = %+v", es)
	}
}

func newPseudo(seed int64) anoncrypto.Pseudonym {
	return anoncrypto.NewPseudonym(rand.New(rand.NewSource(seed)), "x")
}

func TestANTMultipleEntriesPerNeighbor(t *testing.T) {
	a := NewANT(ttl, 20)
	// Same physical neighbor, two hellos with different pseudonyms: the
	// table must keep both (unlinkability).
	a.Update(newPseudo(1), geo.Pt(100, 0), 0)
	a.Update(newPseudo(2), geo.Pt(110, 0), sim.Second)
	if a.Len(2*sim.Second) != 2 {
		t.Fatalf("Len = %d, want 2 (multi-entry)", a.Len(2*sim.Second))
	}
}

func TestANTChooseNextHopClosest(t *testing.T) {
	a := NewANT(ttl, 20)
	n1, n2 := newPseudo(1), newPseudo(2)
	a.Update(n1, geo.Pt(100, 0), 0)
	a.Update(n2, geo.Pt(200, 0), 0)
	e, ok := a.ChooseNextHop(geo.Pt(1000, 0), geo.Pt(0, 0), 0, PolicyClosest, nil, nil)
	if !ok || e.N != n2 {
		t.Fatalf("ChooseNextHop = %+v %v, want n2", e, ok)
	}
}

func TestANTChooseNextHopFreshest(t *testing.T) {
	a := NewANT(ttl, 20)
	stale, fresh := newPseudo(1), newPseudo(2)
	// Stale entry is geographically better, fresh one is newer.
	a.Update(stale, geo.Pt(240, 0), 0)
	a.Update(fresh, geo.Pt(150, 0), 4*sim.Second)
	now := sim.Time(4 * sim.Second)
	if e, _ := a.ChooseNextHop(geo.Pt(1000, 0), geo.Pt(0, 0), now, PolicyClosest, nil, nil); e.N != stale {
		t.Fatalf("PolicyClosest picked %v, want the stale-but-closer entry", e.N)
	}
	if e, _ := a.ChooseNextHop(geo.Pt(1000, 0), geo.Pt(0, 0), now, PolicyFreshest, nil, nil); e.N != fresh {
		t.Fatalf("PolicyFreshest picked %v, want the fresher entry", e.N)
	}
}

func TestANTChooseNextHopWeighted(t *testing.T) {
	a := NewANT(ttl, 20)
	stale, fresh := newPseudo(1), newPseudo(2)
	// Stale entry: 240 m progress but 4 s old → 80 m discount → 160.
	// Fresh entry: 150 m progress, 0 s old → 150. Stale still wins.
	a.Update(stale, geo.Pt(240, 0), 0)
	a.Update(fresh, geo.Pt(150, 0), 4*sim.Second)
	now := sim.Time(4 * sim.Second)
	if e, _ := a.ChooseNextHop(geo.Pt(1000, 0), geo.Pt(0, 0), now, PolicyWeighted, nil, nil); e.N != stale {
		t.Fatalf("PolicyWeighted picked %v, want stale (160 > 150)", e.N)
	}
	// Make the stale entry much older: 10 s → 200 m discount → 40 < 150.
	a2 := NewANT(ttl*10, 20)
	a2.Update(stale, geo.Pt(240, 0), 0)
	a2.Update(fresh, geo.Pt(150, 0), 10*sim.Second)
	if e, _ := a2.ChooseNextHop(geo.Pt(1000, 0), geo.Pt(0, 0), 10*sim.Second, PolicyWeighted, nil, nil); e.N != fresh {
		t.Fatalf("PolicyWeighted picked %v, want fresh (150 > 40)", e.N)
	}
}

func TestANTNoImprovingNeighbor(t *testing.T) {
	a := NewANT(ttl, 20)
	a.Update(newPseudo(1), geo.Pt(-50, 0), 0)
	if _, ok := a.ChooseNextHop(geo.Pt(1000, 0), geo.Pt(0, 0), 0, PolicyClosest, nil, nil); ok {
		t.Fatal("chose a non-improving neighbor")
	}
}

func TestANTExpireAndEntries(t *testing.T) {
	a := NewANT(ttl, 20)
	a.Update(newPseudo(1), geo.Pt(1, 0), 0)
	a.Update(newPseudo(2), geo.Pt(2, 0), 4*sim.Second)
	a.Expire(7 * sim.Second)
	if live := len(a.entries) - a.head; live != 1 {
		t.Fatalf("live entries after expire = %d", live)
	}
	if es := a.Entries(7 * sim.Second); len(es) != 1 {
		t.Fatalf("Entries = %d", len(es))
	}
}

func TestPseudonymMemoryTwoLatest(t *testing.T) {
	m := NewPseudonymMemory("node", rand.New(rand.NewSource(3)), 2)
	first := m.Current()
	if !m.Owns(first) {
		t.Fatal("does not own current pseudonym")
	}
	second := m.Rotate()
	if !m.Owns(first) || !m.Owns(second) {
		t.Fatal("must own the two latest pseudonyms")
	}
	third := m.Rotate()
	if m.Owns(first) {
		t.Fatal("owns a pseudonym older than the two latest")
	}
	if !m.Owns(second) || !m.Owns(third) {
		t.Fatal("lost a recent pseudonym")
	}
	if m.Owns(anoncrypto.LastHop) {
		t.Fatal("claims the reserved zero pseudonym")
	}
}

func TestHelloEncodeDeterministic(t *testing.T) {
	h := Hello{N: newPseudo(1), Loc: geo.Pt(10, 20), TS: 5 * sim.Second}
	a, b := h.Encode(), h.Encode()
	if string(a) != string(b) {
		t.Fatal("Encode not deterministic")
	}
	if len(a) != helloBodyBytes {
		t.Fatalf("encoded size = %d, want %d", len(a), helloBodyBytes)
	}
	h2 := h
	h2.TS++
	if string(h2.Encode()) == string(a) {
		t.Fatal("different hellos encode identically")
	}
}
