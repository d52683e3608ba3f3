package neighbor

import (
	"math/rand"

	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/sim"
)

// ANTEntry is one row of the anonymous neighbor table: a pseudonym, the
// position it advertised, and when. Because every hello carries a fresh
// pseudonym, the same physical neighbor occupies multiple rows until the
// old ones time out — by design, so a listener cannot correlate them.
type ANTEntry struct {
	N    anoncrypto.Pseudonym
	Loc  geo.Point
	Seen sim.Time
}

// Age reports how stale the entry is at now.
func (e ANTEntry) Age(now sim.Time) sim.Time { return now - e.Seen }

// Policy selects among candidate next hops in ChooseNextHop.
type Policy int

// Next-hop selection policies (§3.1.1's forwarding refinement).
const (
	// PolicyClosest picks the entry geographically closest to the
	// destination, ignoring freshness — the naive strategy the paper
	// notes can chase stale pseudonyms.
	PolicyClosest Policy = iota + 1
	// PolicyFreshest picks the most recently heard improving entry,
	// breaking ties toward the destination.
	PolicyFreshest
	// PolicyWeighted discounts each entry's progress by how far the
	// neighbor may have strayed since its beacon (age × max speed),
	// blending the other two policies.
	PolicyWeighted
)

// ANT is the anonymous neighbor table of §3.1.1.
//
// Storage is a ring of entries in arrival order, not a map: pseudonyms
// are one-shot (every hello carries a fresh one), so the table is
// insert-only with no per-pseudonym lookups, and simulated time is
// monotone, so entries are appended in nondecreasing Seen order and the
// stale ones always form a prefix. Update is then a plain append,
// Expire advances a head index, and every scan walks contiguous memory
// — on the large-N hot path this removes a hash-map insert per received
// hello and a full map iteration per expiry sweep. Selection results
// are unaffected: every policy's tie-break order is total (ending at
// the pseudonym bytes), so storage order never leaks.
type ANT struct {
	ttl sim.Time
	// maxSpeed (m/s) parameterizes PolicyWeighted's staleness discount
	// and the reachability filter.
	maxSpeed float64
	// reach, when positive, filters next-hop candidates to those still
	// guaranteed within radio range under worst-case drift: an entry
	// advertised at distance d and age a is only considered when
	// d + maxSpeed·a <= reach. Without it, greedy prefers edge-of-range
	// relays whose stale positions silently fall out of range — the
	// freshness problem §3.1.1 warns about, at its most damaging.
	reach float64
	// entries[head:] is the window of possibly-live entries, in
	// nondecreasing Seen order; [:head] is expired garbage awaiting
	// compaction.
	entries []ANTEntry
	head    int
}

// NewANT creates an ANT whose entries expire ttl after their hello.
// maxSpeed is the assumed bound on neighbor movement for PolicyWeighted.
func NewANT(ttl sim.Time, maxSpeed float64) *ANT {
	return &ANT{ttl: ttl, maxSpeed: maxSpeed}
}

// SetReachRange enables the conservative reachability filter against the
// given radio range (0 disables it).
func (a *ANT) SetReachRange(r float64) { a.reach = r }

// Update records a hello ⟨n, loc, ts⟩. Calls must carry nondecreasing
// timestamps (simulated time is monotone, so any in-order caller does).
func (a *ANT) Update(n anoncrypto.Pseudonym, loc geo.Point, now sim.Time) {
	a.entries = append(a.entries, ANTEntry{N: n, Loc: loc, Seen: now})
}

// Len reports the number of live entries (not physical neighbors: the
// same neighbor may hold several).
func (a *ANT) Len(now sim.Time) int {
	n := 0
	for i := a.head; i < len(a.entries); i++ {
		if now-a.entries[i].Seen <= a.ttl {
			n++
		}
	}
	return n
}

// Expire drops stale entries. Entries are in nondecreasing Seen order,
// so the stale ones are a prefix: expiry advances the head index and
// compacts the backing array once the dead prefix dominates it.
func (a *ANT) Expire(now sim.Time) {
	for a.head < len(a.entries) && now-a.entries[a.head].Seen > a.ttl {
		a.head++
	}
	if a.head >= 64 && a.head*2 >= len(a.entries) {
		n := copy(a.entries, a.entries[a.head:])
		a.entries = a.entries[:n]
		a.head = 0
	}
}

// Entries snapshots the live entries.
func (a *ANT) Entries(now sim.Time) []ANTEntry {
	out := make([]ANTEntry, 0, len(a.entries)-a.head)
	for i := a.head; i < len(a.entries); i++ {
		if e := a.entries[i]; now-e.Seen <= a.ttl {
			out = append(out, e)
		}
	}
	return out
}

// ChooseNextHop returns the pseudonym to relay through for a packet bound
// to dest, from a node at from, skipping the pseudonyms in exclude — the
// retransmission path routes around a relay that failed to acknowledge,
// the ANT analog of GPSR's MAC-feedback neighbor eviction. ok is false
// when no live entry improves on from (greedy local maximum).
//
// policy ranks the candidates; a nil tr is neutral trust. Under every
// policy a trust table skips quarantined pseudonyms and uses candidates
// below the shun threshold only when nothing clears the bar. The trust
// score also weights each candidate's staleness-discounted progress, so
// under PolicyWeighted relays that failed to produce forwarding
// evidence lose selection to honest ones; PolicyClosest and
// PolicyFreshest rank by distance and age alone. Because pseudonyms
// rotate every hello, a score or quarantine lives at most one neighbor
// TTL — the anonymity/attribution tension the paper's threat model
// accepts; within that window the ARQ interacts with a relay several
// times, which is enough to isolate it.
//
// Selection is fully deterministic: every policy falls through a total
// tie-break order ending at the pseudonym bytes, so simulation runs do
// not depend on map iteration order.
func (a *ANT) ChooseNextHop(dest, from geo.Point, now sim.Time, policy Policy, exclude map[anoncrypto.Pseudonym]bool, tr *Trust) (ANTEntry, bool) {
	myD := from.Dist(dest)
	type cand struct {
		e     ANTEntry
		d     float64
		score float64 // progress minus staleness, trust-weighted
	}
	// fallback is the best shunned candidate, used only when every
	// candidate is shunned.
	var best, fallback cand
	found, foundFallback := false, false
	better := func(x, y cand) bool {
		switch policy {
		case PolicyFreshest:
			if x.e.Seen != y.e.Seen {
				return x.e.Seen > y.e.Seen
			}
			if x.d != y.d {
				return x.d < y.d
			}
		case PolicyWeighted:
			if x.score != y.score {
				return x.score > y.score
			}
			if x.d != y.d {
				return x.d < y.d
			}
			if x.e.Seen != y.e.Seen {
				return x.e.Seen > y.e.Seen
			}
		default: // PolicyClosest
			if x.d != y.d {
				return x.d < y.d
			}
			if x.e.Seen != y.e.Seen {
				return x.e.Seen > y.e.Seen
			}
		}
		return string(x.e.N[:]) < string(y.e.N[:])
	}
	for i := a.head; i < len(a.entries); i++ {
		e := a.entries[i]
		if now-e.Seen > a.ttl {
			continue
		}
		if exclude[e.N] {
			continue
		}
		if a.reach > 0 && from.Dist(e.Loc)+a.maxSpeed*e.Age(now).Seconds() > a.reach {
			continue // may have drifted out of range since its hello
		}
		d := e.Loc.Dist(dest)
		if d >= myD {
			continue // not an improvement; greedy never goes backward
		}
		c := cand{e: e, d: d, score: (myD - d) - a.maxSpeed*e.Age(now).Seconds()}
		if tr != nil {
			key := string(e.N[:])
			if tr.Quarantined(key, now) {
				continue
			}
			if c.score > 0 {
				// Trust scales genuine progress; a non-progressing stale
				// entry gains nothing from a good reputation.
				c.score *= tr.Weight(key)
			}
			if tr.Shunned(key) {
				if !foundFallback || better(c, fallback) {
					fallback, foundFallback = c, true
				}
				continue
			}
		}
		if !found || better(c, best) {
			best, found = c, true
		}
	}
	if found {
		return best.e, true
	}
	if foundFallback {
		tr.Fallbacks++
		return fallback.e, true
	}
	return ANTEntry{}, false
}

// PseudonymMemory is the sender-side half of §3.1.1: a node must accept
// packets addressed to its recent hello pseudonyms, because neighbors may
// still route by an older one. The paper suggests remembering "but two
// latest ones", which suffices when the neighbor timeout spans at most
// two beacon periods; with the GPSR-style 3-beacon timeout (and ±50%
// jitter) used in the evaluation, more pseudonyms can be live in
// neighbors' tables, so the depth is configurable.
type PseudonymMemory struct {
	id     anoncrypto.Identity
	rng    *rand.Rand
	recent []anoncrypto.Pseudonym // most recent last
	depth  int
}

// NewPseudonymMemory seeds the memory with a first pseudonym and keeps
// the depth most recent ones (minimum 2, the paper's setting).
func NewPseudonymMemory(id anoncrypto.Identity, rng *rand.Rand, depth int) *PseudonymMemory {
	if depth < 2 {
		depth = 2
	}
	m := &PseudonymMemory{id: id, rng: rng, depth: depth}
	m.recent = append(m.recent, anoncrypto.NewPseudonym(rng, id))
	return m
}

// Rotate generates a fresh pseudonym for the next hello and returns it.
func (m *PseudonymMemory) Rotate() anoncrypto.Pseudonym {
	n := anoncrypto.NewPseudonym(m.rng, m.id)
	m.recent = append(m.recent, n)
	if len(m.recent) > m.depth {
		m.recent = m.recent[len(m.recent)-m.depth:]
	}
	return n
}

// Current returns the pseudonym advertised by the latest hello.
func (m *PseudonymMemory) Current() anoncrypto.Pseudonym {
	return m.recent[len(m.recent)-1]
}

// Owns reports whether n is one of the node's remembered pseudonyms.
func (m *PseudonymMemory) Owns(n anoncrypto.Pseudonym) bool {
	if n.IsLastHop() {
		return false
	}
	for _, p := range m.recent {
		if p == n {
			return true
		}
	}
	return false
}
