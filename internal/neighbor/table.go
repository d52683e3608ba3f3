// Package neighbor implements the neighbor state geographic routing
// builds from hello beacons, in the three flavors the paper discusses:
//
//   - Table: the classic GPSR neighbor table keyed by real identity,
//     built from cleartext (identity, location) beacons.
//   - ANT: the anonymous neighbor table of §3.1.1, keyed by one-shot
//     pseudonyms. One physical neighbor legitimately appears as several
//     entries; the selection policies implement the paper's
//     freshness-aware forwarding refinement.
//   - Authenticated ANT (§3.1.2): hello messages carry ring signatures so
//     a receiver can check the sender is *some* authorized node without
//     learning which, achieving (k+1)-anonymity.
package neighbor

import (
	"sort"

	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/mac"
	"anongeo/internal/sim"
)

// Entry is one row of a plain GPSR neighbor table: the identity,
// link-layer address, and last reported position of a neighbor.
type Entry struct {
	ID   anoncrypto.Identity
	MAC  mac.Addr
	Loc  geo.Point
	Seen sim.Time
}

// logKeyCap bounds the link-layer addresses the dense structures index
// by; addresses at or beyond it (including Broadcast) take the
// identity-keyed overflow path.
const logKeyCap = 1 << 20

// logKey maps an address to its dense index, false when the address is
// outside the indexable range. AddrFromUint64 of a node number — the
// convention throughout this repo — always lands inside it.
func logKey(a mac.Addr) (uint32, bool) {
	v := a.Uint64()
	return uint32(v), v < logKeyCap && !a.IsBroadcast()
}

// beaconRec is one published beacon: when it was delivered and the
// position it advertised.
type beaconRec struct {
	at  sim.Time
	loc geo.Point
}

// senderLog is the recent beacon history of one sender (one address).
type senderLog struct {
	id  anoncrypto.Identity
	mac mac.Addr
	// recs[head:] are the retained beacons in increasing delivery-time
	// order; [:head] awaits compaction (the ANT ring trick).
	recs []beaconRec
	head int
}

// BeaconLog is the content half of the GPSR neighbor state, shared by
// every Table attached to it.
//
// The observation: a broadcast beacon delivers the same ⟨identity,
// address, location⟩ to every receiver at the same instant, so storing
// a full copy per receiver — the classic per-node neighbor table — is
// N-fold redundant. The log keeps one copy of each sender's recent
// beacons, published once by whichever receiver processes the delivery
// first; a Table then needs only an 8-byte last-heard timestamp per
// neighbor, and reconstructs its (possibly stale) view by looking up
// the beacon it heard by timestamp. At large N this collapses the
// aggregate neighbor state from O(N²) entries to O(N²) timestamps plus
// O(N) shared content — the difference between thrashing DRAM and
// staying cache-resident on every beacon refresh.
//
// A nil-log Table creates a private one, so single-table uses (tests)
// need no ceremony. Sharing is safe because beacon content is a pure
// function of (address, delivery time): one sender cannot have two
// transmissions land at the same instant (its radio is half duplex),
// and address→identity is stable for a run. The pathological cases —
// address reuse by different identities, un-indexable addresses — fall
// back to a per-table overflow map with the old semantics.
type BeaconLog struct {
	slots []senderLog
	byID  map[anoncrypto.Identity]uint32
	// maxTTL is the largest TTL among attached tables; retention must
	// cover it so any live last-heard timestamp still resolves.
	maxTTL sim.Time
	// lastV/lastAddr/lastAt memoize the most recent successful publish.
	// A beacon reaches hundreds of receivers at one instant and each
	// one calls Update; after the first, (sender address, delivery
	// time) alone proves the beacon is already recorded — one sender
	// cannot land two deliveries at the same instant — so the
	// re-publishes skip the address decode and slot walk entirely.
	// lastAt is offset by one so the zero value matches nothing
	// (beacons at t=0 are legal).
	lastV    uint32
	lastAddr mac.Addr
	lastAt   sim.Time
}

// NewBeaconLog creates an empty shared beacon log.
func NewBeaconLog() *BeaconLog {
	return &BeaconLog{byID: make(map[anoncrypto.Identity]uint32)}
}

// attach registers a reader's TTL, growing the retention window.
func (l *BeaconLog) attach(ttl sim.Time) {
	if ttl > l.maxTTL {
		l.maxTTL = ttl
	}
}

// publish records a delivered beacon. It reports false when the address
// is already registered to a different identity — the caller must then
// keep the beacon in private overflow state instead.
func (l *BeaconLog) publish(v uint32, id anoncrypto.Identity, addr mac.Addr, loc geo.Point, now sim.Time) bool {
	if int(v) >= len(l.slots) {
		grown := make([]senderLog, v+1+16)
		copy(grown, l.slots)
		l.slots = grown
	}
	s := &l.slots[v]
	if s.id == "" {
		if _, taken := l.byID[id]; taken {
			return false // identity switched addresses; keep old semantics
		}
		s.id, s.mac = id, addr
		l.byID[id] = v
	} else if s.id != id {
		return false
	}
	if n := len(s.recs); n > s.head && s.recs[n-1].at == now {
		l.lastV, l.lastAddr, l.lastAt = v, addr, now+1
		return true // another receiver of this delivery already published
	}
	s.recs = append(s.recs, beaconRec{at: now, loc: loc})
	// Retention: drop beacons no reader could still hold live. A reader
	// at time t >= now sees an entry heard at h live only while
	// t-h <= ttl, so anything older than now-maxTTL is dead weight.
	for s.head < len(s.recs) && now-s.recs[s.head].at > l.maxTTL {
		s.head++
	}
	if s.head >= 16 && s.head*2 >= len(s.recs) {
		n := copy(s.recs, s.recs[s.head:])
		s.recs = s.recs[:n]
		s.head = 0
	}
	l.lastV, l.lastAddr, l.lastAt = v, addr, now+1
	return true
}

// locAt resolves the position advertised by the sender at slot v in the
// beacon delivered at exactly heard.
func (l *BeaconLog) locAt(v uint32, heard sim.Time) (geo.Point, bool) {
	s := &l.slots[v]
	// Newest-first: a live reader usually heard the latest beacon or
	// missed at most a couple.
	for k := len(s.recs) - 1; k >= s.head; k-- {
		if s.recs[k].at == heard {
			return s.recs[k].loc, true
		}
		if s.recs[k].at < heard {
			break
		}
	}
	return geo.Point{}, false
}

// Table is the identity-keyed neighbor table the GPSR baseline uses.
// It is exactly the structure whose beacons leak (identity, location)
// pairs to every listener — the privacy problem the paper attacks.
//
// Per-receiver state is a flat last-heard timestamp array indexed by
// the sender's link-layer address; beacon content lives in the (usually
// shared) BeaconLog. See BeaconLog for why.
type Table struct {
	ttl sim.Time
	log *BeaconLog
	// lastHeard[v] encodes when this receiver last heard address v,
	// offset by one so the zero value means "never" (beacons at t=0 are
	// legal): 0 never, negative evicted (Remove), otherwise heard at
	// lastHeard[v]-1.
	lastHeard []sim.Time
	// over holds entries whose address could not index the log (address
	// collision or un-indexable address) under the original map
	// semantics. Empty in ordinary runs.
	over map[anoncrypto.Identity]Entry
}

// NewTable creates a table whose entries expire ttl after their beacon,
// with a private beacon log.
func NewTable(ttl sim.Time) *Table {
	return NewSharedTable(ttl, NewBeaconLog())
}

// NewSharedTable creates a table whose beacon content lives in the
// given shared log. All tables of one simulation should share one log.
func NewSharedTable(ttl sim.Time, log *BeaconLog) *Table {
	log.attach(ttl)
	return &Table{ttl: ttl, log: log}
}

// Update inserts or refreshes a neighbor from a received beacon. Calls
// must carry nondecreasing timestamps (simulated time is monotone, so
// any in-order caller does).
func (t *Table) Update(id anoncrypto.Identity, addr mac.Addr, loc geo.Point, now sim.Time) {
	// Delivery fast path: if the log just recorded this very delivery
	// (same sender address at this instant — see the memo fields), the
	// beacon content is already published and consistent, so this
	// receiver only needs to stamp its own last-heard slot. Kept small
	// enough to inline into the per-receiver beacon handlers.
	l := t.log
	if l.lastAt == now+1 && l.lastAddr == addr && int(l.lastV) < len(t.lastHeard) {
		t.lastHeard[l.lastV] = now + 1
		return
	}
	t.updateSlow(id, addr, loc, now)
}

// updateSlow is Update without the delivery memo: the first receiver
// of each beacon, plus growth and overflow cases.
func (t *Table) updateSlow(id anoncrypto.Identity, addr mac.Addr, loc geo.Point, now sim.Time) {
	v, ok := logKey(addr)
	if !ok || !t.log.publish(v, id, addr, loc, now) {
		if t.over == nil {
			t.over = make(map[anoncrypto.Identity]Entry)
		}
		t.over[id] = Entry{ID: id, MAC: addr, Loc: loc, Seen: now}
		return
	}
	if int(v) >= len(t.lastHeard) {
		grown := make([]sim.Time, v+1+16)
		copy(grown, t.lastHeard)
		t.lastHeard = grown
	}
	t.lastHeard[v] = now + 1
}

// live reports whether an encoded last-heard timestamp is a live entry
// at now.
func (t *Table) live(lh, now sim.Time) bool {
	return lh > 0 && now-(lh-1) <= t.ttl
}

// entryAt materializes the Entry for address slot v heard at the
// (decoded) time heard.
func (t *Table) entryAt(v uint32, heard sim.Time) (Entry, bool) {
	loc, ok := t.log.locAt(v, heard)
	if !ok {
		return Entry{}, false
	}
	s := &t.log.slots[v]
	return Entry{ID: s.id, MAC: s.mac, Loc: loc, Seen: heard}, true
}

// Get returns the live entry for id, if any.
func (t *Table) Get(id anoncrypto.Identity, now sim.Time) (Entry, bool) {
	if v, ok := t.log.byID[id]; ok && int(v) < len(t.lastHeard) {
		if lh := t.lastHeard[v]; t.live(lh, now) {
			return t.entryAt(v, lh-1)
		}
	}
	if e, ok := t.over[id]; ok && now-e.Seen <= t.ttl {
		return e, true
	}
	return Entry{}, false
}

// Len reports the number of live entries.
func (t *Table) Len(now sim.Time) int {
	n := 0
	for _, lh := range t.lastHeard {
		if t.live(lh, now) {
			n++
		}
	}
	for _, e := range t.over {
		if now-e.Seen <= t.ttl {
			n++
		}
	}
	return n
}

// Remove evicts a neighbor immediately — GPSR's reaction to MAC-level
// send failure (the neighbor moved away or died).
func (t *Table) Remove(id anoncrypto.Identity) {
	if v, ok := t.log.byID[id]; ok && int(v) < len(t.lastHeard) {
		t.lastHeard[v] = -1
	}
	delete(t.over, id)
}

// Expire drops stale entries; call it opportunistically. Staleness is
// implicit in the last-heard timestamps, so there is nothing to sweep —
// the method survives for API compatibility and overflow hygiene.
func (t *Table) Expire(now sim.Time) {
	for id, e := range t.over {
		if now-e.Seen > t.ttl {
			delete(t.over, id)
		}
	}
}

// Closest returns the live neighbor strictly closer to dest than from,
// the greedy-forwarding criterion. ok is false at a local maximum.
//
// A nil tr is neutral trust: the nearest candidate to dest wins, with
// distances compared squared — an exact, hypot-free ordering of the
// true distances. With a trust table, quarantined neighbors are skipped
// outright, and the winner maximizes trust-weighted progress
// score×(myD−d). Candidates scoring below the shun threshold lose to
// any candidate at or above it and are used only as a last resort (a
// suspect relay still beats a guaranteed dead-end drop). Tie-breaks are
// total — weighted progress, then distance, then identity — so results
// never depend on table storage order.
func (t *Table) Closest(dest, from geo.Point, now sim.Time, tr *Trust) (Entry, bool) {
	// The two distance scales are kept apart on purpose: trust weighs
	// true distances, while the neutral path orders squared ones, and
	// the two can round differently at a tie.
	myD2 := from.Dist2(dest)
	var myD float64
	if tr != nil {
		myD = from.Dist(dest)
	}
	type cand struct {
		e Entry
		w float64 // trust-weighted progress; 0 under neutral trust
		d float64 // distance to dest, squared under neutral trust
	}
	// fallback is the best shunned candidate, used only when every
	// candidate is shunned.
	var best, fallback cand
	found, foundFallback := false, false
	better := func(a, b cand) bool {
		if a.w != b.w {
			return a.w > b.w
		}
		if a.d != b.d {
			return a.d < b.d
		}
		return a.e.ID < b.e.ID
	}
	consider := func(e Entry) {
		c := cand{e: e}
		if tr == nil {
			c.d = e.Loc.Dist2(dest)
			if c.d >= myD2 {
				return
			}
		} else {
			c.d = e.Loc.Dist(dest)
			if c.d >= myD {
				return
			}
			key := string(e.ID)
			if tr.Quarantined(key, now) {
				return
			}
			c.w = tr.Weight(key) * (myD - c.d)
			if tr.Shunned(key) {
				if !foundFallback || better(c, fallback) {
					fallback, foundFallback = c, true
				}
				return
			}
		}
		if !found || better(c, best) {
			best, found = c, true
		}
	}
	for v, lh := range t.lastHeard {
		if !t.live(lh, now) {
			continue
		}
		if e, ok := t.entryAt(uint32(v), lh-1); ok {
			consider(e)
		}
	}
	for _, e := range t.over {
		if now-e.Seen <= t.ttl {
			consider(e)
		}
	}
	if found {
		return best.e, true
	}
	if foundFallback {
		tr.Fallbacks++
		return fallback.e, true
	}
	return Entry{}, false
}

// Entries snapshots the live entries (copied; callers may mutate
// freely), in deterministic order: address-indexed entries ascending,
// then overflow entries by identity.
func (t *Table) Entries(now sim.Time) []Entry {
	var out []Entry
	for v, lh := range t.lastHeard {
		if !t.live(lh, now) {
			continue
		}
		if e, ok := t.entryAt(uint32(v), lh-1); ok {
			out = append(out, e)
		}
	}
	if len(t.over) > 0 {
		var extra []Entry
		for _, e := range t.over {
			if now-e.Seen <= t.ttl {
				extra = append(extra, e)
			}
		}
		sort.Slice(extra, func(i, j int) bool { return extra[i].ID < extra[j].ID })
		out = append(out, extra...)
	}
	return out
}
