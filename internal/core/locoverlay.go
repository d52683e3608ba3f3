package core

import (
	"crypto/rsa"
	"sort"
	"time"

	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/locservice"
	"anongeo/internal/sim"
)

// This file runs the location service *over* the simulated network —
// the integration the paper's evaluation skipped ("we did not
// incorporate ALS so as to focus on the major routing part") but
// predicted would "elegantly degrade a bit". Experiment A6 measures that
// prediction.
//
// Updates and queries ride the data plane as geocasts toward grid
// centers; whichever node currently serves a grid (the greedy local
// maximum toward its center) stores records and answers queries. Under
// ALS the stored records are the encrypted ⟨E_KB(A,B), E_KB(A,loc,ts)⟩
// pairs of Algorithm 3.3; under plain DLM they are cleartext
// (identity, location) pairs any server can read.

// LocationServiceMode selects how flow sources resolve destinations.
type LocationServiceMode int

// Location resolution modes.
const (
	// LSOracle is the paper's evaluation setting: a perfect out-of-band
	// location service.
	LSOracle LocationServiceMode = iota + 1
	// LSALS runs the anonymous location service of §3.3 in-band.
	LSALS
	// LSPlainDLM runs the cleartext DLM baseline in-band.
	LSPlainDLM
)

// String implements fmt.Stringer.
func (m LocationServiceMode) String() string {
	switch m {
	case LSOracle:
		return "oracle"
	case LSALS:
		return "ALS"
	case LSPlainDLM:
		return "DLM"
	default:
		return "LocationServiceMode(?)"
	}
}

// LSStats aggregates overlay-level counters across nodes.
type LSStats struct {
	Updates      int // RLU messages sent (per home cell)
	Queries      int // LREQ messages sent
	Replies      int // LREP messages sent by servers
	ServerMisses int // queries reaching a server without a fresh record
	Resolved     int // successful resolutions at requesters
	Timeouts     int // resolutions abandoned
	CacheHits    int
	Decrypts     int // trial decryptions at requesters
}

// Overlay message payloads (ride inside geocast packets).

// lsALSUpdate is the ALS RLU body. Cell names the home grid so a server
// that drifts out of it can hand the record off; Seen preserves the
// record's original freshness across handoffs (zero means "now").
type lsALSUpdate struct {
	U    *locservice.Update
	Cell geo.Cell
	Seen sim.Time
}

// lsPlainUpdate is the DLM RLU body — the cleartext exposure.
type lsPlainUpdate struct {
	ID   anoncrypto.Identity
	Loc  geo.Point
	TS   sim.Time
	Cell geo.Cell
	Seen sim.Time
}

// lsALSQuery is the ALS LREQ body.
type lsALSQuery struct {
	Q *locservice.Query
}

// lsPlainQuery is the DLM LREQ body.
type lsPlainQuery struct {
	Target   anoncrypto.Identity
	ReplyLoc geo.Point
}

// lsALSBatch is a server-handoff bundle: every live record a departing
// server holds for one cell, moved in a single geocast.
type lsALSBatch struct {
	Cell geo.Cell
	Recs []lsALSHand
}

// lsALSHand is one handed-off sealed record.
type lsALSHand struct {
	Index  locservice.Index
	Sealed locservice.SealedLocation
	Seen   sim.Time
}

// lsPlainBatch is the DLM handoff bundle.
type lsPlainBatch struct {
	Cell geo.Cell
	Recs []lsPlainHand
}

// lsPlainHand is one handed-off cleartext record.
type lsPlainHand struct {
	ID   anoncrypto.Identity
	Loc  geo.Point
	Seen sim.Time
}

// lsALSReply is the ALS LREP body, matched at the requester by index.
type lsALSReply struct {
	Index locservice.Index
	Rep   *locservice.Reply
}

// lsPlainReply is the DLM LREP body.
type lsPlainReply struct {
	Target anoncrypto.Identity
	Loc    geo.Point
	TS     sim.Time
}

// geoSender abstracts the two routers' geocast primitive.
type geoSender interface {
	SendGeocast(target geo.Point, payload any, payloadBytes int, pktID uint64)
	SetGeoHandler(func(payload any, payloadBytes int))
}

// cachedLoc is a requester-side location cache entry.
type cachedLoc struct {
	loc  geo.Point
	seen sim.Time
}

// lsResolution is one in-flight lookup.
type lsResolution struct {
	target  anoncrypto.Identity
	conts   []func(loc geo.Point, ok bool)
	timer   *sim.Event
	retried bool
}

// alsRecord is one stored ALS entry with its home cell for handoff.
type alsRecord struct {
	sealed locservice.SealedLocation
	seen   sim.Time
	cell   geo.Cell
	seq    uint64 // store-write order, see lsOverlay.seq
}

// plainRecord is one stored DLM entry with its home cell for handoff.
type plainRecord struct {
	loc  geo.Point
	seen sim.Time
	cell geo.Cell
	seq  uint64
}

// lsOverlay is one node's location-service state: every node is
// simultaneously a potential server (its grid role), an updater, and a
// requester.
type lsOverlay struct {
	net  *Network
	node *Node
	mode LocationServiceMode
	ssa  locservice.ServerSelection
	port geoSender

	alsStore   map[locservice.Index]alsRecord
	plainStore map[anoncrypto.Identity]plainRecord
	// seq stamps each store write, so a handoff batch lists its records
	// in arrival order. Store keys cannot order them: ALS indexes derive
	// from random keys.
	seq uint64

	lastUpLoc geo.Point
	lastUpAt  sim.Time

	cache   map[anoncrypto.Identity]cachedLoc
	pending map[anoncrypto.Identity]*lsResolution
	// pendingALS maps index → target for matching ALS replies.
	pendingALS map[locservice.Index]anoncrypto.Identity

	stats LSStats
}

// lsConfigDefaults returns derived overlay parameters.
func (c Config) lsUpdateInterval() time.Duration {
	if c.LSUpdateInterval > 0 {
		return c.LSUpdateInterval
	}
	return 10 * time.Second
}

func (c Config) lsRecordTTL() sim.Time {
	if c.LSRecordTTL > 0 {
		return sim.Time(c.LSRecordTTL)
	}
	return sim.Time(3 * c.lsUpdateInterval())
}

func (c Config) lsQueryTimeout() time.Duration {
	if c.LSQueryTimeout > 0 {
		return c.LSQueryTimeout
	}
	return time.Second
}

func (c Config) lsUpdateDistance() float64 {
	if c.LSUpdateDistance > 0 {
		return c.LSUpdateDistance
	}
	return 150
}

func (c Config) lsCacheTTL() sim.Time {
	if c.LSCacheTTL > 0 {
		return sim.Time(c.LSCacheTTL)
	}
	return 10 * sim.Second
}

// newLSOverlay wires the overlay onto a node's router.
func newLSOverlay(net *Network, node *Node, port geoSender) *lsOverlay {
	o := &lsOverlay{
		net:        net,
		node:       node,
		mode:       net.Cfg.LocationService,
		ssa:        net.ssa,
		port:       port,
		cache:      make(map[anoncrypto.Identity]cachedLoc),
		pending:    make(map[anoncrypto.Identity]*lsResolution),
		pendingALS: make(map[locservice.Index]anoncrypto.Identity),
	}
	o.alsStore = make(map[locservice.Index]alsRecord)
	o.plainStore = make(map[anoncrypto.Identity]plainRecord)
	port.SetGeoHandler(o.onGeocast)
	return o
}

// start schedules the location-update policy: movement-triggered (DLM
// style — update the home grids after moving LSUpdateDistance meters)
// with the update interval as a refresh backstop for stationary nodes.
// Movement triggering bounds the positional error a requester can see,
// which periodic-only updates cannot for fast nodes.
func (o *lsOverlay) start() {
	iv := o.net.Cfg.lsUpdateInterval()
	check := 2 * time.Second
	first := time.Duration(o.net.Eng.Rand().Float64() * float64(check))
	var tick func()
	tick = func() {
		now := o.net.Eng.Now()
		here := o.node.Pos(now)
		moved := here.Dist(o.lastUpLoc) > o.net.Cfg.lsUpdateDistance()
		stale := now-o.lastUpAt > sim.Time(iv)
		if o.lastUpAt == 0 || moved || stale {
			o.lastUpLoc, o.lastUpAt = here, now
			o.sendUpdates()
		}
		o.net.Eng.Schedule(check, tick)
	}
	o.net.Eng.Schedule(first, tick)
	// Server handoff: a node that drifted away from a grid it serves
	// re-geocasts the grid's records toward the center so the current
	// local-maximum node takes over (DLM's "nodes in the grid store").
	hand := 10 * time.Second
	var handoff func()
	handoff = func() {
		o.handoffStrandedRecords()
		o.net.Eng.Schedule(hand, handoff)
	}
	o.net.Eng.Schedule(hand+time.Duration(o.net.Eng.Rand().Float64()*float64(hand)), handoff)
}

// handoffStrandedRecords pushes records of grids this node has left back
// toward their cells, batched into one geocast per cell so a departing
// server does not flood its neighborhood.
func (o *lsOverlay) handoffStrandedRecords() {
	now := o.net.Eng.Now()
	here := o.node.Pos(now)
	ttl := o.net.Cfg.lsRecordTTL()
	grid := o.ssa.Grid
	stranded := func(c geo.Cell) bool {
		return grid.CellOf(here) != c && here.Dist(grid.Center(c)) > grid.Size
	}
	alsBatches := map[geo.Cell][]stamped[lsALSHand]{}
	for idx, rec := range o.alsStore {
		if now-rec.seen > ttl {
			delete(o.alsStore, idx)
			continue
		}
		if stranded(rec.cell) {
			delete(o.alsStore, idx)
			alsBatches[rec.cell] = append(alsBatches[rec.cell],
				stamped[lsALSHand]{rec.seq, lsALSHand{Index: idx, Sealed: rec.sealed, Seen: rec.seen}})
		}
	}
	inCellOrder(alsBatches, func(cell geo.Cell, recs []lsALSHand) {
		o.port.SendGeocast(grid.Center(cell),
			lsALSBatch{Cell: cell, Recs: recs},
			1+len(recs)*(64+64+8), o.net.nextCtrlID())
	})
	plainBatches := map[geo.Cell][]stamped[lsPlainHand]{}
	for id, rec := range o.plainStore {
		if now-rec.seen > ttl {
			delete(o.plainStore, id)
			continue
		}
		if stranded(rec.cell) {
			delete(o.plainStore, id)
			plainBatches[rec.cell] = append(plainBatches[rec.cell],
				stamped[lsPlainHand]{rec.seq, lsPlainHand{ID: id, Loc: rec.loc, Seen: rec.seen}})
		}
	}
	inCellOrder(plainBatches, func(cell geo.Cell, recs []lsPlainHand) {
		o.port.SendGeocast(grid.Center(cell),
			lsPlainBatch{Cell: cell, Recs: recs},
			1+len(recs)*24, o.net.nextCtrlID())
	})
}

// stamped is a handoff record with the store-write sequence number it
// is ordered by.
type stamped[H any] struct {
	seq uint64
	h   H
}

// inCellOrder calls send once per cell of batches, cells in (row, col)
// order and each cell's records in store-write order, so the geocasts
// leave in an order fixed by the run rather than by map iteration.
func inCellOrder[H any](batches map[geo.Cell][]stamped[H], send func(geo.Cell, []H)) {
	cells := make([]geo.Cell, 0, len(batches))
	for c := range batches {
		cells = append(cells, c)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Row != cells[j].Row {
			return cells[i].Row < cells[j].Row
		}
		return cells[i].Col < cells[j].Col
	})
	for _, c := range cells {
		recs := batches[c]
		sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
		hs := make([]H, len(recs))
		for i, r := range recs {
			hs[i] = r.h
		}
		send(c, hs)
	}
}

// sendUpdates pushes this node's location to its home grids: one RLU per
// home cell (DLM), or one per (anticipated requester × home cell) under
// ALS — the paper's stated overhead of anticipating one's senders.
func (o *lsOverlay) sendUpdates() {
	now := o.net.Eng.Now()
	here := o.node.AdvertisedPos(now)
	switch o.mode {
	case LSPlainDLM:
		for _, cell := range o.ssa.HomeCells(o.node.ID) {
			o.stats.Updates++
			o.port.SendGeocast(o.ssa.Grid.Center(cell),
				lsPlainUpdate{ID: o.node.ID, Loc: here, TS: now, Cell: cell},
				locservice.PlainUpdateBytes(), o.net.nextCtrlID())
		}
	case LSALS:
		anticipated := o.net.anticipatedRequesters(o.node.Index)
		if len(anticipated) == 0 {
			return
		}
		up := locservice.Updater{Self: *o.node.Keys, SSA: o.ssa, Directory: o.net.lsDirectory}
		// Charge one public-key sealing per anticipated requester
		// before the updates leave (0.5 ms each, §5.1's cost model).
		delay := time.Duration(len(anticipated)) * 500 * time.Microsecond
		o.net.Eng.Schedule(delay, func() {
			updates, err := up.BuildUpdates(anticipated, o.node.AdvertisedPos(o.net.Eng.Now()), o.net.Eng.Now())
			if err != nil {
				return
			}
			// Send in home-cell order, not map order, so the geocasts
			// leave in an order fixed by the run. A cell listed twice
			// is sent once: its slice already holds both replicas.
			for _, cell := range o.ssa.HomeCells(o.node.ID) {
				us := updates[cell]
				delete(updates, cell)
				for _, u := range us {
					o.stats.Updates++
					o.port.SendGeocast(o.ssa.Grid.Center(cell),
						lsALSUpdate{U: u, Cell: cell}, locservice.UpdateBytes(), o.net.nextCtrlID())
				}
			}
		})
	}
}

// Resolve looks up target's location, calling cont exactly once. Cached
// results answer immediately; otherwise an LREQ goes to the target's
// home grid, with one retry to a second replica before giving up.
func (o *lsOverlay) Resolve(target anoncrypto.Identity, cont func(loc geo.Point, ok bool)) {
	now := o.net.Eng.Now()
	if c, ok := o.cache[target]; ok && now-c.seen <= o.net.Cfg.lsCacheTTL() {
		o.stats.CacheHits++
		cont(c.loc, true)
		return
	}
	if res, ok := o.pending[target]; ok {
		res.conts = append(res.conts, cont)
		return
	}
	res := &lsResolution{target: target, conts: []func(geo.Point, bool){cont}}
	o.pending[target] = res
	o.sendQuery(res, 0)
}

// sendQuery issues the LREQ to the replica-th home cell of the target.
func (o *lsOverlay) sendQuery(res *lsResolution, replica int) {
	now := o.net.Eng.Now()
	here := o.node.Pos(now)
	cells := o.ssa.HomeCells(res.target)
	cell := cells[replica%len(cells)]
	o.stats.Queries++
	switch o.mode {
	case LSPlainDLM:
		o.port.SendGeocast(o.ssa.Grid.Center(cell),
			lsPlainQuery{Target: res.target, ReplyLoc: here},
			locservice.PlainQueryBytes(), o.net.nextCtrlID())
	case LSALS:
		req := locservice.Requester{Self: o.node.Keys, SSA: o.ssa, Directory: o.net.lsDirectory}
		q, _, err := req.BuildQuery(res.target, here)
		if err != nil {
			o.finishResolution(res, geo.Point{}, false)
			return
		}
		o.pendingALS[q.Index] = res.target
		o.port.SendGeocast(o.ssa.Grid.Center(cell),
			lsALSQuery{Q: q}, locservice.QueryBytes(), o.net.nextCtrlID())
	}
	res.timer = o.net.Eng.Schedule(o.net.Cfg.lsQueryTimeout(), func() {
		if !res.retried && len(cells) > 1 {
			res.retried = true
			o.sendQuery(res, 1)
			return
		}
		o.stats.Timeouts++
		o.finishResolution(res, geo.Point{}, false)
	})
}

// finishResolution settles every waiter.
func (o *lsOverlay) finishResolution(res *lsResolution, loc geo.Point, ok bool) {
	if res.timer != nil {
		res.timer.Cancel()
		res.timer = nil
	}
	delete(o.pending, res.target)
	if ok {
		o.stats.Resolved++
		o.cache[res.target] = cachedLoc{loc: loc, seen: o.net.Eng.Now()}
	}
	for _, c := range res.conts {
		c(loc, ok)
	}
	res.conts = nil
}

// stamp returns the next store-write sequence number.
func (o *lsOverlay) stamp() uint64 {
	o.seq++
	return o.seq
}

// onGeocast is the server/requester-side message dispatcher.
func (o *lsOverlay) onGeocast(payload any, _ int) {
	now := o.net.Eng.Now()
	ttl := o.net.Cfg.lsRecordTTL()
	switch m := payload.(type) {
	case lsPlainUpdate:
		seen := m.Seen
		if seen == 0 {
			seen = now
		}
		if old, ok := o.plainStore[m.ID]; !ok || seen >= old.seen {
			o.plainStore[m.ID] = plainRecord{loc: m.Loc, seen: seen, cell: m.Cell, seq: o.stamp()}
		}
	case lsALSUpdate:
		seen := m.Seen
		if seen == 0 {
			seen = now
		}
		if old, ok := o.alsStore[m.U.Index]; !ok || seen >= old.seen {
			o.alsStore[m.U.Index] = alsRecord{sealed: m.U.Sealed, seen: seen, cell: m.Cell, seq: o.stamp()}
		}
	case lsPlainQuery:
		rec, ok := o.plainStore[m.Target]
		if !ok || now-rec.seen > ttl {
			o.stats.ServerMisses++
			return
		}
		o.stats.Replies++
		o.port.SendGeocast(m.ReplyLoc,
			lsPlainReply{Target: m.Target, Loc: rec.loc, TS: rec.seen},
			locservice.PlainReplyBytes(), o.net.nextCtrlID())
	case lsALSBatch:
		for _, h := range m.Recs {
			if old, ok := o.alsStore[h.Index]; !ok || h.Seen >= old.seen {
				o.alsStore[h.Index] = alsRecord{sealed: h.Sealed, seen: h.Seen, cell: m.Cell, seq: o.stamp()}
			}
		}
	case lsPlainBatch:
		for _, h := range m.Recs {
			if old, ok := o.plainStore[h.ID]; !ok || h.Seen >= old.seen {
				o.plainStore[h.ID] = plainRecord{loc: h.Loc, seen: h.Seen, cell: m.Cell, seq: o.stamp()}
			}
		}
	case lsALSQuery:
		rec, ok := o.alsStore[m.Q.Index]
		if !ok || now-rec.seen > ttl {
			o.stats.ServerMisses++
			return
		}
		rep := &locservice.Reply{Sealed: []locservice.SealedLocation{rec.sealed}}
		o.stats.Replies++
		o.port.SendGeocast(m.Q.ReplyLoc,
			lsALSReply{Index: m.Q.Index, Rep: rep}, rep.ReplyBytes(), o.net.nextCtrlID())
	case lsPlainReply:
		if res, ok := o.pending[m.Target]; ok {
			o.finishResolution(res, m.Loc, true)
		}
	case lsALSReply:
		target, ok := o.pendingALS[m.Index]
		if !ok {
			return
		}
		delete(o.pendingALS, m.Index)
		res, ok := o.pending[target]
		if !ok {
			return
		}
		// Charge the private-key decryption (8.5 ms) before the location
		// becomes usable.
		o.net.Eng.Schedule(8500*time.Microsecond, func() {
			req := locservice.Requester{Self: o.node.Keys, SSA: o.ssa, Directory: o.net.lsDirectory}
			loc, _, ok := req.OpenReply(m.Rep, target)
			o.stats.Decrypts += req.DecryptAttempts
			if _, stillPending := o.pending[target]; !stillPending {
				return // timed out while decrypting
			}
			o.finishResolution(res, loc, ok)
		})
	}
}

// lsDirectory resolves node identities to their RSA public keys (the
// certificate directory the paper assumes).
func (n *Network) lsDirectory(id anoncrypto.Identity) (*rsa.PublicKey, bool) {
	node, ok := n.byID[id]
	if !ok || node.Keys == nil {
		return nil, false
	}
	return node.Keys.Public(), true
}

// anticipatedRequesters lists the flow sources that target node index i —
// the paper's "anticipate its potential senders" requirement, grounded
// in the scenario's actual traffic matrix.
func (n *Network) anticipatedRequesters(i int) []anoncrypto.Identity {
	var out []anoncrypto.Identity
	seen := map[int]bool{}
	for _, f := range n.flows {
		if f.Dst == i && !seen[f.Src] {
			seen[f.Src] = true
			out = append(out, NodeID(f.Src))
		}
	}
	return out
}

// nextCtrlID allocates packet ids for control-plane geocasts, disjoint
// from the traffic generator's data ids.
func (n *Network) nextCtrlID() uint64 {
	n.ctrlID++
	return 1<<40 + n.ctrlID
}

// LSStats sums the overlay counters across nodes.
func (n *Network) LSStats() LSStats {
	var s LSStats
	for _, node := range n.Nodes {
		if node.overlay == nil {
			continue
		}
		o := node.overlay.stats
		s.Updates += o.Updates
		s.Queries += o.Queries
		s.Replies += o.Replies
		s.ServerMisses += o.ServerMisses
		s.Resolved += o.Resolved
		s.Timeouts += o.Timeouts
		s.CacheHits += o.CacheHits
		s.Decrypts += o.Decrypts
	}
	return s
}
