// Package gpsr implements the paper's baseline: GPSR-style greedy
// geographic forwarding (Karp & Kung) over the 802.11 MAC, with cleartext
// (identity, location) beacons and unicast data transmission guarded by
// RTS/CTS. An optional perimeter-mode recovery (Gabriel-graph
// planarization plus the right-hand rule) implements what the paper
// defers to future work.
//
// This protocol is deliberately privacy-free: every beacon broadcasts the
// sender's identity with its position, and every unicast frame exposes
// link-layer addresses — exactly the exposure surface §2 catalogs.
package gpsr

import (
	"math/rand"
	"strconv"
	"time"

	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/mac"
	"anongeo/internal/metrics"
	"anongeo/internal/neighbor"
	"anongeo/internal/routing"
	"anongeo/internal/sim"
	"anongeo/internal/trace"
)

// Beacon is the periodic hello: the sender's real identity and position.
// The sender's MAC address arrives out of band (frame source address).
type Beacon struct {
	ID  anoncrypto.Identity
	Loc geo.Point
	// Junk marks flood-attack beacons for simulator-omniscient accounting
	// (the audit balances junk heard against junk sent). No protocol
	// decision may read it: receivers treat junk beacons like real ones.
	Junk bool
}

// beaconBytes models the beacon size: type (1) + identity (8) +
// location (8) + timestamp (8).
const beaconBytes = 25

// headerBytes models the data header: type (1) + src (8) + dst (8) +
// dst location (8) + packet id (8) + hops/mode (4).
const headerBytes = 37

// Packet is a GPSR data packet. Geocast packets (Geocast true) have no
// destination identity: they terminate at the greedy local maximum
// toward DstLoc, where the router's GeoHandler consumes the payload —
// the primitive the DLM location service rides on.
type Packet struct {
	PktID  uint64
	Src    anoncrypto.Identity
	Dst    anoncrypto.Identity
	DstLoc geo.Point
	Bytes  int // application payload size
	Hops   int

	Geocast bool
	Payload any

	// Perimeter-mode state (zero while greedy).
	Perim     bool
	EntryLoc  geo.Point // where the packet entered perimeter mode (L_p)
	PrevLoc   geo.Point // position of the previous hop, for the right-hand rule
	FirstHop  anoncrypto.Identity
	FirstFrom anoncrypto.Identity
}

// Config parameterizes the router. DefaultConfig matches the NS-2 GPSR
// settings the paper's evaluation inherited.
type Config struct {
	BeaconInterval  time.Duration
	BeaconJitter    float64 // fraction of the interval, uniform ±
	NeighborTTL     sim.Time
	EnablePerimeter bool
	// MaxRouteRetries bounds re-routing after MAC-level send failures
	// (GPSR's MAC feedback: drop the dead neighbor, pick another).
	MaxRouteRetries int

	// BeaconLog, when non-nil, is the run-shared beacon content store
	// all routers' neighbor tables attach to (see neighbor.BeaconLog).
	// Nil gives the router a private log — correct, just without the
	// cross-node deduplication.
	BeaconLog *neighbor.BeaconLog

	// TrustConfig, when non-nil, arms trust-aware relaying: the router
	// keeps per-neighbor forwarding-evidence scores (watchdog overhearing
	// via a promiscuous MAC snoop), runs position-plausibility checks on
	// every beacon, and weights next-hop selection by trust. Nil keeps
	// the untrusted path bit-for-bit (the defense-off parity oracle).
	TrustConfig *neighbor.TrustConfig

	// Trace, when non-nil, records protocol events for debugging.
	Trace *trace.Log
}

// DefaultConfig returns the standard GPSR parameter set: 1.5 s beacons
// (±50% jitter) and a 4.5 s (3 beacons) neighbor timeout.
func DefaultConfig() Config {
	return Config{
		BeaconInterval:  1500 * time.Millisecond,
		BeaconJitter:    0.5,
		NeighborTTL:     sim.Time(4500 * time.Millisecond),
		MaxRouteRetries: 3,
	}
}

// Router is one node's GPSR instance.
type Router struct {
	eng  *sim.Engine
	dcf  *mac.DCF
	cfg  Config
	self anoncrypto.Identity
	pos  func() geo.Point
	rng  *rand.Rand

	table      *neighbor.Table
	col        *metrics.Collector
	deliver    routing.DeliverFunc
	geoHandler func(payload any, payloadBytes int)

	// Fault-injection state (see internal/fault): relayDrop > 0 makes
	// this node an adversarial relay (1 = blackhole, else greyhole
	// probability), muted suppresses beacons, beaconNoise perturbs the
	// advertised position (GPS error), forgedBeacon replaces the
	// advertised position outright (bogus-position injection).
	relayDrop    float64
	muted        bool
	beaconNoise  func(geo.Point) geo.Point
	forgedBeacon func(geo.Point) geo.Point

	// trust, when armed, is this node's view of its neighbors' relaying
	// honesty; watch holds the watchdog deadlines for packets handed to a
	// relay whose onward transmission we expect to overhear.
	trust *neighbor.Trust
	watch map[uint64]*watchdog

	started bool
	stats   Stats
}

// watchdog is one armed forwarding-evidence deadline.
type watchdog struct {
	relay anoncrypto.Identity
	mac   mac.Addr
	ev    *sim.Event
}

// Stats counts router-level events.
type Stats struct {
	BeaconsSent    int
	DataForwarded  int
	DeadEnds       int
	PerimHops      int
	MACFailures    int
	GeocastAccepts int
	// AdversaryDrops counts packets silently eaten while acting as a
	// blackhole/greyhole relay (fault injection). Unlike AGFW, the MAC
	// ACK already succeeded by the time the router drops, so the
	// previous hop believes the packet was delivered — the classic
	// blackhole attack against unicast geographic routing.
	AdversaryDrops int

	// Active-adversary accounting (internal/fault attack kinds). The
	// sent/heard pairs are simulator-omniscient: the audit balances them
	// globally (heard > 0 requires sent > 0).
	BogusBeaconsSent int // beacons whose position a forger displaced
	JunkHellosSent   int // flood-attack beacons originated here
	JunkHellosHeard  int // flood-attack beacons received here
	// Trust-defense accounting (zero whenever the defense is off).
	BeaconsQuarantined int // beacons rejected by plausibility checks
	WatchdogConfirms   int // relays overheard forwarding as promised
	WatchdogTimeouts   int // relays that never produced evidence
	TrustQuarantines   int // quarantine windows opened
	TrustFallbacks     int // selections forced below the trust bar
}

// New creates a router bound to an existing MAC entity. It installs
// itself as the MAC's upper layer. col may be shared across nodes.
func New(eng *sim.Engine, dcf *mac.DCF, self anoncrypto.Identity, pos func() geo.Point, cfg Config, col *metrics.Collector, deliver routing.DeliverFunc, rng *rand.Rand) *Router {
	table := neighbor.NewTable(cfg.NeighborTTL)
	if cfg.BeaconLog != nil {
		table = neighbor.NewSharedTable(cfg.NeighborTTL, cfg.BeaconLog)
	}
	r := &Router{
		eng:     eng,
		dcf:     dcf,
		cfg:     cfg,
		self:    self,
		pos:     pos,
		rng:     rng,
		table:   table,
		col:     col,
		deliver: deliver,
	}
	if cfg.TrustConfig != nil {
		r.trust = neighbor.NewTrust(*cfg.TrustConfig)
		r.watch = make(map[uint64]*watchdog)
		// The watchdog needs to overhear frames addressed to others;
		// installed only when the defense is on, so the defense-off MAC
		// path is untouched.
		dcf.SetSnoop(r.onSnoop)
	}
	dcf.SetDeliver(r.onDeliver)
	return r
}

// Trust exposes the trust table (nil when the defense is off).
func (r *Router) Trust() *neighbor.Trust { return r.trust }

// Table exposes the neighbor table for tests and diagnostics.
func (r *Router) Table() *neighbor.Table { return r.table }

// Stats returns a snapshot of router counters.
func (r *Router) Stats() Stats {
	s := r.stats
	if r.trust != nil {
		s.TrustQuarantines = r.trust.Quarantines
		s.TrustFallbacks = r.trust.Fallbacks
	}
	return s
}

// SetRelayDrop turns the node into an adversarial relay: packets routed
// through it are silently eaten with probability p (p >= 1 is a
// blackhole, 0 disables). Beaconing continues normally, so neighbors
// keep choosing it; packets addressed to the node itself still deliver.
func (r *Router) SetRelayDrop(p float64) { r.relayDrop = p }

// SetMute stops beaconing while the node keeps moving and forwarding —
// it fades out of neighbor tables within NeighborTTL.
func (r *Router) SetMute(m bool) { r.muted = m }

// SetBeaconNoise perturbs the position beacons advertise (GPS error
// injection); the radio still uses the true position. nil disables.
func (r *Router) SetBeaconNoise(f func(geo.Point) geo.Point) { r.beaconNoise = f }

// SetForgedBeacon turns the node into a position forger: advertised
// positions are replaced by f's output (bogus-position injection,
// composable with GPS error). nil restores truth.
func (r *Router) SetForgedBeacon(f func(geo.Point) geo.Point) { r.forgedBeacon = f }

// SendJunkHello broadcasts one beacon under a forged identity derived
// from nonce, advertising loc — the flood attack's per-tick payload.
// bytes <= 0 uses the protocol's own beacon size.
func (r *Router) SendJunkHello(nonce uint64, loc geo.Point, bytes int) {
	if bytes <= 0 {
		bytes = beaconBytes
	}
	id := anoncrypto.Identity("junk-" + strconv.FormatUint(nonce, 16))
	r.stats.JunkHellosSent++
	r.dcf.Send(mac.Broadcast, &Beacon{ID: id, Loc: loc, Junk: true}, bytes, nil)
}

// advertisedPos is the position beacons carry: the true position unless
// GPS-error injection or position forgery is active. Forgery applies
// after noise, so a forged lure is advertised exactly.
func (r *Router) advertisedPos() geo.Point {
	p := r.pos()
	if r.beaconNoise != nil {
		p = r.beaconNoise(p)
	}
	if r.forgedBeacon != nil {
		if fp := r.forgedBeacon(p); fp != p {
			r.stats.BogusBeaconsSent++
			p = fp
		}
	}
	return p
}

// SetGeoHandler installs the consumer of terminated geocast packets
// (the location-service server role).
func (r *Router) SetGeoHandler(h func(payload any, payloadBytes int)) { r.geoHandler = h }

// SendGeocast routes payload toward target; the node at the greedy local
// maximum consumes it via its GeoHandler. Geocasts are control-plane
// traffic: not recorded in the metrics collector.
func (r *Router) SendGeocast(target geo.Point, payload any, payloadBytes int, pktID uint64) {
	p := &Packet{PktID: pktID, Src: r.self, DstLoc: target, Bytes: payloadBytes, Geocast: true, Payload: payload}
	r.route(p, 0)
}

// acceptGeocast terminates a geocast at this node.
func (r *Router) acceptGeocast(p *Packet) {
	r.stats.GeocastAccepts++
	if r.geoHandler != nil {
		r.geoHandler(p.Payload, p.Bytes)
	}
}

// Start begins beaconing. Safe to call once.
func (r *Router) Start() {
	if r.started {
		return
	}
	r.started = true
	r.scheduleBeacon(true)
}

// scheduleBeacon arms the next (jittered) beacon.
func (r *Router) scheduleBeacon(first bool) {
	iv := r.cfg.BeaconInterval
	jit := time.Duration((r.rng.Float64()*2 - 1) * r.cfg.BeaconJitter * float64(iv))
	d := iv + jit
	if first {
		// Desynchronize node start-up across the network.
		d = time.Duration(r.rng.Float64() * float64(iv))
	}
	r.eng.Schedule(d, func() {
		r.sendBeacon()
		r.scheduleBeacon(false)
	})
}

// sendBeacon broadcasts ⟨id, loc⟩ and garbage-collects the table.
func (r *Router) sendBeacon() {
	if r.muted {
		return
	}
	r.stats.BeaconsSent++
	r.table.Expire(r.eng.Now())
	if r.trust != nil {
		// Junk-flood identities are one-shot; without garbage collection
		// their trust state grows with run length.
		r.trust.Expire(r.eng.Now(), 4*r.cfg.NeighborTTL)
	}
	r.dcf.Send(mac.Broadcast, &Beacon{ID: r.self, Loc: r.advertisedPos()}, beaconBytes, nil)
}

// SendData originates an application packet toward dst, whose position
// the caller resolved via a Locator. pktID must be globally unique.
func (r *Router) SendData(dst anoncrypto.Identity, dstLoc geo.Point, payloadBytes int, pktID uint64) {
	r.Originate(dst, dstLoc, payloadBytes, pktID, true)
}

// Originate is SendData with control over metrics recording; location-
// service callers stamp PacketSent at request time themselves.
func (r *Router) Originate(dst anoncrypto.Identity, dstLoc geo.Point, payloadBytes int, pktID uint64, record bool) {
	if record {
		r.col.PacketSent(pktID, r.eng.Now())
	}
	p := &Packet{PktID: pktID, Src: r.self, Dst: dst, DstLoc: dstLoc, Bytes: payloadBytes}
	if dst == r.self {
		r.deliverLocal(p)
		return
	}
	r.route(p, 0)
}

// tracef records a protocol event when tracing is enabled.
func (r *Router) tracef(kind, format string, args ...any) {
	if r.cfg.Trace.Enabled() {
		r.cfg.Trace.Addf(r.eng.Now(), string(r.self), kind, format, args...)
	}
}

// deliverLocal hands a packet that reached its destination upward.
func (r *Router) deliverLocal(p *Packet) {
	r.tracef("accept", "pkt %d after %d hops", p.PktID, p.Hops)
	r.col.PacketDelivered(p.PktID, r.eng.Now(), p.Hops)
	if r.deliver != nil {
		r.deliver(p.PktID, p.Hops)
	}
}

// route makes one forwarding decision for p. retriesLeft counts MAC
// failure re-routes already consumed for this packet at this node.
func (r *Router) route(p *Packet, retried int) {
	if p.Hops >= routing.MaxHops {
		if p.Geocast {
			r.col.Drop("hop-limit")
		} else {
			r.col.DropPacket(p.PktID, "hop-limit")
		}
		return
	}
	now := r.eng.Now()
	here := r.pos()

	// If the destination itself is a live neighbor, forward straight to
	// it: the carried loc_d may be stale, but the beacon is fresh. (AGFW
	// cannot take this shortcut — neighbors are pseudonymous — which is
	// why it has the last-hop trapdoor broadcast instead.)
	if !p.Geocast {
		if e, ok := r.table.Get(p.Dst, now); ok {
			r.transmit(p, e, retried)
			return
		}
	}

	if p.Perim {
		// Leave perimeter mode as soon as greedy would make progress
		// relative to where the packet got stuck.
		if here.Dist2(p.DstLoc) < p.EntryLoc.Dist2(p.DstLoc) {
			p.Perim = false
		}
	}
	if !p.Perim {
		if e, ok := r.table.Closest(p.DstLoc, here, now, r.trust); ok {
			r.transmit(p, e, retried)
			return
		}
		if p.Geocast {
			// Greedy local maximum: this node serves the target point.
			r.acceptGeocast(p)
			return
		}
		if !r.cfg.EnablePerimeter {
			r.stats.DeadEnds++
			r.tracef("stop", "pkt %d dead end toward %s", p.PktID, p.DstLoc)
			r.col.DropPacket(p.PktID, "dead-end")
			return
		}
		// Enter perimeter mode.
		q := *p
		q.Perim = true
		q.EntryLoc = here
		q.PrevLoc = p.DstLoc // first edge taken CCW from the line to dest
		q.FirstHop = ""
		q.FirstFrom = r.self
		p = &q
	}
	e, ok := r.perimeterNext(p, here, now)
	if !ok {
		r.stats.DeadEnds++
		r.col.DropPacket(p.PktID, "perimeter-dead-end")
		return
	}
	if p.FirstHop == "" {
		p.FirstHop = e.ID
	} else if p.FirstFrom == r.self && p.FirstHop == e.ID {
		// Completed a full tour of the face without progress.
		r.col.DropPacket(p.PktID, "perimeter-loop")
		return
	}
	r.stats.PerimHops++
	r.transmit(p, e, retried)
}

// transmit unicasts p to the chosen neighbor, with GPSR's MAC feedback:
// on failure, evict the neighbor and re-route.
func (r *Router) transmit(p *Packet, e neighbor.Entry, retried int) {
	q := *p
	q.PrevLoc = r.pos()
	r.stats.DataForwarded++
	r.tracef("fwd", "pkt %d -> %s", p.PktID, e.ID)
	r.dcf.Send(e.MAC, &q, headerBytes+p.Bytes, func(ok bool) {
		if ok {
			r.armWatchdog(p, e)
			return
		}
		r.stats.MACFailures++
		r.table.Remove(e.ID)
		if retried >= r.cfg.MaxRouteRetries {
			if p.Geocast {
				r.col.Drop("mac-retry-exhausted")
			} else {
				r.col.DropPacket(p.PktID, "mac-retry-exhausted")
			}
			return
		}
		r.route(p, retried+1)
	})
}

// armWatchdog starts the forwarding-evidence deadline for a packet the
// MAC just delivered to relay e: the snoop must overhear e's onward
// unicast of the same packet within EvidenceTimeout, or the relay is
// recorded as failing (Marti-style watchdog). No deadline is armed when
// the relay is the destination or a geocast terminal — there is
// legitimately nothing to overhear.
func (r *Router) armWatchdog(p *Packet, e neighbor.Entry) {
	if r.trust == nil || p.Geocast || e.ID == p.Dst {
		return
	}
	if _, ok := r.watch[p.PktID]; ok {
		return // already watching an earlier transmission of this packet
	}
	w := &watchdog{relay: e.ID, mac: e.MAC}
	r.watch[p.PktID] = w
	id := p.PktID
	w.ev = r.eng.Schedule(r.trust.Config().EvidenceTimeout, func() {
		if r.watch[id] != w {
			return
		}
		delete(r.watch, id)
		r.stats.WatchdogTimeouts++
		r.trust.Record(string(w.relay), false, r.eng.Now())
	})
}

// onSnoop receives overheard unicast data frames (trust mode only) and
// settles matching watchdog deadlines: the watched relay retransmitting
// the watched packet onward is positive forwarding evidence.
func (r *Router) onSnoop(src, _ mac.Addr, payload any) {
	p, ok := payload.(*Packet)
	if !ok {
		return
	}
	w, ok := r.watch[p.PktID]
	if !ok || src != w.mac {
		return
	}
	w.ev.Cancel()
	delete(r.watch, p.PktID)
	r.stats.WatchdogConfirms++
	r.trust.Record(string(w.relay), true, r.eng.Now())
}

// onDeliver is the MAC upper-layer callback.
func (r *Router) onDeliver(src mac.Addr, payload any, _ int) {
	switch m := payload.(type) {
	case *Beacon:
		if m.Junk {
			r.stats.JunkHellosHeard++
		}
		if r.trust != nil && !r.trust.CheckBeacon(string(m.ID), m.Loc, r.pos(), r.eng.Now()) {
			// Implausible advertised position: quarantine the sender and
			// keep the claim out of the neighbor table.
			r.stats.BeaconsQuarantined++
			return
		}
		r.table.Update(m.ID, src, m.Loc, r.eng.Now())
	case *Packet:
		q := *m
		q.Hops++
		if q.Dst == r.self {
			r.deliverLocal(&q)
			return
		}
		if r.relayDrop > 0 && (r.relayDrop >= 1 || r.rng.Float64() < r.relayDrop) {
			// Adversarial relay: the MAC already acknowledged the frame,
			// so the previous hop believes it was forwarded. Eat it.
			r.stats.AdversaryDrops++
			r.col.Drop("adversary-drop")
			return
		}
		r.route(&q, 0)
	}
}

// perimeterNext applies the right-hand rule on the Gabriel-planarized
// neighbor graph: take the first edge counterclockwise from the edge
// (here → PrevLoc).
func (r *Router) perimeterNext(p *Packet, here geo.Point, now sim.Time) (neighbor.Entry, bool) {
	planar := r.planarNeighbors(here, now)
	if len(planar) == 0 {
		return neighbor.Entry{}, false
	}
	ref := here.Angle(p.PrevLoc)
	best := neighbor.Entry{}
	bestDelta := -1.0
	for _, e := range planar {
		a := here.Angle(e.Loc)
		// Counterclockwise sweep angle from the reference edge.
		delta := a - ref
		for delta <= 1e-12 {
			delta += 2 * 3.141592653589793
		}
		if bestDelta < 0 || delta < bestDelta {
			best, bestDelta = e, delta
		}
	}
	return best, bestDelta >= 0
}

// planarNeighbors filters the live neighbor set down to Gabriel-graph
// edges: keep (self, v) iff no witness w lies strictly inside the circle
// with diameter self–v.
func (r *Router) planarNeighbors(here geo.Point, now sim.Time) []neighbor.Entry {
	all := r.table.Entries(now)
	var out []neighbor.Entry
	for _, v := range all {
		mid := here.Lerp(v.Loc, 0.5)
		rad2 := here.Dist2(v.Loc) / 4
		keep := true
		for _, w := range all {
			if w.ID == v.ID {
				continue
			}
			if w.Loc.Dist2(mid) < rad2-1e-9 {
				keep = false
				break
			}
		}
		if keep {
			out = append(out, v)
		}
	}
	return out
}
