// Package agfw implements the paper's contribution: Anonymous Greedy
// ForWarding (§3.2) on top of the anonymous neighbor table (§3.1).
//
// Every transmission is a link-layer broadcast: frames carry no MAC
// addresses, relays are named only by one-shot pseudonyms in the network
// header, and the destination is named only by a public-key trapdoor that
// is attempted exclusively inside the last-hop region. An optional
// network-layer acknowledgment (explicit, or piggybacked on the next
// hop's own forwarding broadcast) restores the reliability that skipping
// the 802.11 unicast machinery gives up — the AGFW/AGFW-noACK/GPSR
// triangle Figure 1 measures.
package agfw

import (
	"encoding/binary"
	"math/rand"
	"sort"
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

// Packet is the AGFW data header ⟨DATA, loc_d, n, trapdoor⟩ plus the
// packet identifier the network-layer ACK references.
//
// Geocast packets (Geocast true) are the location-service extension: no
// trapdoor; the packet terminates at the greedy local maximum toward
// DstLoc — i.e., at the node currently serving that position — and its
// Payload is handed to the router's GeoHandler. Like everything else in
// AGFW they travel as anonymous broadcasts.
type Packet struct {
	PktID    uint64
	DstLoc   geo.Point
	N        anoncrypto.Pseudonym
	Trapdoor Sealed
	Bytes    int // application payload size
	Hops     int

	// AckKey is the per-packet acknowledgment MAC key (Config.AuthAck).
	// The source seals it inside the trapdoor for the destination and —
	// modeled as a sealed hop-key block charged in the data size — to
	// each committed relay, so every legitimate holder of the packet can
	// authenticate its acks while an overhearing bystander cannot. Zero
	// when AuthAck is off.
	AckKey uint64

	Geocast bool
	Payload any
}

// Ack is the network-layer acknowledgment: it "includes the information
// uniquely determining the packet received" (§3.2).
type Ack struct {
	PktID uint64
	// Auth is the acknowledgment MAC over PktID under the packet's
	// AckKey (Config.AuthAck). Zero means unauthenticated — what a
	// forger who never held the sealed key can send.
	Auth uint64
	// Spoofed marks forged acknowledgments (the ack-spoof attack) for
	// simulator-omniscient accounting. Receivers MUST NOT branch on it —
	// accept/reject is decided by the MAC (or, without AuthAck, not at
	// all) — it only feeds the audit's spoofed-ack reconciliation and
	// the bad-mac/foreign-mac counter split.
	Spoofed bool
}

// Modeled sizes: data header = type (1) + loc_d (8) + n (6) + id (8);
// ack = type (1) + id (8). AuthAck adds a sealed per-hop key block to
// data and the 8-byte MAC to acks.
const (
	dataHeaderBytes  = 23
	ackBytes         = 9
	ackKeyBlockBytes = 16 // sealed hop-key block on data when AuthAck is on
	ackMACBytes      = 8  // acknowledgment MAC when AuthAck is on
)

// Config parameterizes the router.
type Config struct {
	BeaconInterval time.Duration
	BeaconJitter   float64
	NeighborTTL    sim.Time
	// Policy selects the next-hop strategy; the paper recommends
	// preferring fresher entries over strictly closest ones.
	Policy neighbor.Policy
	// RadioRange defines the last-hop region: loc_d within this distance.
	RadioRange float64
	// MaxSpeed parameterizes PolicyWeighted's staleness discount.
	MaxSpeed float64

	// UseAck enables the network-layer acknowledgment and retransmission.
	UseAck bool
	// PiggybackAck treats an overheard onward forwarding of the same
	// packet as an implicit acknowledgment (§3.2's piggybacking).
	PiggybackAck bool
	// AckTimeout is the base retransmission timer; each retry scales it
	// by AckBackoff and adds uniform jitter so synchronized hidden
	// senders decorrelate instead of re-colliding forever.
	AckTimeout time.Duration
	AckBackoff float64
	// MaxRetransmits bounds network-layer retransmissions per hop.
	MaxRetransmits int
	// ReachFilter, when set, makes next-hop selection skip entries whose
	// advertised distance plus worst-case drift exceeds the radio range.
	// An ablation knob: it trades per-hop progress for link reliability.
	ReachFilter bool
	// PseudonymDepth is how many recent hello pseudonyms a node keeps
	// answering to. The paper's "two latest" assumes the neighbor timeout
	// spans two beacon periods; the GPSR-style 3-beacon timeout with
	// ±50% jitter needs more to avoid routing to forgotten pseudonyms.
	PseudonymDepth int

	// EncryptDelay and DecryptDelay are the simulated costs of sealing
	// and attempting a trapdoor (§5.1: 0.5 ms and 8.5 ms).
	EncryptDelay time.Duration
	DecryptDelay time.Duration

	// HelloBytes overrides the plain 23-byte hello size; the
	// authenticated ANT's ring signatures and certificates inflate it.
	HelloBytes int
	// HelloVerifyDelay charges receivers per hello (ring verification).
	HelloVerifyDelay time.Duration
	// HelloSignDelay charges the sender per hello (ring signing).
	HelloSignDelay time.Duration

	// AuthSigner/AuthVerifier switch the router to genuinely ring-signed
	// hellos (§3.1.2): every beacon is signed with AuthRingK decoys and
	// receivers verify before admitting the entry, so unauthorized
	// hellos cannot poison the ANT. The modeled HelloSignDelay /
	// HelloVerifyDelay still apply on top (the simulated node is slower
	// than the host CPU).
	AuthSigner   *neighbor.Signer
	AuthVerifier *neighbor.Verifier
	AuthRingK    int
	// AuthAttachCerts attaches full certificates instead of serial
	// references (§4's bandwidth discussion).
	AuthAttachCerts bool

	// TrustConfig, when non-nil, arms trust-aware relaying: per-pseudonym
	// forwarding-evidence scores fed by the ARQ (acks settle positive,
	// timeouts negative), position-plausibility checks on every hello,
	// and trust-weighted next-hop selection. Nil keeps the untrusted path
	// bit-for-bit (the defense-off parity oracle).
	TrustConfig *neighbor.TrustConfig

	// AuthAck arms per-hop authenticated acknowledgments: every
	// originated packet carries a MAC key sealed in its trapdoor (and,
	// modeled, in a per-hop key block), acks must carry the matching MAC,
	// and failures are rejected without settling the ARQ — forged acks
	// stop laundering the evidence stream. False keeps the
	// unauthenticated ack path bit-for-bit.
	AuthAck bool

	// Revocation, when non-nil, is the run's shared escrow authority
	// registry: rotated pseudonyms are registered with CA-blessed escrow
	// tags, hellos whose pseudonym carries no valid tag are rejected,
	// and the armed Trust table files accusations / inherits revoked
	// standing through it. Nil keeps rotation-resettable trust.
	Revocation *neighbor.RevocationRegistry

	// Trace, when non-nil, records protocol events for debugging.
	Trace *trace.Log
}

// DefaultConfig mirrors the paper's evaluation settings.
func DefaultConfig() Config {
	return Config{
		BeaconInterval: 1500 * time.Millisecond,
		BeaconJitter:   0.5,
		NeighborTTL:    sim.Time(4500 * time.Millisecond),
		Policy:         neighbor.PolicyWeighted,
		RadioRange:     250,
		MaxSpeed:       20,
		UseAck:         true,
		PiggybackAck:   true,
		AckTimeout:     35 * time.Millisecond,
		AckBackoff:     1.5,
		MaxRetransmits: 6,
		PseudonymDepth: 8,
		EncryptDelay:   500 * time.Microsecond,
		DecryptDelay:   8500 * time.Microsecond,
		HelloBytes:     23,
	}
}

// Stats counts protocol-level events for the ablation experiments.
type Stats struct {
	BeaconsSent      int
	Forwards         int // committed-forwarder rebroadcasts
	LastHopAttempts  int // n=0 local broadcasts
	TrapdoorTries    int
	TrapdoorOpens    int
	ExplicitAcks     int
	ImplicitAcks     int
	Retransmits      int
	RetryDrops       int
	DeadEnds         int
	DuplicatesQuench int
	GeocastAccepts   int
	HellosRejected   int
	// AdversaryDrops counts committed packets this node silently ate
	// while acting as a blackhole/greyhole relay (fault injection).
	AdversaryDrops int

	// Active-adversary accounting (internal/fault attack kinds). The
	// sent/heard pairs are simulator-omniscient: the audit balances them
	// globally (heard > 0 requires sent > 0), and per node SpoofSettles
	// can never exceed SpoofAcksHeard.
	BogusBeaconsSent int // hellos whose position a forger displaced
	JunkHellosSent   int // flood-attack hellos originated here
	JunkHellosHeard  int // flood-attack hellos received here
	SpoofAcksSent    int // forged acknowledgments originated here
	SpoofAcksHeard   int // forged acknowledgments received here
	// SpoofSettles counts pending-ARQ entries a forged ack retired — the
	// attack's direct damage: the victim stops retransmitting a packet
	// that was never forwarded. The audit attributes still-unresolved
	// spoof-settled packets to the "spoofed-ack" drop reason.
	SpoofSettles int
	// Trust-defense accounting (zero whenever the defense is off).
	BeaconsQuarantined int // hellos rejected by plausibility checks
	TrustQuarantines   int // quarantine windows opened
	TrustFallbacks     int // selections forced below the trust bar

	// Authenticated-ack accounting (zero whenever AuthAck is off).
	AuthAcksVerified int // pending settles whose MAC checked out
	AuthAcksBadMAC   int // forged acks rejected by the MAC (attributable)
	AuthAcksForeign  int // non-forged MAC mismatches (cross-tree overhears)
	// Revocation accounting (zero whenever Revocation is nil).
	TagRejects int // hellos rejected for missing/invalid escrow tags
}

// pendingTx is one packet awaiting a network-layer acknowledgment.
type pendingTx struct {
	pkt     Packet
	retries int
	timer   *sim.Event
	// tried records the relays that failed to acknowledge, so
	// retransmissions route around them (the ANT analog of GPSR's
	// MAC-feedback neighbor eviction).
	tried map[anoncrypto.Pseudonym]bool
}

// Router is one node's AGFW instance.
type Router struct {
	eng    *sim.Engine
	dcf    *mac.DCF
	cfg    Config
	self   anoncrypto.Identity
	pos    func() geo.Point
	rng    *rand.Rand
	scheme TrapdoorScheme

	ant *neighbor.ANT
	mem *neighbor.PseudonymMemory

	col     *metrics.Collector
	deliver routing.DeliverFunc
	// geoHandler receives geocast payloads that terminated here.
	geoHandler func(payload any, payloadBytes int)

	pending   map[uint64]*pendingTx
	handled   map[uint64]bool
	delivered map[uint64]bool

	// Fault-injection state (see internal/fault): relayDrop > 0 makes
	// this node an adversarial relay (1 = blackhole, else greyhole
	// probability), muted suppresses hello beacons, beaconNoise perturbs
	// advertised positions (GPS error), forgedBeacon replaces them
	// outright, ackSpoof decides per overheard foreign packet whether to
	// forge an acknowledgment for it.
	relayDrop    float64
	muted        bool
	beaconNoise  func(geo.Point) geo.Point
	forgedBeacon func(geo.Point) geo.Point
	ackSpoof     func() bool

	// trust, when armed, scores neighbor pseudonyms by ARQ evidence;
	// spoofSettled records packet ids whose pending entry a forged ack
	// retired, for the audit's spoofed-ack reconciliation.
	trust        *neighbor.Trust
	spoofSettled map[uint64]bool

	started bool
	stats   Stats
}

// New creates a router bound to an existing MAC entity (which must use
// the broadcast link-layer address for full anonymity) and installs
// itself as the MAC upper layer.
func New(eng *sim.Engine, dcf *mac.DCF, self anoncrypto.Identity, pos func() geo.Point, scheme TrapdoorScheme, cfg Config, col *metrics.Collector, deliver routing.DeliverFunc, rng *rand.Rand) *Router {
	r := &Router{
		eng:       eng,
		dcf:       dcf,
		cfg:       cfg,
		self:      self,
		pos:       pos,
		rng:       rng,
		scheme:    scheme,
		ant:       newReachANT(cfg),
		mem:       neighbor.NewPseudonymMemory(self, rng, cfg.PseudonymDepth),
		col:       col,
		deliver:   deliver,
		pending:   make(map[uint64]*pendingTx),
		handled:   make(map[uint64]bool),
		delivered: make(map[uint64]bool),
	}
	if cfg.TrustConfig != nil {
		r.trust = neighbor.NewTrust(*cfg.TrustConfig)
		if cfg.Revocation != nil {
			r.trust.EnableRevocation(cfg.Revocation, string(self))
		}
	}
	dcf.SetDeliver(r.onDeliver)
	return r
}

// ackKeyFor derives the per-packet acknowledgment MAC key: a keyed hash
// of the originator and the packet id, so keys are unique per packet,
// nonzero, and cost no engine randomness (drawing from the router rng
// here would shift every downstream stream and break the defense-off
// parity oracle).
func (r *Router) ackKeyFor(pktID uint64) uint64 {
	var seed uint64 = 0xcbf29ce484222325
	for _, b := range []byte(r.self) {
		seed = (seed ^ uint64(b)) * 0x100000001b3
	}
	return anoncrypto.AckMAC64(seed, pktID)
}

// ackSize is the modeled on-air acknowledgment size.
func (r *Router) ackSize() int {
	if r.cfg.AuthAck {
		return ackBytes + ackMACBytes
	}
	return ackBytes
}

// Trust exposes the trust table (nil when the defense is off).
func (r *Router) Trust() *neighbor.Trust { return r.trust }

// newReachANT builds the router's ANT, arming the reachability filter
// when configured.
func newReachANT(cfg Config) *neighbor.ANT {
	ant := neighbor.NewANT(cfg.NeighborTTL, cfg.MaxSpeed)
	if cfg.ReachFilter {
		ant.SetReachRange(cfg.RadioRange)
	}
	return ant
}

// ANT exposes the anonymous neighbor table for tests and diagnostics.
func (r *Router) ANT() *neighbor.ANT { return r.ant }

// SetGeoHandler installs the consumer of terminated geocast packets
// (the location-service server role).
func (r *Router) SetGeoHandler(h func(payload any, payloadBytes int)) { r.geoHandler = h }

// SendGeocast routes payload toward target and delivers it to the
// GeoHandler of the node serving that position (the greedy local
// maximum). pktID must be unique network-wide; geocasts use the same
// network-layer acknowledgment machinery as data but are not recorded in
// the metrics collector — they are control-plane traffic.
func (r *Router) SendGeocast(target geo.Point, payload any, payloadBytes int, pktID uint64) {
	p := Packet{
		PktID:   pktID,
		DstLoc:  target,
		Bytes:   payloadBytes,
		Geocast: true,
		Payload: payload,
	}
	if r.cfg.AuthAck {
		p.AckKey = r.ackKeyFor(pktID)
	}
	r.handled[pktID] = true
	// The origin might itself be the serving node.
	if _, ok := r.chooseNextHop(target, r.eng.Now(), nil); !ok {
		r.acceptGeocast(p)
		return
	}
	r.forwardDecision(p)
}

// acceptGeocast terminates a geocast at this node.
func (r *Router) acceptGeocast(q Packet) {
	r.stats.GeocastAccepts++
	if r.cfg.UseAck && q.Hops > 0 {
		r.sendAck(q.PktID, q.AckKey)
	}
	if r.geoHandler != nil {
		r.geoHandler(q.Payload, q.Bytes)
	}
}

// Stats returns a snapshot of the router counters.
func (r *Router) Stats() Stats {
	s := r.stats
	if r.trust != nil {
		s.TrustQuarantines = r.trust.Quarantines
		s.TrustFallbacks = r.trust.Fallbacks
	}
	return s
}

// SpoofSettledIDs returns, in ascending order, the packet ids whose
// pending-ARQ entry a forged acknowledgment retired at this node. The
// end-of-run audit reconciles the still-unresolved ones to the
// "spoofed-ack" drop reason so conservation stays attributable.
func (r *Router) SpoofSettledIDs() []uint64 {
	if len(r.spoofSettled) == 0 {
		return nil
	}
	ids := make([]uint64, 0, len(r.spoofSettled))
	for id := range r.spoofSettled {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// SetRelayDrop turns the node into an adversarial relay: packets it
// committed to forward are silently eaten with probability p (p >= 1 is
// a blackhole, 0 disables). The node keeps beaconing normally — that is
// the attack: it attracts traffic it then drops, and never acknowledges,
// so the previous hop's network-layer ARQ must route around it.
func (r *Router) SetRelayDrop(p float64) { r.relayDrop = p }

// SetMute stops hello beaconing while the node keeps moving, receiving,
// and forwarding already-routed traffic — stale-neighbor injection.
func (r *Router) SetMute(m bool) { r.muted = m }

// SetBeaconNoise perturbs the position this node advertises in hellos
// (GPS error injection). The radio still uses the true position; only
// what neighbors believe is wrong. nil disables.
func (r *Router) SetBeaconNoise(f func(geo.Point) geo.Point) { r.beaconNoise = f }

// SetForgedBeacon turns the node into a position forger: advertised
// positions are replaced by f's output (bogus-position injection,
// composable with GPS error). nil restores truth.
func (r *Router) SetForgedBeacon(f func(geo.Point) geo.Point) { r.forgedBeacon = f }

// SetAckSpoof arms the ack-spoof attack: pred is consulted for every
// overheard data packet committed to someone else, and a true return
// forges a network-layer acknowledgment for it — retiring the previous
// hop's ARQ for a packet that was never forwarded. nil disarms.
func (r *Router) SetAckSpoof(pred func() bool) { r.ackSpoof = pred }

// SendJunkHello broadcasts one hello under a pseudonym forged from
// nonce, advertising loc — the flood attack's per-tick payload.
// bytes <= 0 uses the configured hello size.
func (r *Router) SendJunkHello(nonce uint64, loc geo.Point, bytes int) {
	if bytes <= 0 {
		bytes = r.cfg.HelloBytes
	}
	var n anoncrypto.Pseudonym
	binary.BigEndian.PutUint32(n[0:4], uint32(nonce>>32))
	binary.BigEndian.PutUint16(n[4:6], uint16(nonce))
	if n.IsLastHop() {
		n[0] = 1 // never collide with the reserved broadcast marker
	}
	r.stats.JunkHellosSent++
	r.dcf.Send(mac.Broadcast, neighbor.Hello{N: n, Loc: loc, TS: r.eng.Now(), Junk: true}, bytes, nil)
}

// UnarmedPending counts pending-ACK entries whose retransmission timer
// is not armed. The invariant is zero at all times between events: every
// live pending entry either awaits an ACK under a scheduled timeout or
// is removed. A non-zero count means a packet is wedged — it will never
// be retransmitted, acknowledged, or dropped — and the end-of-run wedge
// detector fails the run.
func (r *Router) UnarmedPending() int {
	n := 0
	for _, pd := range r.pending {
		if pd.timer == nil {
			n++
		}
	}
	return n
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

// tracef records a protocol event when tracing is enabled.
func (r *Router) tracef(kind, format string, args ...any) {
	if r.cfg.Trace.Enabled() {
		r.cfg.Trace.Addf(r.eng.Now(), string(r.self), kind, format, args...)
	}
}

// Start begins hello beaconing.
func (r *Router) Start() {
	if r.started {
		return
	}
	r.started = true
	r.scheduleBeacon(true)
}

func (r *Router) scheduleBeacon(first bool) {
	iv := r.cfg.BeaconInterval
	jit := time.Duration((r.rng.Float64()*2 - 1) * r.cfg.BeaconJitter * float64(iv))
	d := iv + jit
	if first {
		d = time.Duration(r.rng.Float64() * float64(iv))
	}
	r.eng.Schedule(d, func() {
		r.sendBeacon()
		r.scheduleBeacon(false)
	})
}

// sendBeacon rotates the pseudonym and broadcasts ⟨HELLO, n, loc, ts⟩.
// In authenticated-ANT mode the (modeled) signing delay is charged
// first, and with an AuthSigner the hello is genuinely ring-signed.
func (r *Router) sendBeacon() {
	if r.muted {
		return
	}
	r.stats.BeaconsSent++
	r.ant.Expire(r.eng.Now())
	if r.trust != nil {
		// Pseudonym keys are one-shot; without garbage collection the
		// trust table grows with run length.
		r.trust.Expire(r.eng.Now(), 4*r.cfg.NeighborTTL)
	}
	n := r.mem.Rotate()
	if r.cfg.Revocation != nil {
		// Escrow the fresh pseudonym before anyone can hear it: the tag
		// is what a quorum opens to link this pseudonym to r.self.
		r.cfg.Revocation.Register(string(n[:]), r.self, n, r.eng.Now())
	}
	send := func() {
		h := neighbor.Hello{N: n, Loc: r.advertisedPos(), TS: r.eng.Now()}
		if r.cfg.AuthSigner != nil {
			ah, err := r.cfg.AuthSigner.Sign(h, r.cfg.AuthRingK, r.cfg.AuthAttachCerts)
			if err != nil {
				return // cannot authenticate: stay silent this round
			}
			r.dcf.Send(mac.Broadcast, ah, ah.WireSize(), nil)
			return
		}
		r.dcf.Send(mac.Broadcast, h, r.cfg.HelloBytes, nil)
	}
	if r.cfg.HelloSignDelay > 0 {
		r.eng.Schedule(r.cfg.HelloSignDelay, send)
		return
	}
	send()
}

// SendData originates a packet toward dst at dstLoc (from the location
// service or oracle). The trapdoor-sealing delay is charged before the
// packet enters the network.
func (r *Router) SendData(dst anoncrypto.Identity, dstLoc geo.Point, payloadBytes int, pktID uint64) {
	r.Originate(dst, dstLoc, payloadBytes, pktID, true)
}

// Originate is SendData with control over metrics recording: callers
// that resolved the destination through a simulated location service
// stamp PacketSent themselves at request time, so the measured latency
// includes the lookup.
func (r *Router) Originate(dst anoncrypto.Identity, dstLoc geo.Point, payloadBytes int, pktID uint64, record bool) {
	if record {
		r.col.PacketSent(pktID, r.eng.Now())
	}
	if dst == r.self {
		r.col.PacketDelivered(pktID, r.eng.Now(), 0)
		if r.deliver != nil {
			r.deliver(pktID, 0)
		}
		return
	}
	var ackKey uint64
	if r.cfg.AuthAck {
		ackKey = r.ackKeyFor(pktID)
	}
	r.eng.Schedule(r.cfg.EncryptDelay, func() {
		td, err := r.scheme.Seal(dst, r.pos(), r.eng.Now(), ackKey)
		if err != nil {
			r.col.DropPacket(pktID, "seal-failure")
			return
		}
		p := Packet{PktID: pktID, DstLoc: dstLoc, Trapdoor: td, Bytes: payloadBytes, AckKey: ackKey}
		r.handled[pktID] = true // we are this packet's origin
		r.forwardDecision(p)
	})
}

// inLastHopRegion reports whether loc_d is within our radio range.
func (r *Router) inLastHopRegion(dstLoc geo.Point) bool {
	return r.pos().Dist(dstLoc) <= r.cfg.RadioRange
}

// chooseNextHop picks the next hop from our position under the
// configured policy, weighted by the trust table when the defense is
// armed (r.trust is nil otherwise).
func (r *Router) chooseNextHop(dstLoc geo.Point, now sim.Time, exclude map[anoncrypto.Pseudonym]bool) (neighbor.ANTEntry, bool) {
	return r.ant.ChooseNextHop(dstLoc, r.pos(), now, r.cfg.Policy, exclude, r.trust)
}

// forwardDecision implements TryForward + the last forwarding attempt of
// Algorithm 3.2 for a packet we are committed to moving onward.
func (r *Router) forwardDecision(p Packet) {
	if p.Hops >= routing.MaxHops {
		if p.Geocast {
			r.col.Drop("hop-limit")
		} else {
			r.col.DropPacket(p.PktID, "hop-limit")
		}
		return
	}
	now := r.eng.Now()
	if e, ok := r.chooseNextHop(p.DstLoc, now, nil); ok {
		p.N = e.N
		r.stats.Forwards++
		r.tracef("fwd", "pkt %d -> %s toward %s", p.PktID, e.N, p.DstLoc)
		r.transmit(p)
		return
	}
	if p.Geocast {
		// Geocasts terminate at the greedy local maximum: this node
		// serves the target position.
		r.acceptGeocast(p)
		return
	}
	if r.inLastHopRegion(p.DstLoc) {
		p.N = anoncrypto.LastHop
		r.stats.LastHopAttempts++
		r.transmit(p)
		return
	}
	// STOP: greedy dead end, no recovery mode (§3.2). The previous hop's
	// retransmissions are quenched by the explicit ACK sent on receipt.
	r.stats.DeadEnds++
	r.tracef("stop", "pkt %d dead end toward %s", p.PktID, p.DstLoc)
	r.col.DropPacket(p.PktID, "dead-end")
}

// transmit broadcasts p and arms the network-layer retransmission timer.
func (r *Router) transmit(p Packet) {
	cp := p
	size := dataHeaderBytes + p.Bytes
	if !p.Geocast {
		size += r.scheme.Size()
	}
	if r.cfg.AuthAck {
		size += ackKeyBlockBytes
	}
	r.dcf.Send(mac.Broadcast, &cp, size, nil)
	if !r.cfg.UseAck {
		return
	}
	pd, ok := r.pending[p.PktID]
	if !ok {
		pd = &pendingTx{}
		r.pending[p.PktID] = pd
	}
	pd.pkt = p
	if pd.timer != nil {
		pd.timer.Cancel()
	}
	base := float64(r.cfg.AckTimeout)
	backoff := r.cfg.AckBackoff
	if backoff < 1 {
		backoff = 1
	}
	for i := 0; i < pd.retries; i++ {
		base *= backoff
	}
	to := time.Duration(base * (1 + 0.5*r.rng.Float64()))
	pd.timer = r.eng.Schedule(to, func() { r.onAckTimeout(p.PktID) })
}

// onAckTimeout retransmits a still-unacknowledged packet, re-choosing the
// next hop against the current ANT (the old neighbor may be gone).
func (r *Router) onAckTimeout(id uint64) {
	pd, ok := r.pending[id]
	if !ok {
		return
	}
	pd.timer = nil
	if pd.retries >= r.cfg.MaxRetransmits {
		delete(r.pending, id)
		r.stats.RetryDrops++
		if pd.pkt.Geocast {
			r.col.Drop("net-retry-exhausted")
		} else {
			r.col.DropPacket(id, "net-retry-exhausted")
		}
		return
	}
	pd.retries++
	r.stats.Retransmits++
	r.tracef("rtx", "pkt %d retry %d", id, pd.retries)
	if r.trust != nil && !pd.pkt.N.IsLastHop() {
		// An unanswered timeout is negative forwarding evidence against
		// the committed relay.
		r.trust.Record(string(pd.pkt.N[:]), false, r.eng.Now())
	}
	p := pd.pkt
	now := r.eng.Now()
	// Early retries keep the same committed relay: a lost ACK and a lost
	// DATA frame are indistinguishable, and switching relays while the
	// first one may already hold the packet forks duplicate packet trees.
	// The relay-side duplicate quench makes same-relay retries free.
	// After repeated silence the relay has likely moved on; re-choose,
	// excluding it (the ANT analog of GPSR's MAC-feedback eviction).
	if pd.retries > 3 && !p.N.IsLastHop() {
		if pd.tried == nil {
			pd.tried = make(map[anoncrypto.Pseudonym]bool)
		}
		pd.tried[p.N] = true
		e, ok := r.chooseNextHop(p.DstLoc, now, pd.tried)
		switch {
		case ok:
			p.N = e.N
		case p.Geocast:
			// Nobody left to relay through: serve the geocast here.
			delete(r.pending, id)
			r.acceptGeocast(p)
			return
		case r.inLastHopRegion(p.DstLoc):
			p.N = anoncrypto.LastHop
		default:
			delete(r.pending, id)
			r.stats.DeadEnds++
			r.col.DropPacket(id, "dead-end")
			return
		}
	}
	r.transmit(p)
}

// ackReceived settles a pending packet.
func (r *Router) ackReceived(id uint64, implicit bool) {
	pd, ok := r.pending[id]
	if !ok {
		return
	}
	if pd.timer != nil {
		pd.timer.Cancel()
	}
	delete(r.pending, id)
	if implicit {
		r.stats.ImplicitAcks++
	} else {
		r.stats.ExplicitAcks++
	}
	if r.trust != nil && !pd.pkt.N.IsLastHop() {
		// The relay produced forwarding evidence (genuine or — for a
		// spoofed ack the victim cannot distinguish — laundered).
		r.trust.Record(string(pd.pkt.N[:]), true, r.eng.Now())
	}
}

// sendAck broadcasts an explicit network-layer acknowledgment,
// authenticated under the packet's sealed MAC key when AuthAck is armed.
func (r *Router) sendAck(id, key uint64) {
	r.stats.ExplicitAcks++
	a := &Ack{PktID: id}
	if r.cfg.AuthAck && key != 0 {
		a.Auth = anoncrypto.AckMAC64(key, id)
	}
	r.dcf.Send(mac.Broadcast, a, r.ackSize(), nil)
}

// onDeliver is the MAC upper-layer callback.
func (r *Router) onDeliver(_ mac.Addr, payload any, _ int) {
	switch m := payload.(type) {
	case neighbor.Hello:
		if r.cfg.AuthVerifier != nil {
			// Unauthenticated hellos are spoofing attempts in
			// authenticated mode: reject (§3.1.2's whole point).
			r.stats.HellosRejected++
			return
		}
		r.onHello(m)
	case *neighbor.AuthHello:
		if r.cfg.AuthVerifier == nil {
			return // not configured to verify; ignore rather than trust
		}
		if _, err := r.cfg.AuthVerifier.Verify(m); err != nil {
			r.stats.HellosRejected++
			return
		}
		r.onHello(m.Hello)
	case *Ack:
		if m.Spoofed {
			r.stats.SpoofAcksHeard++
		}
		if pd, waiting := r.pending[m.PktID]; waiting && r.cfg.AuthAck && pd.pkt.AckKey != 0 {
			if m.Auth != anoncrypto.AckMAC64(pd.pkt.AckKey, m.PktID) {
				// MAC failure: reject without settling the ARQ — the
				// retransmission timer keeps running. Both arms behave
				// identically; only the accounting distinguishes forgeries
				// (attributable bad-mac) from genuine cross-tree overhears.
				if m.Spoofed {
					r.stats.AuthAcksBadMAC++
					r.col.Drop("ack-bad-mac")
				} else {
					r.stats.AuthAcksForeign++
					r.col.Drop("ack-foreign-mac")
				}
				return
			}
			r.stats.AuthAcksVerified++
		}
		if m.Spoofed {
			// Omniscient accounting only: an unauthenticated (or
			// MAC-passing) forged ack settles below exactly like a real
			// one. The audit reconciles the damage afterward.
			if _, waiting := r.pending[m.PktID]; waiting {
				if r.spoofSettled == nil {
					r.spoofSettled = make(map[uint64]bool)
				}
				r.spoofSettled[m.PktID] = true
				r.stats.SpoofSettles++
			}
		}
		r.ackReceived(m.PktID, false)
	case *Packet:
		r.onPacket(m)
	}
}

// onHello feeds the ANT, charging the (modeled) ring-verification delay
// in authenticated mode.
func (r *Router) onHello(h neighbor.Hello) {
	if h.Junk {
		r.stats.JunkHellosHeard++
	}
	if r.cfg.HelloVerifyDelay > 0 {
		// Closure only on the deferred path: building it unconditionally
		// costs one heap allocation per hello delivery.
		r.eng.Schedule(r.cfg.HelloVerifyDelay, func() { r.admitHello(h) })
		return
	}
	r.admitHello(h)
}

// admitHello runs the escrow-tag gate and the trust plausibility gate
// (when armed) and inserts the hello into the ANT.
func (r *Router) admitHello(h neighbor.Hello) {
	now := r.eng.Now()
	if r.cfg.Revocation != nil && !r.cfg.Revocation.Registered(string(h.N[:])) {
		// Modeled escrow-tag verification: every legitimate pseudonym was
		// escrowed at rotation, so one with no CA-blessed tag on file is a
		// forgery (the flood attack's nonce pseudonyms). The registry
		// lookup stands in for verifying the tag's CA signature — no
		// branch on the omniscient Junk flag.
		r.stats.TagRejects++
		return
	}
	if r.trust != nil && !r.trust.CheckBeacon(string(h.N[:]), h.Loc, r.pos(), now) {
		// Implausible advertised position: quarantine the pseudonym and
		// keep the claim out of the neighbor table.
		r.stats.BeaconsQuarantined++
		return
	}
	r.ant.Update(h.N, h.Loc, now)
}

// onPacket implements the receive side of Algorithm 3.2.
func (r *Router) onPacket(p *Packet) {
	// Overhearing the next hop moving the packet onward is the
	// piggybacked acknowledgment.
	if r.cfg.UseAck && r.cfg.PiggybackAck {
		if _, waiting := r.pending[p.PktID]; waiting {
			r.ackReceived(p.PktID, true)
		}
	}
	switch {
	case r.mem.Owns(p.N):
		r.onCommitted(p)
	case p.N.IsLastHop():
		r.onLastHopBroadcast(p)
	default:
		// Not for us. An armed ack-spoofer forges an acknowledgment for
		// the overheard packet instead of discarding it: the previous
		// hop's ARQ settles for a packet whose committed relay may never
		// have received it. The forger never held the sealed AckKey (it
		// is ciphertext to bystanders), so under AuthAck its Auth field
		// stays zero and the victim's MAC check rejects it.
		if r.ackSpoof != nil && r.ackSpoof() {
			r.stats.SpoofAcksSent++
			r.dcf.Send(mac.Broadcast, &Ack{PktID: p.PktID, Spoofed: true}, r.ackSize(), nil)
		}
	}
}

// onCommitted handles a packet naming one of our pseudonyms.
func (r *Router) onCommitted(p *Packet) {
	if r.relayDrop > 0 && (r.relayDrop >= 1 || r.rng.Float64() < r.relayDrop) {
		// Adversarial relay: eat the packet silently — no forward, no
		// ACK, no duplicate quench. Every retransmission re-rolls a
		// greyhole; a blackhole eats them all until the previous hop's
		// ARQ re-chooses a relay (excluding our pseudonym).
		r.stats.AdversaryDrops++
		r.col.Drop("adversary-drop")
		return
	}
	if r.handled[p.PktID] {
		// The previous hop missed our acknowledgment and retransmitted:
		// quench it without forwarding a duplicate.
		r.stats.DuplicatesQuench++
		if r.cfg.UseAck {
			r.sendAck(p.PktID, p.AckKey)
		}
		return
	}
	r.handled[p.PktID] = true
	q := *p
	q.Hops++
	if q.Geocast {
		// No trapdoor on geocasts; either relay onward or serve here
		// (forwardDecision terminates at the local maximum, which also
		// acknowledges the previous hop).
		if r.cfg.UseAck && !r.cfg.PiggybackAck {
			r.sendAck(q.PktID, q.AckKey)
		}
		r.forwardDecision(q)
		return
	}
	if r.inLastHopRegion(q.DstLoc) {
		// Only nodes in the last-hop region pay the trapdoor cost (§3.2).
		r.stats.TrapdoorTries++
		r.eng.Schedule(r.cfg.DecryptDelay, func() {
			if r.scheme.Open(q.Trapdoor) {
				r.stats.TrapdoorOpens++
				r.accept(q)
				return
			}
			r.afterCommitForward(q)
		})
		return
	}
	r.afterCommitForward(q)
}

// afterCommitForward continues a committed forwarder's duty after any
// trapdoor attempt failed (or was skipped outside the last-hop region).
func (r *Router) afterCommitForward(q Packet) {
	if !r.cfg.UseAck || !r.cfg.PiggybackAck {
		if r.cfg.UseAck {
			r.sendAck(q.PktID, q.AckKey)
		}
		r.forwardDecision(q)
		return
	}
	// Piggyback mode: our own onward broadcast acknowledges the previous
	// hop — unless we stop, in which case forwardDecision drops and the
	// previous hop would retransmit pointlessly; send the explicit ACK
	// only on the stop path.
	now := r.eng.Now()
	_, canForward := r.chooseNextHop(q.DstLoc, now, nil)
	if !canForward && !r.inLastHopRegion(q.DstLoc) {
		r.sendAck(q.PktID, q.AckKey)
	}
	r.forwardDecision(q)
}

// onLastHopBroadcast handles the n = 0 last forwarding attempt: everyone
// in range tries the trapdoor; only the destination accepts.
func (r *Router) onLastHopBroadcast(p *Packet) {
	if r.handled[p.PktID] {
		return
	}
	q := *p
	q.Hops++
	r.stats.TrapdoorTries++
	r.eng.Schedule(r.cfg.DecryptDelay, func() {
		if r.handled[q.PktID] {
			return // a retransmission raced our decryption
		}
		if r.scheme.Open(q.Trapdoor) {
			r.stats.TrapdoorOpens++
			r.handled[q.PktID] = true
			r.accept(q)
		}
		// Not the destination: discard, no more forwarding required.
	})
}

// accept delivers a packet to the application and acknowledges it.
func (r *Router) accept(q Packet) {
	if r.cfg.UseAck {
		r.sendAck(q.PktID, q.AckKey)
	}
	if r.delivered[q.PktID] {
		return
	}
	r.delivered[q.PktID] = true
	r.tracef("accept", "pkt %d after %d hops", q.PktID, q.Hops)
	r.col.PacketDelivered(q.PktID, r.eng.Now(), q.Hops)
	if r.deliver != nil {
		r.deliver(q.PktID, q.Hops)
	}
}
