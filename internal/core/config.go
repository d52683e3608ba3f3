// Package core assembles complete simulated networks — engine, channel,
// mobility, MAC, routing protocol, traffic, metrics, adversary — and runs
// the scenarios the paper evaluates. It is the programmatic equivalent of
// the NS-2 Tcl scripts behind Figure 1, and the main entry point the
// public anongeo package re-exports.
package core

import (
	"fmt"
	"time"

	"anongeo/internal/fault"
	"anongeo/internal/geo"
	"anongeo/internal/mac"
	"anongeo/internal/neighbor"
	"anongeo/internal/routing/agfw"
	"anongeo/internal/routing/gpsr"
	"anongeo/internal/trace"
)

// Protocol selects the routing stack for a scenario.
type Protocol int

// Available stacks: the paper's Figure 1 compares the first three.
const (
	// ProtoGPSR is the baseline: greedy forwarding, cleartext beacons,
	// 802.11 unicast with RTS/CTS and MAC-level ARQ.
	ProtoGPSR Protocol = iota + 1
	// ProtoAGFW is the paper's scheme with the network-layer ACK.
	ProtoAGFW
	// ProtoAGFWNoAck is AGFW's "simple form ... with no packet
	// acknowledgment", the third curve in Figure 1(a).
	ProtoAGFWNoAck
)

// String implements fmt.Stringer.
func (p Protocol) String() string {
	switch p {
	case ProtoGPSR:
		return "GPSR-Greedy"
	case ProtoAGFW:
		return "AGFW"
	case ProtoAGFWNoAck:
		return "AGFW-noACK"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// Config describes one scenario. DefaultConfig reproduces §5.1's setup.
type Config struct {
	Seed  int64
	Nodes int
	Area  geo.Rect

	RadioRange float64
	// CSRange is the carrier-sense/interference range; 0 derives the
	// NS-2 WaveLAN default of 2.2 × RadioRange.
	CSRange float64

	// Mobility: random waypoint, or static placement when Static is set.
	Static   bool
	MinSpeed float64
	MaxSpeed float64
	Pause    time.Duration

	// Traffic: CBR flows from a subset of sending nodes.
	Flows          int
	Senders        int
	PacketInterval time.Duration
	PayloadBytes   int

	Duration time.Duration
	// Warmup delays traffic so beacons can populate neighbor tables.
	Warmup time.Duration

	Protocol Protocol
	// Policy selects AGFW's next-hop strategy (ablation A4).
	Policy neighbor.Policy
	// ReachFilter makes AGFW skip next-hop entries that may have drifted
	// out of radio range (advertised distance + maxSpeed·age > range).
	ReachFilter bool
	// Perimeter enables GPSR's recovery mode (the paper's future work).
	Perimeter bool

	// ExposeSenderMAC reproduces the §3.2 misconfiguration: AGFW frames
	// carry real source MAC addresses, enabling the linking attack.
	ExposeSenderMAC bool

	// RealCrypto makes AGFW seal and open genuine RSA-512 trapdoors
	// instead of the modeled stand-in (same simulated delays either way).
	RealCrypto bool

	// AuthHelloK > 0 switches AGFW to authenticated hellos with rings of
	// k decoys: hello bytes and per-hello crypto delays grow accordingly
	// (ablation A1's network-level effect).
	AuthHelloK int

	// LocationService selects how flow sources resolve destination
	// positions: a perfect oracle (the paper's evaluation setting), the
	// in-band anonymous location service (ALS, §3.3), or the in-band
	// cleartext DLM baseline. Zero value means LSOracle.
	LocationService LocationServiceMode
	// LSUpdateInterval is the RLU period (default 10 s).
	LSUpdateInterval time.Duration
	// LSRecordTTL is server record freshness (default 3 update periods).
	LSRecordTTL time.Duration
	// LSQueryTimeout bounds one LREQ round trip (default 1 s); one
	// retry goes to a second replica before the lookup fails.
	LSQueryTimeout time.Duration
	// LSUpdateDistance triggers an update after moving this far
	// (default 150 m); LSUpdateInterval is the stationary backstop.
	LSUpdateDistance float64
	// LSCacheTTL bounds requester-side location reuse (default 10 s) —
	// for fast nodes a cached position goes stale quickly.
	LSCacheTTL time.Duration
	// LSGridSize is the DLM grid cell side (default 300 m).
	LSGridSize float64
	// LSReplicas is the number of home grids per identity (default 2).
	LSReplicas int

	// LossRate adds independent per-delivery frame loss (fading model);
	// 0 disables it. Internally it compiles to a fault.Plan entry.
	LossRate float64
	// ChurnFailures fails that many random nodes during the run (radio
	// down for ChurnDownFor, then back up), exercising route repair.
	// 0 disables churn. Internally it compiles to a fault.Plan entry.
	ChurnFailures int
	// ChurnDownFor is each failed node's outage length (default 30 s).
	ChurnDownFor time.Duration

	// Faults, when non-nil, installs this declarative fault plan —
	// bursty loss, adversarial relays, jamming, position error, outages
	// (see internal/fault). Its entries install after the canned entries
	// the legacy LossRate/ChurnFailures knobs compile to. Omitted from
	// the canonical config JSON when nil so existing experiment cache
	// keys are unchanged.
	Faults *fault.Plan `json:",omitempty"`

	// TrustRelay arms trust-aware relaying in whichever router the
	// scenario runs: per-neighbor forwarding-evidence scores (watchdog
	// overhearing for GPSR, ARQ outcomes for AGFW), position-plausibility
	// quarantine against forged beacons, and trust-weighted next-hop
	// selection. Off (the default) passes the routers a nil trust table,
	// which keeps the undefended results bit-for-bit — the defense-off
	// baseline the chaos degradation curves compare against. omitempty
	// keeps experiment cache keys unchanged for the default.
	TrustRelay bool `json:",omitempty"`
	// TrustOverride, when non-nil, replaces the defense parameters
	// (neighbor.DefaultTrustConfig with MaxSpeed/RadioRange filled from
	// this config). Only meaningful with TrustRelay set.
	TrustOverride *neighbor.TrustConfig `json:",omitempty"`

	// Revocation, when non-nil, arms revocable anonymity for the AGFW
	// protocols: rotated pseudonyms carry escrow tags a t-of-n authority
	// quorum can open, so TrustRelay scores survive rotation (a revoked
	// identity's successor pseudonyms inherit the quarantined standing
	// instead of resetting). Zero-valued fields resolve to
	// neighbor.DefaultRevocationConfig. Requires TrustRelay — revocation
	// without a trust table has no evidence stream to act on. omitempty
	// keeps experiment cache keys unchanged when off.
	Revocation *neighbor.RevocationConfig `json:",omitempty"`

	// AuthAck arms AGFW's per-hop authenticated acknowledgments: each
	// packet carries a MAC key sealed in its trapdoor, acks must carry
	// the matching MAC, and KindAckSpoof forgeries are rejected as
	// attributable bad-mac drops instead of quenching the victim's ARQ.
	// Only valid with ProtoAGFW (the other protocols have no
	// network-layer ack to authenticate). omitempty keeps experiment
	// cache keys unchanged when off.
	AuthAck bool `json:",omitempty"`

	// WithSniffer attaches a global eavesdropper and returns its harvest.
	WithSniffer bool

	// MaxEvents guards against runaway scenarios (0 = default guard).
	MaxEvents uint64

	// Trace, when non-nil, records router-level protocol events.
	Trace *trace.Log

	// MAC overrides; zero value means mac.DefaultParams().
	MAC *mac.Params
	// AGFWOverride, if non-nil, replaces the derived AGFW config.
	AGFWOverride *agfw.Config
	// GPSROverride, if non-nil, replaces the derived GPSR config.
	GPSROverride *gpsr.Config
}

// DefaultConfig is the paper's §5.1 scenario: 50 nodes uniformly placed
// in 1500 m × 300 m, 250 m radio range, random waypoint up to 20 m/s
// with 60 s pause, 30 CBR flows from 20 senders, 900 s of simulated
// time.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		Nodes:          50,
		Area:           geo.NewRect(1500, 300),
		RadioRange:     250,
		MinSpeed:       1,
		MaxSpeed:       20,
		Pause:          60 * time.Second,
		Flows:          30,
		Senders:        20,
		PacketInterval: 500 * time.Millisecond,
		PayloadBytes:   64,
		Duration:       900 * time.Second,
		Warmup:         10 * time.Second,
		Protocol:       ProtoAGFW,
		Policy:         neighbor.PolicyWeighted,
		ReachFilter:    true,
	}
}

// Validate rejects configurations that cannot run. Every error names
// the offending field (as it appears in the JSON encoding) and the
// rejected value, so API clients submitting configs over the wire can
// self-diagnose without reading simulator source.
func (c Config) Validate() error {
	if c.Nodes < 2 {
		return fmt.Errorf("core: Nodes = %d: need at least 2 nodes", c.Nodes)
	}
	if c.RadioRange <= 0 {
		return fmt.Errorf("core: RadioRange = %g: must be positive", c.RadioRange)
	}
	if c.Duration <= 0 {
		return fmt.Errorf("core: Duration = %v: must be positive", c.Duration)
	}
	if c.Warmup >= c.Duration {
		return fmt.Errorf("core: Warmup = %v: must be shorter than Duration %v", c.Warmup, c.Duration)
	}
	if c.Senders > c.Nodes {
		return fmt.Errorf("core: Senders = %d: exceeds Nodes %d", c.Senders, c.Nodes)
	}
	if c.Flows <= 0 {
		return fmt.Errorf("core: Flows = %d: must be positive", c.Flows)
	}
	if c.Senders <= 0 {
		return fmt.Errorf("core: Senders = %d: must be positive", c.Senders)
	}
	if c.PacketInterval <= 0 {
		return fmt.Errorf("core: PacketInterval = %v: must be positive", c.PacketInterval)
	}
	switch c.Protocol {
	case ProtoGPSR, ProtoAGFW, ProtoAGFWNoAck:
	default:
		return fmt.Errorf("core: Protocol = %d: unknown (want %d=GPSR, %d=AGFW, %d=AGFW-noACK)",
			int(c.Protocol), int(ProtoGPSR), int(ProtoAGFW), int(ProtoAGFWNoAck))
	}
	if c.LossRate < 0 || c.LossRate >= 1 {
		return fmt.Errorf("core: LossRate = %g: outside [0,1)", c.LossRate)
	}
	if c.ChurnDownFor < 0 {
		return fmt.Errorf("core: ChurnDownFor = %v: must not be negative", c.ChurnDownFor)
	}
	if c.ChurnFailures < 0 || c.ChurnFailures > c.Nodes {
		return fmt.Errorf("core: ChurnFailures = %d: outside [0,%d]", c.ChurnFailures, c.Nodes)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(c.Nodes); err != nil {
			return fmt.Errorf("core: Faults: %w", err)
		}
	}
	if c.TrustOverride != nil {
		if !c.TrustRelay {
			return fmt.Errorf("core: TrustOverride: set without TrustRelay")
		}
		t := c.TrustOverride
		if t.Alpha <= 0 || t.Alpha > 1 {
			return fmt.Errorf("core: TrustOverride.Alpha = %g: outside (0,1]", t.Alpha)
		}
		if t.InitScore < 0 || t.InitScore > 1 {
			return fmt.Errorf("core: TrustOverride.InitScore = %g: outside [0,1]", t.InitScore)
		}
		if t.MinScore < 0 || t.MinScore > 1 {
			return fmt.Errorf("core: TrustOverride.MinScore = %g: outside [0,1]", t.MinScore)
		}
		if t.QuarantineFor < 0 {
			return fmt.Errorf("core: TrustOverride.QuarantineFor = %v: must not be negative", t.QuarantineFor)
		}
		if t.EvidenceTimeout < 0 {
			return fmt.Errorf("core: TrustOverride.EvidenceTimeout = %v: must not be negative", t.EvidenceTimeout)
		}
	}
	if c.AuthAck {
		switch c.Protocol {
		case ProtoGPSR:
			return fmt.Errorf("core: AuthAck = true: GPSR has no network-layer acknowledgment to authenticate (use ProtoAGFW)")
		case ProtoAGFWNoAck:
			return fmt.Errorf("core: AuthAck = true: AGFW-noACK disables the acknowledgment AuthAck protects (use ProtoAGFW)")
		}
	}
	if c.Revocation != nil {
		if c.Protocol == ProtoGPSR {
			return fmt.Errorf("core: Revocation: GPSR identities never rotate, so there is no pseudonym chain to revoke (use an AGFW protocol)")
		}
		if !c.TrustRelay {
			return fmt.Errorf("core: Revocation: set without TrustRelay (revocation needs the trust table's evidence stream)")
		}
		if err := c.revocationConfig().Validate(); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	return nil
}

// revocationConfig resolves the effective escrow parameters: the user's
// values with zero fields filled from neighbor.DefaultRevocationConfig
// (RevokeFor stays zero — "rest of the run" is the default). Nil when
// revocation is off.
func (c Config) revocationConfig() *neighbor.RevocationConfig {
	if c.Revocation == nil {
		return nil
	}
	rc := *c.Revocation
	def := neighbor.DefaultRevocationConfig()
	if rc.Threshold == 0 {
		rc.Threshold = def.Threshold
	}
	if rc.Authorities == 0 {
		rc.Authorities = def.Authorities
	}
	if rc.TagTTL == 0 {
		rc.TagTTL = def.TagTTL
	}
	return &rc
}

// trustConfig resolves the effective defense parameters: the override
// when set, else the defaults, with MaxSpeed/RadioRange filled from the
// scenario so the plausibility checks match the physics. Nil when the
// defense is off.
func (c Config) trustConfig() *neighbor.TrustConfig {
	if !c.TrustRelay {
		return nil
	}
	tc := neighbor.DefaultTrustConfig()
	if c.TrustOverride != nil {
		tc = *c.TrustOverride
	}
	if tc.MaxSpeed == 0 {
		tc.MaxSpeed = c.MaxSpeed
	}
	if tc.RadioRange == 0 {
		tc.RadioRange = c.RadioRange
	}
	return &tc
}
