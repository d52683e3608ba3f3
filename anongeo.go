// Package anongeo is a Go implementation and simulation testbed for
// "Anonymizing Geographic Ad Hoc Routing for Preserving Location
// Privacy" (Zhou & Yow): an anonymous geographic routing scheme for
// mobile ad hoc networks built from three components —
//
//   - ANT, the anonymous neighbor table (per-hello pseudonyms, with a
//     ring-signature-authenticated variant),
//   - AGFW, anonymous greedy forwarding (trapdoor-addressed destinations,
//     broadcast-only link layer, optional network-layer ACK), and
//   - ALS, the anonymous location service on a DLM-style grid.
//
// The package bundles everything needed to reproduce the paper's
// evaluation: a discrete-event wireless simulator (802.11 DCF MAC,
// unit-disk radio with NS-2-style carrier sensing, random-waypoint
// mobility), a GPSR-Greedy baseline, CBR traffic, metrics, and a passive
// adversary for quantifying the privacy properties.
//
// Quick start:
//
//	cfg := anongeo.DefaultConfig()          // the paper's §5.1 scenario
//	cfg.Protocol = anongeo.ProtoAGFW
//	res, err := anongeo.Run(cfg)
//	fmt.Println(res.Summary)                // delivery fraction, latency
//
// See the examples/ directory and cmd/figures for the full evaluation.
package anongeo

import (
	"io"

	"anongeo/internal/anoncrypto"
	"anongeo/internal/core"
	"anongeo/internal/exp"
	"anongeo/internal/fault"
	"anongeo/internal/neighbor"
)

// Identity is a node's real, globally unique name — what the scheme
// keeps unlinkable from locations.
type Identity = anoncrypto.Identity

// Core scenario types, re-exported from the engine room.
type (
	// Config describes one simulation scenario.
	Config = core.Config
	// Protocol selects the routing stack under test.
	Protocol = core.Protocol
	// Result aggregates one run's measurements.
	Result = core.Result
	// Network is a fully assembled scenario for fine-grained control.
	Network = core.Network
	// Node is one station with its protocol stack.
	Node = core.Node
	// DensityPoint is one cell of a Figure 1-style sweep.
	DensityPoint = core.DensityPoint
	// Policy selects AGFW's next-hop strategy.
	Policy = neighbor.Policy
	// LocationServiceMode selects how destinations are resolved.
	LocationServiceMode = core.LocationServiceMode
	// LSStats aggregates the in-band location-service counters.
	LSStats = core.LSStats
)

// Location resolution modes: the paper's perfect oracle, the in-band
// anonymous location service (§3.3), or the cleartext DLM baseline.
const (
	LSOracle   = core.LSOracle
	LSALS      = core.LSALS
	LSPlainDLM = core.LSPlainDLM
)

// Protocols under evaluation (the three curves of Figure 1).
const (
	ProtoGPSR      = core.ProtoGPSR
	ProtoAGFW      = core.ProtoAGFW
	ProtoAGFWNoAck = core.ProtoAGFWNoAck
)

// AGFW next-hop selection policies (§3.1.1's freshness discussion).
const (
	PolicyClosest  = neighbor.PolicyClosest
	PolicyFreshest = neighbor.PolicyFreshest
	PolicyWeighted = neighbor.PolicyWeighted
)

// DefaultConfig returns the paper's §5.1 scenario: 50 nodes in
// 1500 m × 300 m, 250 m range, random waypoint (≤20 m/s, 60 s pause),
// 30 CBR flows from 20 senders, 900 s.
func DefaultConfig() Config { return core.DefaultConfig() }

// Run builds and executes one scenario.
func Run(cfg Config) (Result, error) { return core.Run(cfg) }

// Build assembles a network without running it, for callers that want to
// inject their own events or inspect nodes mid-run.
func Build(cfg Config) (*Network, error) { return core.Build(cfg) }

// NodeID formats the canonical identity of node index i ("n<i>").
func NodeID(i int) Identity { return core.NodeID(i) }

// Experiment orchestration (internal/exp): sweeps execute on a bounded
// worker pool with an optional content-addressed result cache and run
// telemetry. Parallel execution is bit-for-bit identical to serial.
type (
	// SweepOptions tunes repeats, parallelism, caching, retries, and
	// telemetry for DensitySweepOpts.
	SweepOptions = core.SweepOptions
	// ExpHook receives orchestrator telemetry events.
	ExpHook = exp.Hook
	// ExpEvent is one telemetry record.
	ExpEvent = exp.Event
)

// DefaultCacheDir is the conventional on-disk result-cache location
// (".expcache", git-ignored).
const DefaultCacheDir = exp.DefaultCacheDir

// DensitySweepOpts runs cfg across node counts and protocols, the
// Figure 1 grid, with full execution control: repeats averaged per
// cell, parallel workers, on-disk result caching, per-cell retries, and
// progress telemetry.
func DensitySweepOpts(base Config, nodeCounts []int, protocols []Protocol, opt SweepOptions) ([]DensityPoint, error) {
	return core.DensitySweepOpts(base, nodeCounts, protocols, opt)
}

// NewProgressHook returns the standard human-readable progress
// reporter (one line per completed cell) writing to w.
func NewProgressHook(w io.Writer) ExpHook { return exp.NewProgress(w) }

// NewJSONLHook returns the machine-readable JSON-lines telemetry
// emitter writing to w.
func NewJSONLHook(w io.Writer) ExpHook { return exp.NewJSONL(w) }

// CacheableConfig reports whether a config's result may be served from
// the experiment cache (configs with trace logs or sniffers always
// execute).
func CacheableConfig(cfg Config) bool { return core.Cacheable(cfg) }

// Fault injection (internal/fault): declarative, seeded fault plans —
// bursty loss, adversarial relays, jamming, position error, outages —
// attached via Config.Faults. Every core.Run ends with a conservation
// audit and wedge detector regardless of plan.
type (
	// FaultPlan is a declarative fault timeline for Config.Faults.
	FaultPlan = fault.Plan
	// FaultEntry is one fault in a plan.
	FaultEntry = fault.Entry
	// FaultKind discriminates fault entry types.
	FaultKind = fault.Kind
)

// Fault kinds a plan entry can carry.
const (
	FaultBernoulliLoss  = fault.KindBernoulliLoss
	FaultGilbertElliott = fault.KindGilbertElliott
	FaultJam            = fault.KindJam
	FaultBlackhole      = fault.KindBlackhole
	FaultGreyhole       = fault.KindGreyhole
	FaultMute           = fault.KindMute
	FaultPositionError  = fault.KindPositionError
	FaultOutage         = fault.KindOutage
	FaultChurn          = fault.KindChurn
	// Active-adversary kinds: routing-layer attacks rather than channel
	// or liveness faults. Oppose them with Config.TrustRelay.
	FaultBogusBeacon = fault.KindBogusBeacon
	FaultAckSpoof    = fault.KindAckSpoof
	FaultFlood       = fault.KindFlood
)

// TrustConfig parameterizes the trust-aware relaying defense armed by
// Config.TrustRelay (override via Config.TrustOverride).
type TrustConfig = neighbor.TrustConfig

// DefaultTrustConfig returns the defense parameters used in the
// EXPERIMENTS.md E12 degradation-curve evaluation.
func DefaultTrustConfig() TrustConfig { return neighbor.DefaultTrustConfig() }

// RevocationConfig parameterizes the t-of-n pseudonym escrow armed by
// Config.Revocation (requires Config.TrustRelay): quorum openings link
// a misbehaving pseudonym chain so trust standings survive rotation.
type RevocationConfig = neighbor.RevocationConfig

// RevocationStats are one run's escrow-authority audit counters
// (Result.Revocation).
type RevocationStats = neighbor.RevocationStats

// DefaultRevocationConfig returns the escrow parameters used in the
// EXPERIMENTS.md E14 evaluation: a 3-of-5 authority set revoking opened
// chains for the rest of the run.
func DefaultRevocationConfig() RevocationConfig { return neighbor.DefaultRevocationConfig() }

// PaperNodeCounts is Figure 1's density axis.
var PaperNodeCounts = core.PaperNodeCounts

// WriteSweepTable renders sweep rows as an aligned text table.
func WriteSweepTable(w io.Writer, points []DensityPoint) error {
	return core.WriteSweepTable(w, points)
}

// WriteSweepCSV renders sweep rows as CSV for plotting.
func WriteSweepCSV(w io.Writer, points []DensityPoint) error {
	return core.WriteSweepCSV(w, points)
}
