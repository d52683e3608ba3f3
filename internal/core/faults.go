package core

import (
	"fmt"
	"strings"

	"anongeo/internal/fault"
	"anongeo/internal/geo"
	"anongeo/internal/routing/agfw"
	"anongeo/internal/routing/gpsr"
)

// compiledFaultPlan is the effective plan for this config: the canned
// entries the legacy LossRate/ChurnFailures knobs compile to, followed
// by the explicit cfg.Faults entries. Legacy entries come first so a
// legacy-only config draws its streams in the exact order the pre-plan
// wiring did (the parity guarantee).
func (c Config) compiledFaultPlan() *fault.Plan {
	return fault.Merge(fault.FromLegacy(c.LossRate, c.ChurnFailures, c.ChurnDownFor), c.Faults)
}

// nodeActuator adapts one core.Node to the fault.Actuator surface. The
// router controls (relay drop, mute, forged beacons, junk hellos) are
// the node's own stack's, whichever protocol it runs.
type nodeActuator struct {
	router
	n *Node
}

func (a nodeActuator) SetDown(down bool) { a.n.MAC.SetDown(down) }

func (a nodeActuator) SetBeaconNoise(f func(geo.Point) geo.Point) {
	a.n.posNoise = f
	a.router.SetBeaconNoise(f)
}

func (a nodeActuator) SetAckSpoof(pred func() bool) {
	// GPSR has no network-layer acknowledgment to forge; the attack is
	// a no-op there by design.
	if a.n.AGFW != nil {
		a.n.AGFW.SetAckSpoof(pred)
	}
}

// installFaults wires the config's effective fault plan into a freshly
// built network (no-op for fault-free configs).
func (n *Network) installFaults() error {
	plan := n.Cfg.compiledFaultPlan()
	if plan == nil {
		return nil
	}
	acts := make([]fault.Actuator, len(n.Nodes))
	for i, node := range n.Nodes {
		acts[i] = nodeActuator{node.router, node}
	}
	return fault.Install(plan, fault.Env{
		Eng:      n.Eng,
		Channel:  n.Channel,
		Nodes:    acts,
		Area:     n.Cfg.Area,
		Warmup:   n.Cfg.Warmup,
		Duration: n.Cfg.Duration,
	})
}

// Audit checks the network's end-of-run conservation invariants and
// wedge conditions, returning an error listing every violation. It runs
// after every core.Run, so any scenario — including every fault plan —
// that loses track of a packet or strands an unarmed ACK timer fails
// loudly instead of silently skewing results.
//
// Invariants:
//   - metrics: Sent == Delivered + DroppedPackets + InFlight, with every
//     delivered/dropped id actually originated (Collector.AuditViolations).
//   - radio: every frozen receiver slot resolved exactly once —
//     Deliveries + Collisions + PendingArrivals == RxFrozen — and the
//     categorized fading/jam losses never exceed total losses.
//   - wedge: no AGFW router holds a pending ACK entry without an armed
//     retransmit timer (a packet nobody will ever retry or drop).
//   - attacks: spoofed acks, junk hellos, and forged beacons heard
//     anywhere must have been sent somewhere; no node settles more
//     pending entries on forged acks than forged acks it heard; and
//     with the trust defense off, no quarantine or watchdog activity
//     exists to skew the defense-off parity baselines.
//
// Before checking, the spoofed-ACK wedge detector reconciles the
// attack's silent damage: every packet a forged acknowledgment stranded
// (the victim's ARQ settled, nobody forwarded, no terminal record)
// becomes an attributable "spoofed-ack" drop, so conservation stays
// green under the ack-spoof attack instead of leaking in-flight counts.
func (n *Network) Audit() error {
	n.reconcileSpoofedAcks()
	v := n.Collector.AuditViolations()
	cs := n.Channel.Stats()
	pending := n.Channel.PendingArrivals()
	if cs.Deliveries+cs.Collisions+pending != cs.RxFrozen {
		v = append(v, fmt.Sprintf("radio: deliveries=%d + collisions=%d + pending=%d != frozen-receivers=%d",
			cs.Deliveries, cs.Collisions, pending, cs.RxFrozen))
	}
	if cs.FadingLosses+cs.JamLosses > cs.Collisions {
		v = append(v, fmt.Sprintf("radio: fading=%d + jam=%d losses exceed total losses %d",
			cs.FadingLosses, cs.JamLosses, cs.Collisions))
	}
	var ag agfw.Stats
	var gp gpsr.Stats
	for _, node := range n.Nodes {
		if node.GPSR != nil {
			gp = addGPSRStats(gp, node.GPSR.Stats())
		}
		if node.AGFW == nil {
			continue
		}
		if u := node.AGFW.UnarmedPending(); u > 0 {
			v = append(v, fmt.Sprintf("wedge: node %d holds %d pending AGFW packets with no armed ACK timer", node.Index, u))
		}
		s := node.AGFW.Stats()
		if s.SpoofSettles > s.SpoofAcksHeard {
			v = append(v, fmt.Sprintf("attack: node %d settled %d pending packets on spoofed acks but heard only %d", node.Index, s.SpoofSettles, s.SpoofAcksHeard))
		}
		if s.AuthAcksBadMAC > s.SpoofAcksHeard {
			v = append(v, fmt.Sprintf("authack: node %d rejected %d bad-mac acks but heard only %d spoofed", node.Index, s.AuthAcksBadMAC, s.SpoofAcksHeard))
		}
		ag = addAGFWStats(ag, s)
	}
	if ag.SpoofAcksHeard > 0 && ag.SpoofAcksSent == 0 {
		v = append(v, fmt.Sprintf("attack: %d spoofed acks heard but none sent", ag.SpoofAcksHeard))
	}
	if ag.AuthAcksBadMAC > 0 && ag.SpoofAcksSent == 0 {
		// Every attributable bad-mac drop must trace to a spoof entry:
		// honest acks carry valid MACs, so only forgeries can fail this way.
		v = append(v, fmt.Sprintf("authack: %d bad-mac rejections with no spoofed acks sent", ag.AuthAcksBadMAC))
	}
	if !n.Cfg.AuthAck {
		if e := ag.AuthAcksVerified + ag.AuthAcksBadMAC + ag.AuthAcksForeign; e > 0 {
			v = append(v, fmt.Sprintf("authack: %d MAC events with AuthAck off", e))
		}
	}
	if n.Revocation == nil {
		if ag.TagRejects > 0 {
			v = append(v, fmt.Sprintf("revocation: %d escrow-tag rejects with Revocation off", ag.TagRejects))
		}
	} else {
		rs := n.Revocation.Stats()
		if rs.Openings*n.Revocation.Config().Threshold > rs.Accusations {
			v = append(v, fmt.Sprintf("revocation: %d openings need %d accusations each but only %d filed",
				rs.Openings, n.Revocation.Config().Threshold, rs.Accusations))
		}
		if rs.Inherits > 0 && rs.Openings == 0 {
			v = append(v, fmt.Sprintf("revocation: %d trust inherits with no quorum openings", rs.Inherits))
		}
		if ag.TagRejects > ag.JunkHellosHeard {
			// Legitimate pseudonyms are escrowed before their hello is
			// broadcast, so only forged (flood) pseudonyms can fail the gate.
			v = append(v, fmt.Sprintf("revocation: %d tag rejects exceed %d junk hellos heard", ag.TagRejects, ag.JunkHellosHeard))
		}
	}
	if ag.JunkHellosHeard > 0 && ag.JunkHellosSent == 0 {
		v = append(v, fmt.Sprintf("attack: %d junk hellos heard but none sent (AGFW)", ag.JunkHellosHeard))
	}
	if gp.JunkHellosHeard > 0 && gp.JunkHellosSent == 0 {
		v = append(v, fmt.Sprintf("attack: %d junk hellos heard but none sent (GPSR)", gp.JunkHellosHeard))
	}
	if !n.Cfg.TrustRelay {
		if q := ag.TrustQuarantines + gp.TrustQuarantines + ag.BeaconsQuarantined + gp.BeaconsQuarantined; q > 0 {
			v = append(v, fmt.Sprintf("defense: %d quarantine events with TrustRelay off", q))
		}
		if w := gp.WatchdogConfirms + gp.WatchdogTimeouts; w > 0 {
			v = append(v, fmt.Sprintf("defense: %d watchdog events with TrustRelay off", w))
		}
	}
	if len(v) > 0 {
		return fmt.Errorf("core: audit: %s", strings.Join(v, "; "))
	}
	return nil
}

// reconcileSpoofedAcks converts every still-unresolved packet whose
// pending-ARQ entry a forged acknowledgment retired into an attributable
// "spoofed-ack" terminal drop. Deterministic (nodes in index order, ids
// in ascending order) and idempotent (a reconciled id is no longer
// unresolved); packets that were delivered anyway — the spoof raced a
// genuine forward — are left alone.
func (n *Network) reconcileSpoofedAcks() {
	for _, node := range n.Nodes {
		if node.AGFW == nil {
			continue
		}
		for _, id := range node.AGFW.SpoofSettledIDs() {
			if n.Collector.Unresolved(id) {
				n.Collector.DropPacket(id, "spoofed-ack")
			}
		}
	}
}
