// Command chaos sweeps a fault axis and prints the degradation curves
// of all three protocols side by side — the robustness companion to
// cmd/figures. The interesting comparison is AGFW's network-layer ACK:
// the paper adds it (§3.2) because broadcast forwarding forfeits
// 802.11's per-frame ARQ, and these curves show what it buys back under
// adversarial relays and bursty channels:
//
//	chaos -axis greyhole -values 0,0.1,0.2,0.3
//	chaos -axis blackhole -values 0,0.1,0.2
//	chaos -axis burst -values 0,0.3,0.6,0.9
//	chaos -axis sigma -values 0,10,25,50
//	chaos -axis bogus -values 0,0.1,0.2,0.3 -defense all
//	chaos -axis ackspoof -values 0,0.1,0.2 -defense authack
//	chaos -axis flood -values 0,0.1,0.2 -rate 40 -defense revoke
//
// Axes: greyhole/blackhole turn that fraction of nodes adversarial
// (greyholes drop relayed data with p=0.5, blackholes always); burst
// drives the bad-state loss probability of a Gilbert–Elliott channel;
// sigma adds Gaussian GPS error (meters) to every advertised position.
// The active-adversary axes take an attacker fraction: bogus makes that
// fraction forge lured beacon positions and sinkhole captured traffic,
// ackspoof makes them forge network-layer acknowledgments for overheard
// AGFW data, flood makes each barrage -rate junk hellos per second.
//
// -defense selects the defense column(s) of the CSV: off (the parity
// baseline), on (trust-aware relaying, EXPERIMENTS.md E12), revoke
// (trust + t-of-n pseudonym escrow, so standings survive rotation),
// authack (per-hop MAC-authenticated acks sealed in the trapdoor), or
// the bundles both (off+on) and all (every stack, E14's comparison).
// Escrow needs rotating pseudonyms and authenticated acks need the
// network-layer ACK, so the revoke column covers the AGFW stacks only
// and the authack column AGFW proper only — rows for incompatible
// protocols are omitted rather than silently downgraded.
//
// Cells run on the internal/exp orchestrator (-parallel, -cache,
// -progress, -retries as in cmd/sweep); protocols share seeds per cell
// so they face identical placements, flows, and fault draws. Chaos
// stresses the routing layer only — the LBS query-serving workload
// (internal/lbs) has its own sweeper, cmd/lbsbench.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"anongeo"
	"anongeo/internal/core"
	"anongeo/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	var (
		axis     = fs.String("axis", "greyhole", "fault axis: greyhole | blackhole | burst | sigma | bogus | ackspoof | flood (the LBS query-serving workload has its own sweeper, cmd/lbsbench)")
		values   = fs.String("values", "0,0.1,0.2,0.3", "comma-separated axis values")
		nodes    = fs.Int("nodes", 50, "node count")
		duration = fs.Duration("duration", 300*time.Second, "simulated time per cell")
		repeats  = fs.Int("repeats", 1, "seeds per cell (averaged)")
		seed     = fs.Int64("seed", 1, "base seed")
		defense  = fs.String("defense", "off", "defense column(s): off | on | revoke | authack | both | all")
		rate     = fs.Float64("rate", 40, "flood axis: junk hellos per attacker per second")
		loss     = fs.Float64("loss", 0, "Bernoulli frame-loss rate layered under the axis (E14's lossy-channel ackspoof scenario)")
		parallel = fs.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
		cache    = fs.Bool("cache", false, "memoize cell results under "+exp.DefaultCacheDir+"/")
		progress = fs.String("progress", "off", "run telemetry to stderr: off | stderr | jsonl")
		retries  = fs.Int("retries", 0, "extra attempts per failed cell (capped backoff)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	base := anongeo.DefaultConfig()
	base.Seed = *seed
	base.Nodes = *nodes
	base.Duration = *duration
	base.PacketInterval = 300 * time.Millisecond
	base.LossRate = *loss
	// Points nest as (axis value, defense, protocol); the defense axis
	// drops the protocols its stack cannot arm.
	grid := core.Grid{
		Base: base,
		Axes: []core.Axis{
			{Name: *axis, Values: strings.Split(*values, ","), Rate: *rate},
			{Name: "defense", Values: []string{*defense}},
			{Name: "protocol", Values: []string{"gpsr", "agfw", "agfw-noack"}},
		},
		Repeats: *repeats,
	}

	opt, err := core.OptionsFromFlags(*parallel, *retries, *cache, *progress)
	if err != nil {
		return err
	}
	orch, err := core.NewOrchestrator(opt)
	if err != nil {
		return err
	}
	pts, err := grid.Run(context.Background(), orch)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "axis,%s,defense,protocol,sent,delivered,pdf,avg_latency_ms,dropped,in_flight,adversary_drops,spoof_settles,quarantines,fading_losses,jam_losses,bad_macs,tag_rejects,openings\n", *axis)
	for _, p := range pts {
		var sent, delivered, dropped, inflight, adv, spoof, quar, fading, jam, badmac, tagrej, open int
		var lat float64
		for _, o := range p.Outs {
			r := o.Value
			sent += r.Summary.Sent
			delivered += r.Summary.Delivered
			dropped += r.Summary.DroppedPackets
			inflight += r.Summary.InFlight
			adv += r.AGFW.AdversaryDrops + r.GPSR.AdversaryDrops
			spoof += r.AGFW.SpoofSettles
			quar += r.AGFW.TrustQuarantines + r.GPSR.TrustQuarantines
			fading += r.Channel.FadingLosses
			jam += r.Channel.JamLosses
			badmac += r.AGFW.AuthAcksBadMAC
			tagrej += r.AGFW.TagRejects
			open += r.Revocation.Openings
			lat += float64(r.Summary.AvgLatency) / 1e6
		}
		pdf := 0.0
		if sent > 0 {
			pdf = float64(delivered) / float64(sent)
		}
		fmt.Fprintf(out, "%s,%s,%s,%v,%d,%d,%.4f,%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			*axis, p.Coords[0], p.Coords[1], p.Cells[0].Config.Protocol, sent, delivered, pdf, lat/float64(len(p.Outs)),
			dropped, inflight, adv, spoof, quar, fading, jam, badmac, tagrej, open)
	}
	return nil
}
