// Benchmarks regenerating the paper's evaluation, one family per figure
// plus the ablations indexed in EXPERIMENTS.md. Each iteration runs a
// complete (reduced-duration) simulation; the figures' metrics are
// attached via b.ReportMetric:
//
//	go test -bench=Fig1a -benchtime=1x        # Figure 1(a) cells
//	go test -bench=. -benchmem                # everything
//
// The full-duration (900 s) reproduction is `go run ./cmd/figures`.
package anongeo_test

import (
	"crypto/rsa"
	"fmt"
	"testing"
	"time"

	"anongeo"
	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/locservice"
	"anongeo/internal/sim"
)

// benchConfig is the calibrated Figure 1 workload at bench duration.
func benchConfig(proto anongeo.Protocol, nodes int, seed int64) anongeo.Config {
	cfg := anongeo.DefaultConfig()
	cfg.Protocol = proto
	cfg.Nodes = nodes
	cfg.Seed = seed
	cfg.Duration = 60 * time.Second
	cfg.PacketInterval = 300 * time.Millisecond
	cfg.PayloadBytes = 64
	return cfg
}

// runCell executes one sweep cell per iteration and reports its metrics.
func runCell(b *testing.B, proto anongeo.Protocol, nodes int) {
	b.Helper()
	var pdf, latMS float64
	for i := 0; i < b.N; i++ {
		res, err := anongeo.Run(benchConfig(proto, nodes, int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		pdf += res.Summary.DeliveryFraction
		latMS += float64(res.Summary.AvgLatency) / 1e6
	}
	b.ReportMetric(pdf/float64(b.N), "pdf")
	b.ReportMetric(latMS/float64(b.N), "latency-ms")
	b.ReportMetric(0, "ns/op") // wall time is setup cost, not the result
}

// Figure 1(a): packet delivery fraction vs density, three protocols.

func BenchmarkFig1a_GPSR_N50(b *testing.B)       { runCell(b, anongeo.ProtoGPSR, 50) }
func BenchmarkFig1a_GPSR_N112(b *testing.B)      { runCell(b, anongeo.ProtoGPSR, 112) }
func BenchmarkFig1a_GPSR_N150(b *testing.B)      { runCell(b, anongeo.ProtoGPSR, 150) }
func BenchmarkFig1a_AGFW_N50(b *testing.B)       { runCell(b, anongeo.ProtoAGFW, 50) }
func BenchmarkFig1a_AGFW_N112(b *testing.B)      { runCell(b, anongeo.ProtoAGFW, 112) }
func BenchmarkFig1a_AGFW_N150(b *testing.B)      { runCell(b, anongeo.ProtoAGFW, 150) }
func BenchmarkFig1a_AGFWNoAck_N50(b *testing.B)  { runCell(b, anongeo.ProtoAGFWNoAck, 50) }
func BenchmarkFig1a_AGFWNoAck_N112(b *testing.B) { runCell(b, anongeo.ProtoAGFWNoAck, 112) }
func BenchmarkFig1a_AGFWNoAck_N150(b *testing.B) { runCell(b, anongeo.ProtoAGFWNoAck, 150) }

// Figure 1(b): end-to-end latency vs density. The same cells as 1(a) —
// the paper derives both figures from one experiment — run at the
// heavier 250 ms load where the high-density handshake blow-up is robust
// across seeds.

func fig1bConfig(proto anongeo.Protocol, nodes int, seed int64) anongeo.Config {
	cfg := benchConfig(proto, nodes, seed)
	cfg.PacketInterval = 250 * time.Millisecond
	cfg.Duration = 120 * time.Second
	return cfg
}

func runLatencyCell(b *testing.B, proto anongeo.Protocol, nodes int) {
	b.Helper()
	var latMS, pdf float64
	for i := 0; i < b.N; i++ {
		res, err := anongeo.Run(fig1bConfig(proto, nodes, int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		latMS += float64(res.Summary.AvgLatency) / 1e6
		pdf += res.Summary.DeliveryFraction
	}
	b.ReportMetric(latMS/float64(b.N), "latency-ms")
	b.ReportMetric(pdf/float64(b.N), "pdf")
	b.ReportMetric(0, "ns/op")
}

func BenchmarkFig1b_GPSR_N50(b *testing.B)  { runLatencyCell(b, anongeo.ProtoGPSR, 50) }
func BenchmarkFig1b_GPSR_N112(b *testing.B) { runLatencyCell(b, anongeo.ProtoGPSR, 112) }
func BenchmarkFig1b_GPSR_N150(b *testing.B) { runLatencyCell(b, anongeo.ProtoGPSR, 150) }
func BenchmarkFig1b_AGFW_N50(b *testing.B)  { runLatencyCell(b, anongeo.ProtoAGFW, 50) }
func BenchmarkFig1b_AGFW_N112(b *testing.B) { runLatencyCell(b, anongeo.ProtoAGFW, 112) }
func BenchmarkFig1b_AGFW_N150(b *testing.B) { runLatencyCell(b, anongeo.ProtoAGFW, 150) }

// A1 (network effect): authenticated hellos inflate beacon airtime.

func benchAuthHello(b *testing.B, k int) {
	b.Helper()
	var pdf, bits float64
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(anongeo.ProtoAGFW, 50, int64(i+1))
		cfg.AuthHelloK = k
		res, err := anongeo.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pdf += res.Summary.DeliveryFraction
		bits += float64(res.Channel.BitsSent)
	}
	b.ReportMetric(pdf/float64(b.N), "pdf")
	b.ReportMetric(bits/float64(b.N)/8e6, "MB-on-air")
	b.ReportMetric(0, "ns/op")
}

func BenchmarkAuthHelloK0(b *testing.B) { benchAuthHello(b, 0) }
func BenchmarkAuthHelloK2(b *testing.B) { benchAuthHello(b, 2) }
func BenchmarkAuthHelloK8(b *testing.B) { benchAuthHello(b, 8) }

// A2: trapdoor locality — decrypt attempts per delivered packet stay
// small because only last-hop-region nodes try.

func BenchmarkTrapdoorLocality(b *testing.B) {
	var tries, delivered float64
	for i := 0; i < b.N; i++ {
		res, err := anongeo.Run(benchConfig(anongeo.ProtoAGFW, 100, int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		tries += float64(res.AGFW.TrapdoorTries)
		delivered += float64(res.Summary.Delivered)
	}
	if delivered > 0 {
		b.ReportMetric(tries/delivered, "tries/delivered")
	}
	b.ReportMetric(0, "ns/op")
}

// A3: ALS indexed vs no-index retrieval, genuine RSA.

func benchALS(b *testing.B, entries int, scan bool) {
	b.Helper()
	grid := geo.NewGridMap(geo.NewRect(1500, 300), 300)
	ssa := locservice.NewServerSelection(grid, 1)
	keys := map[anoncrypto.Identity]*anoncrypto.KeyPair{}
	mk := func(id anoncrypto.Identity) *anoncrypto.KeyPair {
		kp, err := anoncrypto.KeyPairFor(id, anoncrypto.DefaultKeyBits)
		if err != nil {
			b.Fatal(err)
		}
		keys[id] = kp
		return kp
	}
	requester := mk("B")
	dir := func(id anoncrypto.Identity) (*rsa.PublicKey, bool) {
		kp, ok := keys[id]
		if !ok {
			return nil, false
		}
		return kp.Public(), true
	}
	srv := locservice.NewServer(60 * sim.Second)
	var target anoncrypto.Identity
	for i := 0; i < entries; i++ {
		id := anoncrypto.Identity(fmt.Sprintf("u%d", i))
		up := locservice.Updater{Self: *mk(id), SSA: ssa, Directory: dir}
		updates, err := up.BuildUpdates([]anoncrypto.Identity{"B"}, geo.Pt(float64(i), 0), 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, us := range updates {
			for _, u := range us {
				srv.Apply(u, 0)
			}
		}
		if i == entries/2 {
			target = id
		}
	}
	req := locservice.Requester{Self: requester, SSA: ssa, Directory: dir}
	b.ResetTimer()
	replyBytes := 0
	for i := 0; i < b.N; i++ {
		req.DecryptAttempts = 0
		if scan {
			sq, _ := req.BuildScanQuery(target, geo.Pt(1, 1))
			rep := srv.AnswerScan(sq, sim.Second)
			if _, _, ok := req.OpenReply(rep, target); !ok {
				b.Fatal("scan retrieval failed")
			}
			replyBytes = rep.ReplyBytes()
		} else {
			q, _, err := req.BuildQuery(target, geo.Pt(1, 1))
			if err != nil {
				b.Fatal(err)
			}
			rep, ok := srv.Answer(q, sim.Second)
			if !ok {
				b.Fatal("indexed lookup failed")
			}
			if _, _, ok := req.OpenReply(rep, target); !ok {
				b.Fatal("indexed retrieval failed")
			}
			replyBytes = rep.ReplyBytes()
		}
	}
	b.ReportMetric(float64(replyBytes), "reply-bytes")
	b.ReportMetric(float64(req.DecryptAttempts), "decrypts/op")
}

func BenchmarkALSIndexedM8(b *testing.B)  { benchALS(b, 8, false) }
func BenchmarkALSIndexedM32(b *testing.B) { benchALS(b, 32, false) }
func BenchmarkALSScanM8(b *testing.B)     { benchALS(b, 8, true) }
func BenchmarkALSScanM32(b *testing.B)    { benchALS(b, 32, true) }

// A4: next-hop policy ablation.

func benchPolicy(b *testing.B, pol anongeo.Policy, reach bool) {
	b.Helper()
	var pdf float64
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(anongeo.ProtoAGFW, 100, int64(i+1))
		cfg.Policy = pol
		cfg.ReachFilter = reach
		res, err := anongeo.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		pdf += res.Summary.DeliveryFraction
	}
	b.ReportMetric(pdf/float64(b.N), "pdf")
	b.ReportMetric(0, "ns/op")
}

func BenchmarkFreshnessClosest(b *testing.B)    { benchPolicy(b, anongeo.PolicyClosest, false) }
func BenchmarkFreshnessFreshest(b *testing.B)   { benchPolicy(b, anongeo.PolicyFreshest, false) }
func BenchmarkFreshnessWeighted(b *testing.B)   { benchPolicy(b, anongeo.PolicyWeighted, false) }
func BenchmarkFreshnessWeightedRF(b *testing.B) { benchPolicy(b, anongeo.PolicyWeighted, true) }

// A5: adversary harvest size under each configuration.

func benchAdversary(b *testing.B, proto anongeo.Protocol, expose bool) {
	b.Helper()
	var ids, macs float64
	for i := 0; i < b.N; i++ {
		cfg := benchConfig(proto, 50, int64(i+1))
		cfg.ExposeSenderMAC = expose
		cfg.WithSniffer = true
		res, err := anongeo.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ids += float64(len(res.Harvest.ByIdentity))
		macs += float64(len(res.Harvest.ByMAC))
	}
	b.ReportMetric(ids/float64(b.N), "identities")
	b.ReportMetric(macs/float64(b.N), "mac-addrs")
	b.ReportMetric(0, "ns/op")
}

func BenchmarkAdversaryGPSR(b *testing.B)        { benchAdversary(b, anongeo.ProtoGPSR, false) }
func BenchmarkAdversaryAGFW(b *testing.B)        { benchAdversary(b, anongeo.ProtoAGFW, false) }
func BenchmarkAdversaryAGFWExposed(b *testing.B) { benchAdversary(b, anongeo.ProtoAGFW, true) }
