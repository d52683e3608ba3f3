// Command figures regenerates every figure and ablation experiment in
// EXPERIMENTS.md:
//
//	figures -fig 1a          packet delivery fraction vs density (Figure 1a)
//	figures -fig 1b          end-to-end latency vs density (Figure 1b)
//	figures -fig a1          ring size vs hello bytes and crypto cost
//	figures -fig a2          trapdoor locality (§3.2 efficiency claim)
//	figures -fig a3          ALS indexed vs no-index overhead
//	figures -fig a4          next-hop policy / freshness ablation
//	figures -fig a5          adversary harvest: GPSR vs AGFW vs misconfig
//	figures -fig all         everything
//
// -short runs reduced durations for a quick look; the defaults reproduce
// the paper's 900 s runs. -csv switches 1a/1b output to CSV.
//
// Simulation grids execute on the internal/exp orchestrator: -parallel
// bounds the worker pool (0 = GOMAXPROCS; output is identical at any
// width), -cache memoizes finished cells under .expcache/ so re-running
// after an unrelated edit is near-instant, and -progress streams run
// telemetry to stderr.
//
// With -server the density sweeps (1a/1b) run on an agrsimd daemon —
// a single worker or a distributed coordinator, same API — instead of
// in-process; the output is identical either way:
//
//	figures -fig 1a -server http://127.0.0.1:8080
package main

import (
	"context"
	"crypto/rsa"
	"flag"
	"fmt"
	"os"
	"time"

	"anongeo"
	"anongeo/internal/adversary"
	"anongeo/internal/anoncrypto"
	"anongeo/internal/core"
	"anongeo/internal/dist"
	"anongeo/internal/exp"
	"anongeo/internal/geo"
	"anongeo/internal/locservice"
	"anongeo/internal/neighbor"
	"anongeo/internal/serve"
	"anongeo/internal/sim"
)

func main() {
	var (
		fig      = flag.String("fig", "all", "experiment: 1a | 1b | a1 | a2 | a3 | a4 | a5 | a6 | all")
		short    = flag.Bool("short", false, "reduced durations for a quick look")
		repeats  = flag.Int("repeats", 2, "seeds averaged per sweep cell")
		csv      = flag.Bool("csv", false, "CSV output for the density sweeps")
		seed     = flag.Int64("seed", 1, "base random seed")
		parallel = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
		cache    = flag.Bool("cache", false, "memoize cell results under "+exp.DefaultCacheDir+"/")
		progress = flag.String("progress", "off", "run telemetry to stderr: off | stderr | jsonl")
		retries  = flag.Int("retries", 0, "extra attempts per failed cell (capped backoff)")
		server   = flag.String("server", "", "agrsimd base URL: run the density sweeps on a daemon (worker or coordinator) instead of in-process")
	)
	flag.Parse()

	opt, err := core.OptionsFromFlags(*parallel, *retries, *cache, *progress)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
	opt.Repeats = *repeats
	r := &runner{short: *short, csv: *csv, seed: *seed, server: *server, opt: opt}
	if *server != "" && *fig != "1a" && *fig != "1b" {
		fmt.Fprintf(os.Stderr, "figures: -server only supports the density sweeps (-fig 1a | 1b); %q runs in-process experiments\n", *fig)
		os.Exit(1)
	}
	switch *fig {
	case "1a", "1b":
		err = r.figure1(*fig)
	case "a1":
		err = r.ablationRing()
	case "a2":
		err = r.ablationTrapdoorLocality()
	case "a3":
		err = r.ablationALS()
	case "a4":
		err = r.ablationPolicy()
	case "a5":
		err = r.ablationAdversary()
	case "a6":
		err = r.ablationInBandLS()
	case "all":
		for _, f := range []func() error{
			func() error { return r.figure1("1a+1b") },
			r.ablationRing,
			r.ablationTrapdoorLocality,
			r.ablationALS,
			r.ablationPolicy,
			r.ablationAdversary,
			r.ablationInBandLS,
		} {
			if err = f(); err != nil {
				break
			}
			fmt.Println()
		}
	default:
		err = fmt.Errorf("unknown figure %q", *fig)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		os.Exit(1)
	}
}

type runner struct {
	short  bool
	csv    bool
	seed   int64
	server string
	// opt is shared by every grid; only the density sweeps read Repeats.
	opt core.SweepOptions
}

// runAblation executes a single-seed ablation grid over the mid-length
// base scenario and returns its points, each with its one outcome.
func (r *runner) runAblation(axes ...core.Axis) ([]core.Point, error) {
	orch, err := core.NewOrchestrator(r.opt)
	if err != nil {
		return nil, err
	}
	base := r.baseConfig()
	base.Duration = r.midDuration()
	return core.Grid{Base: base, Axes: axes, Repeats: 1}.Run(context.Background(), orch)
}

// baseConfig is the calibrated Figure 1 workload (see EXPERIMENTS.md):
// 30 CBR flows of 64-byte packets at 1/300 ms from 20 senders.
func (r *runner) baseConfig() anongeo.Config {
	cfg := anongeo.DefaultConfig()
	cfg.Seed = r.seed
	cfg.PacketInterval = 300 * time.Millisecond
	cfg.PayloadBytes = 64
	if r.short {
		cfg.Duration = 120 * time.Second
	}
	return cfg
}

// midDuration is the run length for the single-cell ablations.
func (r *runner) midDuration() time.Duration {
	if r.short {
		return 60 * time.Second
	}
	return 300 * time.Second
}

// figure1 regenerates Figure 1(a) and/or 1(b): the three protocol curves
// across the density axis.
func (r *runner) figure1(which string) error {
	cfg := r.baseConfig()
	fmt.Printf("# Figure 1 (%s): %v per run, %d repeats, 30 CBR flows (64 B @ %v) from 20 senders\n",
		which, cfg.Duration, r.opt.Repeats, cfg.PacketInterval)
	var (
		pts []anongeo.DensityPoint
		err error
	)
	if r.server != "" {
		pts, err = r.remoteSweep(cfg)
	} else {
		pts, err = anongeo.DensitySweepOpts(cfg, anongeo.PaperNodeCounts,
			[]anongeo.Protocol{anongeo.ProtoGPSR, anongeo.ProtoAGFW, anongeo.ProtoAGFWNoAck}, r.opt)
	}
	if err != nil {
		return err
	}
	if r.csv {
		return anongeo.WriteSweepCSV(os.Stdout, pts)
	}
	return anongeo.WriteSweepTable(os.Stdout, pts)
}

// remoteSweep runs the Figure 1 grid on an agrsimd daemon through the
// shared dist client (retries, backoff, Retry-After handling included)
// and rebuilds the density points from the job's folded results — the
// same points the in-process sweep returns, since the daemon folds with
// the identical core machinery.
func (r *runner) remoteSweep(cfg anongeo.Config) ([]anongeo.DensityPoint, error) {
	req := serve.SweepRequest{
		Base:       cfg,
		NodeCounts: anongeo.PaperNodeCounts,
		Protocols:  []string{"gpsr", "agfw", "agfw-noack"},
		Repeats:    r.opt.Repeats,
	}
	c := dist.NewClient(r.server)
	ctx := context.Background()
	sub, err := c.SubmitSweep(ctx, req)
	if err != nil {
		return nil, fmt.Errorf("submit to %s: %w", r.server, err)
	}
	verb := "submitted"
	if !sub.Created {
		verb = "deduped to existing job"
	}
	fmt.Fprintf(os.Stderr, "figures: %s %s on %s (%d cells)\n", verb, sub.ID, r.server, req.Cells())
	for {
		st, err := c.Job(ctx, sub.ID)
		if err != nil {
			return nil, fmt.Errorf("poll job %s: %w", sub.ID, err)
		}
		switch st.State {
		case serve.JobDone:
			pts := make([]anongeo.DensityPoint, len(st.Points))
			for i, p := range st.Points {
				pts[i] = anongeo.DensityPoint{Protocol: p.Result.Protocol, Nodes: p.Nodes, Result: p.Result}
			}
			return pts, nil
		case serve.JobFailed, serve.JobCanceled:
			return nil, fmt.Errorf("job %s %s: %s", sub.ID, st.State, st.Error)
		}
		time.Sleep(500 * time.Millisecond)
	}
}

// ringFixtures generates the keys and certificates the A1 micro-bench
// signs with.
func ringFixtures(n int) ([]*anoncrypto.KeyPair, error) {
	ca, err := anoncrypto.NewCA(1024)
	if err != nil {
		return nil, err
	}
	keys := make([]*anoncrypto.KeyPair, 0, n)
	for i := 0; i < n; i++ {
		kp, err := anoncrypto.KeyPairFor(anoncrypto.Identity(fmt.Sprintf("m%d", i)), anoncrypto.DefaultKeyBits)
		if err != nil {
			return nil, err
		}
		if _, err := ca.Issue(kp); err != nil {
			return nil, err
		}
		keys = append(keys, kp)
	}
	return keys, nil
}

// publicKeys extracts the RSA public keys of a keypair ring.
func publicKeys(ring []*anoncrypto.KeyPair) []*rsa.PublicKey {
	out := make([]*rsa.PublicKey, len(ring))
	for i, kp := range ring {
		out[i] = kp.Public()
	}
	return out
}

// ablationRing quantifies §3.1.2/§4: anonymity set size k+1 versus hello
// bytes and genuine ring-signature cost, plus the network-level effect.
func (r *runner) ablationRing() error {
	fmt.Println("# A1: authenticated ANT — ring size vs overhead")
	fmt.Println("k\tanonymity\thello_bytes(ref)\thello_bytes(attach)\tsign_ms\tverify_ms")
	keys, err := ringFixtures(17)
	if err != nil {
		return err
	}
	msg := []byte("HELLO n loc ts")
	for _, k := range []int{1, 2, 4, 8, 16} {
		ring := keys[:k+1]
		pubs := publicKeys(ring)
		const reps = 5
		t0 := time.Now()
		var sig *anoncrypto.RingSignature
		for i := 0; i < reps; i++ {
			sig, err = anoncrypto.RingSign(msg, pubs, 0, ring[0].Private)
			if err != nil {
				return err
			}
		}
		signMS := float64(time.Since(t0).Microseconds()) / 1000 / reps
		t0 = time.Now()
		for i := 0; i < reps; i++ {
			if !anoncrypto.RingVerify(msg, pubs, sig) {
				return fmt.Errorf("ring verify failed at k=%d", k)
			}
		}
		verifyMS := float64(time.Since(t0).Microseconds()) / 1000 / reps
		fmt.Printf("%d\t%d\t%d\t%d\t%.2f\t%.2f\n", k, k+1,
			neighbor.EstimateAuthHelloBytes(k, anoncrypto.DefaultKeyBits, false),
			neighbor.EstimateAuthHelloBytes(k, anoncrypto.DefaultKeyBits, true),
			signMS, verifyMS)
	}

	fmt.Println("\n# A1 (network effect): AGFW at 50 nodes with authenticated hellos")
	fmt.Println("k\tpdf\tavg_latency\tbits_on_air")
	pts, err := r.runAblation(core.Axis{Name: "authk", Values: []string{"0", "2", "4", "8"}})
	if err != nil {
		return err
	}
	for _, p := range pts {
		res := p.Outs[0].Value
		fmt.Printf("%s\t%.3f\t%v\t%d\n", p.Coords[0], res.Summary.DeliveryFraction,
			res.Summary.AvgLatency.Round(10*time.Microsecond), res.Channel.BitsSent)
	}
	return nil
}

// ablationTrapdoorLocality verifies §3.2's efficiency claim: trapdoor
// attempts concentrate in the last-hop region.
func (r *runner) ablationTrapdoorLocality() error {
	fmt.Println("# A2: trapdoor locality — only last-hop-region nodes pay the decrypt cost")
	fmt.Println("nodes\tforwards\ttrapdoor_tries\ttries_per_delivered\topens")
	pts, err := r.runAblation(core.Axis{Name: "nodes", Values: []string{"50", "100", "150"}})
	if err != nil {
		return err
	}
	for _, p := range pts {
		res := p.Outs[0].Value
		perDelivered := 0.0
		if res.Summary.Delivered > 0 {
			perDelivered = float64(res.AGFW.TrapdoorTries) / float64(res.Summary.Delivered)
		}
		fmt.Printf("%s\t%d\t%d\t%.2f\t%d\n", p.Coords[0], res.AGFW.Forwards, res.AGFW.TrapdoorTries,
			perDelivered, res.AGFW.TrapdoorOpens)
	}
	return nil
}

// ablationALS measures §3.3's indexed vs no-index trade-off with genuine
// RSA: reply bytes and trial decryptions as the server bucket grows.
func (r *runner) ablationALS() error {
	fmt.Println("# A3: ALS indexed vs no-index (scan) — overhead vs bucket size")
	fmt.Println("entries\tindexed_reply_B\tindexed_decrypts\tscan_reply_B\tscan_decrypts")
	grid := geo.NewGridMap(geo.NewRect(1500, 300), 300)
	ssa := locservice.NewServerSelection(grid, 1)
	for _, m := range []int{4, 8, 16, 32, 64} {
		keys := map[anoncrypto.Identity]*anoncrypto.KeyPair{}
		mk := func(id anoncrypto.Identity) *anoncrypto.KeyPair {
			kp, err := anoncrypto.KeyPairFor(id, anoncrypto.DefaultKeyBits)
			if err != nil {
				panic(err)
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
		for i := 0; i < m; i++ {
			id := anoncrypto.Identity(fmt.Sprintf("u%d", i))
			up := locservice.Updater{Self: *mk(id), SSA: ssa, Directory: dir}
			updates, err := up.BuildUpdates([]anoncrypto.Identity{"B"}, geo.Pt(float64(i%1500), float64(i%300)), 0)
			if err != nil {
				return err
			}
			for _, us := range updates {
				for _, u := range us {
					srv.Apply(u, 0)
				}
			}
			if i == m/2 {
				target = id
			}
		}

		reqIdx := locservice.Requester{Self: requester, SSA: ssa, Directory: dir}
		q, _, err := reqIdx.BuildQuery(target, geo.Pt(10, 10))
		if err != nil {
			return err
		}
		rep, ok := srv.Answer(q, sim.Second)
		if !ok {
			return fmt.Errorf("indexed lookup missed at m=%d", m)
		}
		if _, _, ok := reqIdx.OpenReply(rep, target); !ok {
			return fmt.Errorf("indexed open failed at m=%d", m)
		}

		reqScan := locservice.Requester{Self: requester, SSA: ssa, Directory: dir}
		sq, _ := reqScan.BuildScanQuery(target, geo.Pt(10, 10))
		srep := srv.AnswerScan(sq, sim.Second)
		if _, _, ok := reqScan.OpenReply(srep, target); !ok {
			return fmt.Errorf("scan open failed at m=%d", m)
		}

		fmt.Printf("%d\t%d\t%d\t%d\t%d\n", m,
			rep.ReplyBytes(), reqIdx.DecryptAttempts,
			srep.ReplyBytes(), reqScan.DecryptAttempts)
	}
	return nil
}

// ablationPolicy runs the §3.1.1 freshness ablation: next-hop policies
// with and without the reachability filter.
func (r *runner) ablationPolicy() error {
	fmt.Println("# A4: AGFW next-hop policy ablation (freshness matters under mobility)")
	fmt.Println("policy\treach_filter\tnodes\tpdf\tavg_latency")
	pts, err := r.runAblation(
		core.Axis{Name: "nodes", Values: []string{"50", "150"}},
		core.Axis{Name: "policy", Values: []string{"closest", "freshest", "weighted"}},
		core.Axis{Name: "reach-filter", Values: []string{"false", "true"}},
	)
	if err != nil {
		return err
	}
	for _, p := range pts {
		res := p.Outs[0].Value
		fmt.Printf("%s\t%s\t%s\t%.3f\t%v\n", p.Coords[1], p.Coords[2], p.Coords[0],
			res.Summary.DeliveryFraction, res.Summary.AvgLatency.Round(10*time.Microsecond))
	}
	return nil
}

// ablationInBandLS measures §5's prediction for running the location
// service in-band instead of the oracle the paper simulated with: the
// performance should be "similar … expect it to elegantly degrade a
// bit". A6 compares oracle, in-band plain DLM, and in-band ALS.
func (r *runner) ablationInBandLS() error {
	fmt.Println("# A6: in-band location service vs the paper's oracle")
	fmt.Println("locservice\tprotocol\tpdf\tavg_latency\tls_queries\tls_resolved\tls_timeouts")
	dur := r.midDuration()
	for _, sc := range []struct {
		mode  core.LocationServiceMode
		proto anongeo.Protocol
	}{
		{core.LSOracle, anongeo.ProtoAGFW},
		{core.LSALS, anongeo.ProtoAGFW},
		{core.LSOracle, anongeo.ProtoGPSR},
		{core.LSPlainDLM, anongeo.ProtoGPSR},
	} {
		cfg := r.baseConfig()
		cfg.Duration = dur
		cfg.Protocol = sc.proto
		cfg.LocationService = sc.mode
		net, err := anongeo.Build(cfg)
		if err != nil {
			return err
		}
		res, err := net.Run()
		if err != nil {
			return err
		}
		ls := net.LSStats()
		fmt.Printf("%v\t%v\t%.3f\t%v\t%d\t%d\t%d\n", sc.mode, sc.proto,
			res.Summary.DeliveryFraction, res.Summary.AvgLatency.Round(10*time.Microsecond),
			ls.Queries, ls.Resolved, ls.Timeouts)
	}
	return nil
}

// ablationAdversary quantifies §2/§4: what a global passive eavesdropper
// learns under each configuration.
func (r *runner) ablationAdversary() error {
	fmt.Println("# A5: global passive eavesdropper harvest")
	fmt.Println("config\tidentities\tmac_addrs\tpseudonyms\tmaclink_bindings\ttarget_coverage")
	dur := r.midDuration()
	for _, sc := range []struct {
		name   string
		proto  anongeo.Protocol
		expose bool
	}{
		{"GPSR", anongeo.ProtoGPSR, false},
		{"AGFW", anongeo.ProtoAGFW, false},
		{"AGFW-exposed-MAC", anongeo.ProtoAGFW, true},
	} {
		cfg := r.baseConfig()
		cfg.Duration = dur
		cfg.Protocol = sc.proto
		cfg.ExposeSenderMAC = sc.expose
		cfg.WithSniffer = true
		net, err := anongeo.Build(cfg)
		if err != nil {
			return err
		}
		res, err := net.Run()
		if err != nil {
			return err
		}
		h := res.Harvest
		bindings := adversary.MACLinkAttack(net.Sniffer.Observations())
		coverage := 0.0
		if ss, ok := h.ByIdentity[string(core.NodeID(0))]; ok {
			coverage = adversary.Coverage(ss, sim.Time(dur), 3*sim.Second)
		}
		fmt.Printf("%s\t%d\t%d\t%d\t%d\t%.2f\n", sc.name,
			len(h.ByIdentity), len(h.ByMAC), len(h.ByPseudonym), len(bindings), coverage)
	}
	return nil
}
