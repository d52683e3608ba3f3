package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"anongeo/internal/core"
	"anongeo/internal/exp"
)

// Run-shape constants for the simulation workloads.
const (
	setupReps = 7 // set-ups per run; setup_s is their median
	minPasses = 3 // passes over the grid per phase, at least
	// drain mirrors the settling time core.Network.Run adds after the
	// configured duration. The traced phase calls the layers one by one
	// and compares every cell's digest with core.Run's, so a drift here
	// fails the run instead of skewing it.
	drain = 2 * time.Second
)

type hookFunc func(exp.Event)

func (f hookFunc) Emit(ev exp.Event) { f(ev) }

// simPhase is one phase's measurements: repeated passes over the same
// grid, so every cell has one CPU sample per pass.
type simPhase struct {
	passes  int
	results []core.Result // first pass, input order
	digests []string
	cpu     [][]float64 // [cell][pass] process CPU seconds
	cellMS  []float64   // every cell's wall ms, as exp telemetry reports it
	events  uint64      // engine events per pass (traced phase only)
	rss     []float64   // each pass's peak RSS in MiB
}

// runPasses executes the grid through o until the phase has lasted
// seconds and made at least minPasses passes. Every pass must reproduce
// the first pass's result digests; a cell whose run or audit fails
// counts as failed. Each pass starts from a collected heap returned to
// the OS and a reset RSS high-water mark, so its peak RSS is its own.
func runPasses(ctx context.Context, o *exp.Orchestrator[core.Config, core.Result], cells []exp.Cell[core.Config],
	seconds float64, rep *runReport) (*simPhase, error) {
	ph := &simPhase{cpu: make([][]float64, len(cells))}
	var cpu0 float64
	o.Hooks = append(o.Hooks, hookFunc(func(ev exp.Event) {
		switch ev.Type {
		case exp.EventCellStarted:
			cpu0 = cpuSeconds()
		case exp.EventCellFinished:
			ph.cpu[ev.Index] = append(ph.cpu[ev.Index], cpuSeconds()-cpu0)
			ph.cellMS = append(ph.cellMS, float64(ev.Wall)/float64(time.Millisecond))
		}
	}))
	start := time.Now()
	for ph.passes < minPasses || time.Since(start).Seconds() < seconds {
		// Every pass starts from the same heap state; per-cell errors
		// come back in outs.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return nil, err
		}
		outs, _ := o.ExecuteContext(ctx, cells)
		rss, err := peakRSSMiB(0)
		if err != nil {
			return nil, err
		}
		ph.rss = append(ph.rss, rss)
		ph.passes++
		rep.attempt(len(outs))
		for i, oc := range outs {
			if oc.Err != nil {
				rep.fail("cell %q: %v", oc.Label, oc.Err)
				continue
			}
			d := digest(oc.Value)
			if ph.passes == 1 {
				ph.results = append(ph.results, oc.Value)
				ph.digests = append(ph.digests, d)
			} else if i < len(ph.digests) && d != ph.digests[i] {
				rep.wrong("cell %q: pass %d result digest %.12s differs from pass 1's %.12s", oc.Label, ph.passes, d, ph.digests[i])
			}
		}
		if ctx.Err() != nil {
			break
		}
	}
	return ph, nil
}

// cellCPU is each cell's median CPU seconds across passes: the median
// keeps a burst of load from a neighbour out of the cell's cost.
func (ph *simPhase) cellCPU() []float64 {
	med := make([]float64, len(ph.cpu))
	for i, v := range ph.cpu {
		med[i] = median(v)
	}
	return med
}

// digest is the SHA-256 of a result's canonical JSON.
func digest(r core.Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // core.Result always encodes
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// simSeconds is the simulated time one pass covers.
func simSeconds(cells []exp.Cell[core.Config]) float64 {
	var s float64
	for _, c := range cells {
		s += c.Config.Duration.Seconds()
	}
	return s
}

// endToEnd derives the simulation workloads' end-to-end metrics. A job
// is one cell, and its time is process CPU. Totals use each cell's
// median across passes; the latency percentiles are taken over every
// (cell, pass) sample, so p95 has at least ten samples beyond it
// (100+ cells × 3+ passes). Every cell covers the same simulated time,
// so jobs_per_s and cpu_ms_per_job are sim_s_per_cpu_s rescaled: one
// signal, not three.
func (ph *simPhase) endToEnd(cells []exp.Cell[core.Config]) map[string]metricValue {
	var sent, delivered int
	for _, r := range ph.results {
		sent += r.Summary.Sent
		delivered += r.Summary.Delivered
	}
	total := sum(ph.cellCPU())
	var samples []float64
	for _, v := range ph.cpu {
		for _, s := range v {
			samples = append(samples, s*1000)
		}
	}
	n := len(cells)
	return map[string]metricValue{
		"sim_s_per_cpu_s": {simSeconds(cells) / total, n * ph.passes},
		"pdf":             {ratio(float64(delivered), float64(sent)), sent},
		"jobs_per_s":      {float64(n) / total, n * ph.passes},
		"job_p50_ms":      {percentile(samples, 50), len(samples)},
		"job_p95_ms":      {percentile(samples, 95), len(samples)},
		"cpu_ms_per_job":  {total / float64(n) * 1000, n * ph.passes},
	}
}

// setupSeconds builds every cell of the grid setupReps times and
// returns the median process CPU of one full set-up.
func setupSeconds(cells []exp.Cell[core.Config]) (metricValue, error) {
	var samples []float64
	for r := 0; r < setupReps; r++ {
		runtime.GC()
		c0 := cpuSeconds()
		for _, c := range cells {
			if _, err := core.Build(c.Config); err != nil {
				return metricValue{}, fmt.Errorf("build %q: %w", c.Label, err)
			}
		}
		samples = append(samples, cpuSeconds()-c0)
	}
	return metricValue{median(samples), len(samples)}, nil
}

// runSimWorkload measures fig1 or defended. Untraced, it reports the
// end-to-end metrics. Traced, it runs an untraced phase and then a
// traced one on the same grid, compares their digests, and reports the
// per-layer metrics and the tracing overhead.
func runSimWorkload(ctx context.Context, o options, cells []exp.Cell[core.Config], rep *runReport) error {
	var setup metricValue
	if !o.trace {
		var err error
		if setup, err = setupSeconds(cells); err != nil {
			return err
		}
	}
	// The untraced path is the one users run: core.NewOrchestrator,
	// serial and uncached.
	orch, err := core.NewOrchestrator(core.SweepOptions{Parallel: 1})
	if err != nil {
		return err
	}
	plain, err := runPasses(ctx, orch, cells, o.seconds, rep)
	if err != nil {
		return err
	}
	e2e := plain.endToEnd(cells)
	if !o.trace {
		e2e["setup_s"] = setup
		e2e["peak_rss_mb"] = metricValue{median(plain.rss), len(plain.rss)}
		rep.metrics = e2e
		return nil
	}

	traced, layers, err := runTracedSim(ctx, o, cells, rep)
	if err != nil {
		return err
	}
	for i := range plain.digests {
		if i < len(traced.digests) && traced.digests[i] != plain.digests[i] {
			rep.wrong("cell %q: traced digest %.12s differs from untraced %.12s", cells[i].Label, traced.digests[i], plain.digests[i])
		}
	}
	t := traced.endToEnd(cells)
	layers["bench.trace_overhead"] = metricValue{1 - ratio(t["sim_s_per_cpu_s"].Value, e2e["sim_s_per_cpu_s"].Value), t["sim_s_per_cpu_s"].N}
	rep.metrics = layers
	return nil
}

// runTracedSim runs the grid with each layer called on its own —
// core.Build, Network.Eng.Run, Network.Audit, Network.Result — and a
// span around each, under the CPU profiler.
func runTracedSim(ctx context.Context, o options, cells []exp.Cell[core.Config], rep *runReport) (*simPhase, map[string]metricValue, error) {
	tr := newTracer()
	cellSpan, req := -1, ""
	var events uint64
	layer := func(name string, start time.Time) { tr.add(name, req, cellSpan, start, time.Now()) }
	orch := &exp.Orchestrator[core.Config, core.Result]{
		Parallel:    1,
		SimDuration: func(c core.Config) time.Duration { return c.Duration },
		Hooks: []exp.Hook{hookFunc(func(ev exp.Event) {
			switch ev.Type {
			case exp.EventCellStarted:
				req = ev.Label
				cellSpan = tr.begin("cell", req, -1)
			case exp.EventCellFinished:
				tr.finish(cellSpan)
			}
		})},
		RunCtx: func(ctx context.Context, cfg core.Config) (core.Result, error) {
			t := time.Now()
			n, err := core.Build(cfg)
			layer("build", t)
			if err != nil {
				return core.Result{}, err
			}
			n.Eng.Interrupt = ctx.Err
			t = time.Now()
			err = n.Eng.Run(cfg.Duration + drain)
			layer("run", t)
			if err != nil {
				return core.Result{}, err
			}
			t = time.Now()
			err = n.Audit()
			layer("audit", t)
			if err != nil {
				return core.Result{}, err
			}
			t = time.Now()
			r := n.Result()
			layer("result", t)
			events += n.Eng.Processed()
			return r, nil
		},
	}

	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(allocs)
	alloc0 := allocs[0].Value.Uint64()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, nil, err
	}
	ph, err := runPasses(ctx, orch, cells, o.seconds, rep)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, nil, err
	}
	metrics.Read(allocs)
	allocMB := float64(allocs[0].Value.Uint64()-alloc0) / (1 << 20)
	ph.events = events / uint64(ph.passes)

	p, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, nil, err
	}
	self, gc := p.shares()
	n := ph.passes
	perPass := func(span string) metricValue { return metricValue{sum(tr.durations(span)) / 1000 / float64(n), n} }
	m := map[string]metricValue{
		"sim.events":                 {float64(ph.events), 1},
		"sim.events_per_cpu_s":       {float64(ph.events) / sum(ph.cellCPU()), n},
		"core.build_s":               perPass("build"),
		"core.run_s":                 perPass("run"),
		"core.audit_s":               perPass("audit"),
		"core.result_s":              perPass("result"),
		"runtime.gc_cpu_share":       {gc, len(p.samples)},
		"runtime.alloc_mb_per_sim_s": {allocMB / (simSeconds(cells) * float64(n)), n},
		"exp.cell_ms_p50":            {percentile(ph.cellMS, 50), len(ph.cellMS)},
	}
	addCounts(m, ph.results)
	for mod, share := range self {
		m[mod+".self_share"] = metricValue{share, len(p.samples)}
	}
	return ph, m, tr.write(o.tracePath())
}

// addCounts fills the deterministic work counts from cell results.
func addCounts(m map[string]metricValue, results []core.Result) {
	var latencyNS, pktDelivered float64
	var tx, deliv, coll, data, retries, rdrops, nav, quar, tags, opens, fwd, tries, opened, retx, gfwd, dead, adv float64
	for _, r := range results {
		latencyNS += float64(r.Summary.AvgLatency) * float64(r.Summary.Delivered)
		pktDelivered += float64(r.Summary.Delivered)
		tx += float64(r.Channel.Transmissions)
		deliv += float64(r.Channel.Deliveries)
		coll += float64(r.Channel.Collisions)
		data += float64(r.MAC.DataSent)
		retries += float64(r.MAC.Retries)
		rdrops += float64(r.MAC.RetryDrops)
		nav += float64(r.MAC.NAVDeferrals)
		quar += float64(r.AGFW.TrustQuarantines + r.GPSR.TrustQuarantines)
		tags += float64(r.AGFW.TagRejects)
		opens += float64(r.Revocation.Openings)
		fwd += float64(r.AGFW.Forwards)
		tries += float64(r.AGFW.TrapdoorTries)
		opened += float64(r.AGFW.TrapdoorOpens)
		retx += float64(r.AGFW.Retransmits)
		gfwd += float64(r.GPSR.DataForwarded)
		dead += float64(r.GPSR.DeadEnds)
		adv += float64(r.AGFW.AdversaryDrops + r.GPSR.AdversaryDrops)
	}
	n := len(results)
	for k, v := range map[string]float64{
		"radio.transmissions":        tx,
		"radio.deliveries_per_tx":    ratio(deliv, tx),
		"radio.collisions":           coll,
		"metrics.sim_latency_ms":     ratio(latencyNS, pktDelivered) / 1e6,
		"mac.data_sent":              data,
		"mac.retries":                retries,
		"mac.retry_drops":            rdrops,
		"mac.nav_deferrals":          nav,
		"neighbor.trust_quarantines": quar,
		"neighbor.tag_rejects":       tags,
		"neighbor.openings":          opens,
		"agfw.forwards":              fwd,
		"agfw.trapdoor_open_ratio":   ratio(opened, tries),
		"agfw.retransmits":           retx,
		"gpsr.data_forwarded":        gfwd,
		"gpsr.dead_ends":             dead,
		"fault.adversary_drops":      adv,
	} {
		m[k] = metricValue{v, n}
	}
}

// lsReplayMismatch runs one AGFW cell on the in-band anonymous location
// service twice with the same seed and counts differing result digests.
// It is non-zero while internal/core/locoverlay.go emits geocasts while
// ranging over Go maps (lines 305, 321 and 356), so event order follows
// the map hash seed rather than the config.
func lsReplayMismatch(seed int64) (int, error) {
	cfg := canaryConfig(seed)
	a, err := core.Run(cfg)
	if err != nil {
		return 0, fmt.Errorf("canary: %w", err)
	}
	b, err := core.Run(cfg)
	if err != nil {
		return 0, fmt.Errorf("canary: %w", err)
	}
	if digest(a) != digest(b) {
		return 1, nil
	}
	return 0, nil
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
