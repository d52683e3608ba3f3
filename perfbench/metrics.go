package main

import (
	"math"
	"sort"
)

// metricDef describes one reported metric. The end-to-end and per-layer
// tables below must match BENCHMARK.json entry for entry (the tests
// check it); Sim, Service and Moves carry what that file's fixed schema
// cannot: how each end-to-end metric is measured on each kind of
// workload, and which end-to-end metric a layer metric should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Sim and Service define an end-to-end metric on the simulation
	// workloads (fig1, defended) and on the service workload.
	Sim, Service string
	// Moves names the end-to-end metric and workload a per-layer metric
	// should move.
	Moves string
}

// endToEnd lists what a user of the simulator or the daemon sees. Host
// costs are process CPU wherever the quantity allows it, so load from a
// neighbour on a shared machine does not read as a regression; only the
// service's job throughput and latency are wall time, because that is
// what its callers wait for. The error rate is carried by the result line's
// attempted/failed counts rather than as a metric, since it is 0 on a
// healthy run. On fig1 and defended every cell covers the same simulated
// time, so jobs_per_s and cpu_ms_per_job there are sim_s_per_cpu_s
// rescaled: judge the three as one signal on those workloads.
var endToEnd = []metricDef{
	{Name: "sim_s_per_cpu_s", Unit: "sim-s/cpu-s", Better: "higher", Bound: 0.25,
		Sim:     "simulated seconds of the grid over its process user+sys CPU seconds, GC included, each cell's CPU the median across passes",
		Service: "simulated seconds of the sweep cells the daemon returned over the daemon's CPU seconds"},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Sim:     "process CPU of one core.Build of every cell of the grid; median of several set-ups",
		Service: "wall time from daemon exec to the first /readyz 200, restarting on the journal and cache of the job stream's first 400 jobs; median of several restarts"},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15,
		Sim:     "VmHWM of the benchmark process over one pass of the grid, reset before each pass; median of the passes",
		Service: "VmHWM of the daemon process once the first jobs of the seeded mix have finished"},
	{Name: "pdf", Unit: "ratio", Better: "higher", Bound: 0.25,
		Sim:     "Figure 1(a): delivered over sent, summed over the grid's cells",
		Service: "delivered over sent, summed over the sweep points of the first jobs of the seeded mix"},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Sim:     "cells per CPU second (a job is one cell through exp.Orchestrator, its time the median CPU across passes); every cell covers the same simulated time, so this is sim_s_per_cpu_s rescaled, not a second signal",
		Service: "closed-loop jobs completed per wall second"},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Sim:     "median of every cell's CPU time in every pass",
		Service: "median wall time from POST until the job's done event arrives"},
	{Name: "job_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Sim:     "95th percentile of every cell's CPU time in every pass (100+ cells, 3+ passes)",
		Service: "95th percentile of the job latencies"},
	{Name: "cpu_ms_per_job", Unit: "ms", Better: "lower", Bound: 0.25,
		Sim:     "mean over the grid's cells of each cell's median CPU time; sim_s_per_cpu_s rescaled, not a second signal",
		Service: "daemon CPU per completed job"},
}

// selfShareModules are the packages whose CPU self time the traced run
// attributes: every anongeo/internal module (routing/agfw and
// routing/gpsr by their leaf names), the Go runtime, and everything
// else (standard library, the benchmark itself).
var selfShareModules = []string{
	"sim", "radio", "mac", "mobility", "neighbor", "agfw", "gpsr", "routing",
	"fault", "anoncrypto", "core", "metrics", "traffic", "geo", "adversary", "trace",
	"exp", "serve", "durable", "dist", "lbs", "locservice", "runtime", "other",
}

// lbsBackends are the anonymizers the service mix exercises.
var lbsBackends = []string{"paperals", "kanon", "gridcloak", "geoind"}

// perLayer lists the traced run's metrics. Counts are per pass over the
// grid for the simulation workloads and per phase for the service.
// Metrics a workload cannot observe from outside the program (engine
// events inside the daemon, say) read 0 there.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	l := []metricDef{
		{Name: "sim.events", Unit: "count", Better: "lower", Moves: "sim_s_per_cpu_s on fig1; 0 on service (not visible through the API)"},
		{Name: "sim.events_per_cpu_s", Unit: "1/cpu-s", Better: "higher", Moves: "sim_s_per_cpu_s on fig1 and defended"},
		{Name: "radio.transmissions", Unit: "count", Better: "lower", Moves: "sim_s_per_cpu_s on fig1, then defended"},
		{Name: "radio.deliveries_per_tx", Unit: "ratio", Better: "higher", Moves: "sim_s_per_cpu_s on fig1, then defended"},
		{Name: "radio.collisions", Unit: "count", Better: "lower", Moves: "pdf and metrics.sim_latency_ms on fig1"},
		{Name: "metrics.sim_latency_ms", Unit: "sim-ms", Better: "lower", Moves: "Figure 1(b): mean simulated end-to-end latency over every delivered packet of the grid (of the first jobs' sweep points on service); seed-sensitive, so ungated"},
		{Name: "mac.data_sent", Unit: "count", Better: "lower", Moves: "sim_s_per_cpu_s on fig1"},
		{Name: "mac.retries", Unit: "count", Better: "lower", Moves: "pdf and metrics.sim_latency_ms on fig1 and defended"},
		{Name: "mac.retry_drops", Unit: "count", Better: "lower", Moves: "pdf on fig1 and defended"},
		{Name: "mac.nav_deferrals", Unit: "count", Better: "lower", Moves: "metrics.sim_latency_ms on fig1"},
		{Name: "neighbor.trust_quarantines", Unit: "count", Better: "higher", Moves: "pdf on defended; 0 on fig1"},
		{Name: "neighbor.tag_rejects", Unit: "count", Better: "higher", Moves: "pdf on defended; 0 on fig1"},
		{Name: "neighbor.openings", Unit: "count", Better: "higher", Moves: "pdf on defended; 0 on fig1"},
		{Name: "agfw.forwards", Unit: "count", Better: "lower", Moves: "sim_s_per_cpu_s on fig1 AGFW cells"},
		{Name: "agfw.trapdoor_open_ratio", Unit: "ratio", Better: "higher", Moves: "sim_s_per_cpu_s on fig1 AGFW cells; pdf"},
		{Name: "agfw.retransmits", Unit: "count", Better: "lower", Moves: "pdf and metrics.sim_latency_ms on fig1 and defended"},
		{Name: "gpsr.data_forwarded", Unit: "count", Better: "lower", Moves: "sim_s_per_cpu_s on fig1 GPSR cells"},
		{Name: "gpsr.dead_ends", Unit: "count", Better: "lower", Moves: "pdf on fig1 GPSR cells"},
		{Name: "fault.adversary_drops", Unit: "count", Better: "lower", Moves: "pdf on defended; 0 on fig1"},
		{Name: "core.build_s", Unit: "s", Better: "lower", Moves: "setup_s on fig1 and defended"},
		{Name: "core.run_s", Unit: "s", Better: "lower", Moves: "sim_s_per_cpu_s on fig1 and defended"},
		{Name: "core.audit_s", Unit: "s", Better: "lower", Moves: "sim_s_per_cpu_s on fig1 and defended"},
		{Name: "core.result_s", Unit: "s", Better: "lower", Moves: "sim_s_per_cpu_s on fig1 and defended"},
		{Name: "core.ls_replay_mismatch", Unit: "count", Better: "lower", Moves: "known defect: in-band location service replays differ (internal/core/locoverlay.go:305/321/356 emit geocasts while ranging over maps); ungated"},
		{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower", Moves: "sim_s_per_cpu_s and cpu_ms_per_job on all"},
		{Name: "runtime.alloc_mb_per_sim_s", Unit: "MiB/sim-s", Better: "lower", Moves: "sim_s_per_cpu_s and peak_rss_mb on all"},
		{Name: "exp.cell_ms_p50", Unit: "ms", Better: "lower", Moves: "job_p50_ms on service, cpu_ms_per_job on all"},
		{Name: "exp.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "cpu_ms_per_job and job_p50_ms on service; 0 on fig1 (cache off)"},
		{Name: "serve.submit_ms_p50", Unit: "ms", Better: "lower", Moves: "job_p50_ms on service"},
		{Name: "serve.submit_ms_p95", Unit: "ms", Better: "lower", Moves: "job_p95_ms on service"},
		{Name: "serve.queue_wait_ms_p50", Unit: "ms", Better: "lower", Moves: "job_p95_ms on service (queue wait rises before throughput stops rising)"},
		{Name: "serve.exec_ms_p50", Unit: "ms", Better: "lower", Moves: "jobs_per_s and job_p50_ms on service"},
		{Name: "serve.deduped", Unit: "count", Better: "higher", Moves: "jobs_per_s on service"},
		{Name: "serve.rejected", Unit: "count", Better: "lower", Moves: "error rate (failed/attempted) on service"},
		{Name: "serve.events_truncated", Unit: "count", Better: "lower", Moves: "known defect: /events streams that closed before the job's terminal event (internal/serve/job.go Job.transition sets the terminal state before appending job-finished); ungated"},
	}
	for _, b := range lbsBackends {
		l = append(l, metricDef{Name: "lbs.queries_per_s." + b, Unit: "1/s", Better: "higher",
			Moves: "cpu_ms_per_job on service; 0 on fig1 and defended"})
	}
	l = append(l, metricDef{Name: "bench.trace_overhead", Unit: "ratio", Better: "lower",
		Moves: "none: cost of tracing, traced against untraced sim_s_per_cpu_s (fig1, defended) or cpu_ms_per_job (service)"})
	for _, m := range selfShareModules {
		l = append(l, metricDef{Name: m + ".self_share", Unit: "ratio", Better: "lower", Moves: selfShareMoves[m]})
	}
	return l
}

var selfShareMoves = map[string]string{
	"sim":        "sim_s_per_cpu_s on fig1; about 0 on service",
	"radio":      "sim_s_per_cpu_s on fig1, then defended",
	"mac":        "sim_s_per_cpu_s on fig1",
	"mobility":   "sim_s_per_cpu_s on fig1",
	"neighbor":   "sim_s_per_cpu_s on defended (trust, tag gate), then fig1",
	"agfw":       "sim_s_per_cpu_s on fig1 AGFW cells",
	"gpsr":       "sim_s_per_cpu_s on fig1 GPSR cells",
	"routing":    "sim_s_per_cpu_s on fig1",
	"fault":      "sim_s_per_cpu_s and pdf on defended",
	"anoncrypto": "sim_s_per_cpu_s on defended (escrow, AuthAck MACs); cpu_ms_per_job on service (paperals RSA)",
	"core":       "sim_s_per_cpu_s on fig1 and defended (audit, result folding)",
	"metrics":    "sim_s_per_cpu_s on fig1",
	"traffic":    "sim_s_per_cpu_s on fig1",
	"geo":        "sim_s_per_cpu_s on fig1",
	"adversary":  "cpu_ms_per_job on service (LBS privacy scoring)",
	"trace":      "sim_s_per_cpu_s on fig1 (tracing is off, so about 0)",
	"exp":        "cpu_ms_per_job and job_p50_ms on service; about 0 on fig1",
	"serve":      "cpu_ms_per_job and job_p95_ms on service",
	"durable":    "cpu_ms_per_job on service (journal appends)",
	"dist":       "none here (no coordinator runs); 0",
	"lbs":        "cpu_ms_per_job on service",
	"locservice": "cpu_ms_per_job on service (paperals answers)",
	"runtime":    "sim_s_per_cpu_s and peak_rss_mb on all",
	"other":      "cpu_ms_per_job on service (HTTP, JSON); setup_s",
}

// metricValue is one reported number with its sample count.
type metricValue struct {
	Value float64
	N     int
}

// quartiles matches Python's statistics.quantiles(values, n=4) with its
// default exclusive method, the spread definition the bounds are
// checked against.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := sortedCopy(v)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// median is the middle value (mean of the two middle values for an even
// count).
func median(v []float64) float64 {
	s := sortedCopy(v)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile interpolates linearly between closest ranks.
func percentile(v []float64, p float64) float64 {
	s := sortedCopy(v)
	if len(s) == 0 {
		return math.NaN()
	}
	x := p / 100 * float64(len(s)-1)
	i := int(x)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (x-float64(i))*(s[i+1]-s[i])
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
