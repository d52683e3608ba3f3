package core

import (
	"context"
	"fmt"
	"io"
	"strconv"
	"text/tabwriter"
	"time"

	"anongeo/internal/exp"
)

// DensityPoint is one row of a Figure 1 series: the metrics for one
// (protocol, node count) cell.
type DensityPoint struct {
	Protocol Protocol
	Nodes    int
	Result   Result
}

// PDF is shorthand for the row's packet delivery fraction (Figure 1a).
func (p DensityPoint) PDF() float64 { return p.Result.Summary.DeliveryFraction }

// Latency is shorthand for the row's average end-to-end latency
// (Figure 1b).
func (p DensityPoint) Latency() time.Duration { return p.Result.Summary.AvgLatency }

// PaperNodeCounts is the density axis of Figure 1: the paper sweeps from
// the 50-node baseline up past the 112-node crossover it calls out.
var PaperNodeCounts = []int{50, 75, 100, 112, 125, 150}

// SweepOptions tunes how a sweep grid executes; the zero value matches
// the historical serial-equivalent behavior (one repeat, GOMAXPROCS
// workers, no cache, no telemetry). Parallel execution is bit-for-bit
// identical to serial: every cell owns its seed-derived engine.
type SweepOptions struct {
	// Repeats is the number of independent seeds per cell (<1 → 1).
	Repeats int
	// Parallel bounds the worker pool; ≤0 means GOMAXPROCS, 1 is serial.
	Parallel int
	// CacheDir, when non-empty, memoizes cell results on disk there
	// (conventionally exp.DefaultCacheDir, ".expcache").
	CacheDir string
	// Retries re-runs a failed cell that many extra times with capped
	// backoff before giving up on it.
	Retries int
	// Hooks receive run telemetry (exp.NewProgress, exp.NewJSONL, …).
	Hooks []exp.Hook
}

// OptionsFromFlags builds SweepOptions from the orchestrator flags the
// command-line front ends share: -parallel, -retries, -cache (under
// exp.DefaultCacheDir) and -progress (see exp.HookForMode).
func OptionsFromFlags(parallel, retries int, cache bool, progress string) (SweepOptions, error) {
	opt := SweepOptions{Parallel: parallel, Retries: retries}
	if cache {
		opt.CacheDir = exp.DefaultCacheDir
	}
	hook, err := exp.HookForMode(progress)
	if hook != nil {
		opt.Hooks = []exp.Hook{hook}
	}
	return opt, err
}

// Cacheable reports whether a config's result may be served from the
// experiment cache. Configs with observable side effects (an attached
// trace log) or results carrying non-serializable state (a sniffer
// harvest) always execute.
func Cacheable(cfg Config) bool {
	return cfg.Trace == nil && !cfg.WithSniffer
}

// NewOrchestrator builds the experiment orchestrator the sweeps run on,
// wired for core configs: core.RunContext as the cell runner, the Cacheable
// exemption, and simulated-duration telemetry. Front ends run their
// Grids on it.
func NewOrchestrator(opt SweepOptions) (*exp.Orchestrator[Config, Result], error) {
	o := &exp.Orchestrator[Config, Result]{
		RunCtx:      RunContext,
		Parallel:    opt.Parallel,
		Retries:     opt.Retries,
		Cacheable:   Cacheable,
		SimDuration: func(c Config) time.Duration { return c.Duration },
		Hooks:       opt.Hooks,
	}
	if opt.CacheDir != "" {
		cache, err := exp.Open(opt.CacheDir)
		if err != nil {
			return nil, err
		}
		o.Cache = cache
	}
	return o, nil
}

// DensityGrid is the Figure 1 grid: node count × protocol (protocol
// axis spellings) over base, each point run under repeats seeds.
func DensityGrid(base Config, nodeCounts []int, protocols []string, repeats int) Grid {
	nodes := make([]string, len(nodeCounts))
	for i, n := range nodeCounts {
		nodes[i] = strconv.Itoa(n)
	}
	return Grid{Base: base, Axes: []Axis{{Name: "nodes", Values: nodes}, {Name: "protocol", Values: protocols}}, Repeats: repeats}
}

func densityGrid(base Config, nodeCounts []int, protocols []Protocol, repeats int) Grid {
	names := make([]string, len(protocols))
	for i, p := range protocols {
		names[i] = ProtocolValue(p)
	}
	return DensityGrid(base, nodeCounts, names, repeats)
}

// SweepCells expands a Figure 1 grid — (node count × protocol ×
// repeat) over a base config — into orchestrator cells, the
// DensityGrid's cells in order. It panics on a protocol outside the
// Proto constants.
func SweepCells(base Config, nodeCounts []int, protocols []Protocol, repeats int) []exp.Cell[Config] {
	pts, err := densityGrid(base, nodeCounts, protocols, repeats).Points()
	if err != nil {
		panic(err)
	}
	return Cells(pts)
}

// DensityPoints folds a density grid's executed points into one
// DensityPoint each, averaging the point's repeats with meanResult.
func DensityPoints(pts []Point) []DensityPoint {
	out := make([]DensityPoint, len(pts))
	for i, p := range pts {
		rs := make([]Result, len(p.Outs))
		for j, o := range p.Outs {
			rs[j] = o.Value
		}
		cfg := p.Cells[0].Config
		out[i] = DensityPoint{Protocol: cfg.Protocol, Nodes: cfg.Nodes, Result: meanResult(rs)}
	}
	return out
}

// DensitySweepOpts is the fully tunable sweep: the Figure 1 grid
// executed on the exp orchestrator with optional parallelism, result
// caching, and telemetry. Protocols share seeds at each (density,
// repeat), so they face identical placements and flows.
func DensitySweepOpts(base Config, nodeCounts []int, protocols []Protocol, opt SweepOptions) ([]DensityPoint, error) {
	orch, err := NewOrchestrator(opt)
	if err != nil {
		return nil, err
	}
	pts, err := densityGrid(base, nodeCounts, protocols, opt.Repeats).Run(context.Background(), orch)
	if err != nil {
		return nil, fmt.Errorf("core: sweep: %w", err)
	}
	return DensityPoints(pts), nil
}

// meanResult folds per-repeat results into one cell: counter-style
// fields are summed and DeliveryFraction is re-derived from the summed
// Sent/Delivered counters, so the fraction and the counters it is
// quoted next to can never disagree. Latency and hop metrics are means
// of per-run values; in particular P95Latency across repeats is the
// mean of per-run p95s, not the p95 of the pooled latency population.
func meanResult(rs []Result) Result {
	if len(rs) == 1 {
		return rs[0]
	}
	out := rs[0]
	var hops float64
	var lat, p95 time.Duration
	for _, r := range rs[1:] {
		out.Summary.Sent += r.Summary.Sent
		out.Summary.Delivered += r.Summary.Delivered
		out.Summary.DroppedPackets += r.Summary.DroppedPackets
		out.Summary.InFlight += r.Summary.InFlight
		out.Summary.Duplicates += r.Summary.Duplicates
		out.Channel.Transmissions += r.Channel.Transmissions
		out.Channel.Collisions += r.Channel.Collisions
		out.Channel.Deliveries += r.Channel.Deliveries
		out.Channel.FadingLosses += r.Channel.FadingLosses
		out.Channel.JamLosses += r.Channel.JamLosses
		out.Channel.RxFrozen += r.Channel.RxFrozen
		out.Channel.BitsSent += r.Channel.BitsSent
	}
	for _, r := range rs {
		hops += r.Summary.AvgHops
		lat += r.Summary.AvgLatency
		p95 += r.Summary.P95Latency
	}
	n := time.Duration(len(rs))
	out.Summary.DeliveryFraction = 0
	if out.Summary.Sent > 0 {
		out.Summary.DeliveryFraction = float64(out.Summary.Delivered) / float64(out.Summary.Sent)
	}
	out.Summary.AvgHops = hops / float64(len(rs))
	out.Summary.AvgLatency = lat / n
	out.Summary.P95Latency = p95 / n
	return out
}

// WriteSweepTable renders sweep rows as an aligned table, one line per
// cell, mirroring how the paper's figures would be tabulated.
func WriteSweepTable(w io.Writer, points []DensityPoint) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "protocol\tnodes\tsent\tdelivered\tpdf\tavg_latency\tp95_latency\tavg_hops")
	for _, p := range points {
		s := p.Result.Summary
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.3f\t%v\t%v\t%.2f\n",
			p.Protocol, p.Nodes, s.Sent, s.Delivered, s.DeliveryFraction,
			s.AvgLatency.Round(10*time.Microsecond), s.P95Latency.Round(10*time.Microsecond), s.AvgHops)
	}
	return tw.Flush()
}

// WriteSweepCSV renders sweep rows as CSV for plotting.
func WriteSweepCSV(w io.Writer, points []DensityPoint) error {
	if _, err := fmt.Fprintln(w, "protocol,nodes,sent,delivered,pdf,avg_latency_ms,p95_latency_ms,avg_hops"); err != nil {
		return err
	}
	for _, p := range points {
		s := p.Result.Summary
		if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%.4f,%.3f,%.3f,%.2f\n",
			p.Protocol, p.Nodes, s.Sent, s.Delivered, s.DeliveryFraction,
			float64(s.AvgLatency)/1e6, float64(s.P95Latency)/1e6, s.AvgHops); err != nil {
			return err
		}
	}
	return nil
}
