// Command sweep runs one protocol across a swept parameter axis and
// prints a CSV series — the generic version of cmd/figures for exploring
// operating points beyond the paper's:
//
//	sweep -axis nodes -values 25,50,100,200
//	sweep -axis interval-ms -values 100,200,300,500 -proto gpsr
//	sweep -axis loss -values 0,0.05,0.1,0.2 -proto agfw-noack
//	sweep -axis churn -values 0,5,10,20
//	sweep -axis payload -values 64,128,256,512
//
// Cells execute on the internal/exp orchestrator: -parallel bounds the
// worker pool (0 = GOMAXPROCS; output is identical at any width),
// -cache memoizes finished cells under .expcache/, and -progress
// streams run telemetry to stderr.
//
// -cache also makes an interrupted sweep resumable: every finished cell
// is in the cache, so after kill -9 mid-sweep, rerunning the same
// command executes only the remainder and prints the identical CSV.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"anongeo"
	"anongeo/internal/core"
	"anongeo/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		axis     = fs.String("axis", "nodes", "swept parameter: nodes | interval-ms | payload | loss | churn | speed (or any grid axis: see README)")
		values   = fs.String("values", "50,100,150", "comma-separated axis values")
		proto    = fs.String("proto", "agfw", "protocol: gpsr | agfw | agfw-noack")
		duration = fs.Duration("duration", 300*time.Second, "simulated time per cell")
		repeats  = fs.Int("repeats", 1, "seeds per cell (averaged)")
		seed     = fs.Int64("seed", 1, "base seed")
		parallel = fs.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
		cache    = fs.Bool("cache", false, "memoize cell results under "+exp.DefaultCacheDir+"/; a rerun of an interrupted sweep executes only the remainder")
		cacheGC  = fs.Duration("cache-gc", 0, "before running, evict cache entries older than this (0 = keep forever)")
		progress = fs.String("progress", "off", "run telemetry to stderr: off | stderr | jsonl")
		retries  = fs.Int("retries", 0, "extra attempts per failed cell (capped backoff)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	base := anongeo.DefaultConfig()
	base.Seed = *seed
	base.Duration = *duration
	base.PacketInterval = 300 * time.Millisecond
	grid := core.Grid{
		Base: base,
		Axes: []core.Axis{
			{Name: "protocol", Values: []string{*proto}},
			{Name: *axis, Values: strings.Split(*values, ",")},
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
	if orch.Cache != nil && *cacheGC > 0 {
		if n, err := orch.Cache.Prune(0, *cacheGC); err != nil {
			fmt.Fprintln(os.Stderr, "sweep: cache gc:", err)
		} else if n > 0 {
			fmt.Fprintf(os.Stderr, "sweep: cache gc evicted %d entries\n", n)
		}
	}

	// Ctrl-C cancels the grid instead of leaving workers mid-cell: the
	// context reaches into each in-flight simulation's event loop.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	pts, err := grid.Run(ctx, orch)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "axis,%s,pdf,avg_latency_ms,p95_latency_ms,avg_hops,collisions\n", *axis)
	for _, p := range pts {
		var pdf, lat, p95, hops, col float64
		for _, o := range p.Outs {
			res := o.Value
			pdf += res.Summary.DeliveryFraction
			lat += float64(res.Summary.AvgLatency) / 1e6
			p95 += float64(res.Summary.P95Latency) / 1e6
			hops += res.Summary.AvgHops
			col += float64(res.Channel.Collisions)
		}
		n := float64(len(p.Outs))
		fmt.Fprintf(out, "%s,%s,%.4f,%.3f,%.3f,%.2f,%.0f\n", *axis, p.Coords[1], pdf/n, lat/n, p95/n, hops/n, col/n)
	}
	return nil
}
