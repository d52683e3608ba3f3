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
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"anongeo"
	"anongeo/internal/core"
	"anongeo/internal/exp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		axis     = flag.String("axis", "nodes", "swept parameter: nodes | interval-ms | payload | loss | churn | speed")
		values   = flag.String("values", "50,100,150", "comma-separated axis values")
		proto    = flag.String("proto", "agfw", "protocol: gpsr | agfw | agfw-noack")
		duration = flag.Duration("duration", 300*time.Second, "simulated time per cell")
		repeats  = flag.Int("repeats", 1, "seeds per cell (averaged)")
		seed     = flag.Int64("seed", 1, "base seed")
		parallel = flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
		cache    = flag.Bool("cache", false, "memoize cell results under "+exp.DefaultCacheDir+"/; a rerun of an interrupted sweep executes only the remainder")
		cacheGC  = flag.Duration("cache-gc", 0, "before running, evict cache entries older than this (0 = keep forever)")
		progress = flag.String("progress", "off", "run telemetry to stderr: off | stderr | jsonl")
		retries  = flag.Int("retries", 0, "extra attempts per failed cell (capped backoff)")
	)
	flag.Parse()

	base := anongeo.DefaultConfig()
	base.Duration = *duration
	base.PacketInterval = 300 * time.Millisecond
	switch *proto {
	case "gpsr":
		base.Protocol = anongeo.ProtoGPSR
	case "agfw":
		base.Protocol = anongeo.ProtoAGFW
	case "agfw-noack":
		base.Protocol = anongeo.ProtoAGFWNoAck
	default:
		return fmt.Errorf("unknown protocol %q", *proto)
	}
	if *repeats < 1 {
		*repeats = 1
	}

	// One cell per (axis value, repeat); the orchestrator returns them
	// in input order so aggregation below is position-based.
	var (
		cells []exp.Cell[anongeo.Config]
		raws  []string
	)
	for _, raw := range strings.Split(*values, ",") {
		raw = strings.TrimSpace(raw)
		v, err := strconv.ParseFloat(raw, 64)
		if err != nil {
			return fmt.Errorf("axis value %q: %w", raw, err)
		}
		raws = append(raws, raw)
		for rep := 0; rep < *repeats; rep++ {
			cfg := base
			cfg.Seed = *seed + int64(rep)
			if err := applyAxis(&cfg, *axis, v); err != nil {
				return err
			}
			cells = append(cells, exp.Cell[anongeo.Config]{
				Label:  fmt.Sprintf("%s=%s/rep %d", *axis, raw, rep),
				Config: cfg,
			})
		}
	}

	opt := core.SweepOptions{Parallel: *parallel, Retries: *retries}
	if *cache {
		opt.CacheDir = exp.DefaultCacheDir
	}
	hook, err := exp.HookForMode(*progress)
	if err != nil {
		return err
	}
	if hook != nil {
		opt.Hooks = append(opt.Hooks, hook)
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
	outs, err := orch.ExecuteContext(ctx, cells)
	if err != nil {
		return err
	}

	fmt.Printf("axis,%s,pdf,avg_latency_ms,p95_latency_ms,avg_hops,collisions\n", *axis)
	i := 0
	for _, raw := range raws {
		var pdf, lat, p95, hops, col float64
		for rep := 0; rep < *repeats; rep++ {
			res := outs[i].Value
			i++
			pdf += res.Summary.DeliveryFraction
			lat += float64(res.Summary.AvgLatency) / 1e6
			p95 += float64(res.Summary.P95Latency) / 1e6
			hops += res.Summary.AvgHops
			col += float64(res.Channel.Collisions)
		}
		n := float64(*repeats)
		fmt.Printf("%s,%s,%.4f,%.3f,%.3f,%.2f,%.0f\n", *axis, raw, pdf/n, lat/n, p95/n, hops/n, col/n)
	}
	return nil
}

// applyAxis mutates cfg along the chosen sweep axis.
func applyAxis(cfg *anongeo.Config, axis string, v float64) error {
	switch axis {
	case "nodes":
		cfg.Nodes = int(v)
	case "interval-ms":
		cfg.PacketInterval = time.Duration(v * float64(time.Millisecond))
	case "payload":
		cfg.PayloadBytes = int(v)
	case "loss":
		cfg.LossRate = v
	case "churn":
		cfg.ChurnFailures = int(v)
	case "speed":
		cfg.MaxSpeed = v
	default:
		return fmt.Errorf("unknown axis %q", axis)
	}
	return nil
}
