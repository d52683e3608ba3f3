// Command agrsim runs one simulation scenario of the anonymous
// geographic routing testbed and prints its metrics.
//
// Examples:
//
//	agrsim -proto agfw -nodes 50 -duration 900s
//	agrsim -proto gpsr -nodes 150 -interval 250ms -sniffer
//	agrsim -proto agfw-noack -nodes 112 -seed 7 -csv
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"anongeo"
	"anongeo/internal/core"
	"anongeo/internal/exp"
	"anongeo/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && err != flag.ErrHelp {
		fmt.Fprintln(os.Stderr, "agrsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("agrsim", flag.ContinueOnError)
	var (
		proto     = fs.String("proto", "agfw", "protocol: gpsr | agfw | agfw-noack")
		nodes     = fs.Int("nodes", 50, "number of nodes")
		duration  = fs.Duration("duration", 900*time.Second, "simulated time")
		seed      = fs.Int64("seed", 1, "random seed")
		interval  = fs.Duration("interval", 250*time.Millisecond, "per-flow CBR packet interval")
		payload   = fs.Int("payload", 64, "application payload bytes")
		flows     = fs.Int("flows", 30, "number of CBR flows")
		senders   = fs.Int("senders", 20, "number of distinct sending nodes")
		static    = fs.Bool("static", false, "disable mobility")
		perimeter = fs.Bool("perimeter", false, "enable GPSR perimeter recovery")
		policy    = fs.String("policy", "weighted", "AGFW next-hop policy: closest | freshest | weighted")
		expose    = fs.Bool("expose-mac", false, "AGFW misconfiguration: real source MAC addresses")
		realCrypt = fs.Bool("real-crypto", false, "use genuine RSA-512 trapdoors")
		authK     = fs.Int("authk", 0, "authenticated hellos with k ring decoys (0 = plain)")
		sniffer   = fs.Bool("sniffer", false, "attach a global eavesdropper and report its harvest")
		reach     = fs.Bool("reach-filter", true, "AGFW: skip possibly out-of-range next hops")
		csv       = fs.Bool("csv", false, "machine-readable one-line CSV output")
		traceN    = fs.Int("trace", 0, "print the last N router trace events")
		repeat    = fs.Int("repeat", 1, "run the scenario under that many consecutive seeds")
		parallel  = fs.Int("parallel", 0, "worker pool size for -repeat > 1 (0 = GOMAXPROCS)")
		cache     = fs.Bool("cache", false, "memoize results under "+exp.DefaultCacheDir+"/ (skipped with -sniffer or -trace)")
		progress  = fs.String("progress", "off", "run telemetry to stderr: off | stderr | jsonl")
		cpuProf   = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf   = fs.String("memprofile", "", "write a heap profile at exit to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "agrsim:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "agrsim:", err)
			}
		}()
	}

	cfg := anongeo.DefaultConfig()
	cfg.Nodes = *nodes
	cfg.Duration = *duration
	cfg.Seed = *seed
	cfg.PacketInterval = *interval
	cfg.PayloadBytes = *payload
	cfg.Flows = *flows
	cfg.Senders = *senders
	cfg.Static = *static
	cfg.Perimeter = *perimeter
	cfg.ExposeSenderMAC = *expose
	cfg.RealCrypto = *realCrypt
	cfg.AuthHelloK = *authK
	cfg.WithSniffer = *sniffer
	cfg.ReachFilter = *reach
	var tl *trace.Log
	if *traceN > 0 {
		tl = trace.NewLog(*traceN)
		cfg.Trace = tl
	}

	// Even a single scenario goes through the experiment orchestrator:
	// it contributes the result cache, telemetry, and (with -repeat)
	// seed batteries on a worker pool for free.
	grid := core.Grid{
		Base: cfg,
		Axes: []core.Axis{
			{Name: "protocol", Values: []string{*proto}},
			{Name: "policy", Values: []string{*policy}},
		},
		Repeats: *repeat,
	}
	opt, err := core.OptionsFromFlags(*parallel, 0, *cache, *progress)
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

	p := pts[0]
	for i, o := range p.Outs {
		cfg := p.Cells[i].Config
		res := o.Value
		s := res.Summary
		if *csv {
			fmt.Fprintf(out, "%s,%d,%d,%d,%.4f,%.3f,%.3f,%.2f\n",
				cfg.Protocol, cfg.Nodes, s.Sent, s.Delivered, s.DeliveryFraction,
				float64(s.AvgLatency)/1e6, float64(s.P95Latency)/1e6, s.AvgHops)
			continue
		}
		if i > 0 {
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "scenario : %v, %d nodes, %v, seed %d\n", cfg.Protocol, cfg.Nodes, cfg.Duration, cfg.Seed)
		fmt.Fprintf(out, "traffic  : %d flows from %d senders, %dB every %v\n", cfg.Flows, cfg.Senders, cfg.PayloadBytes, cfg.PacketInterval)
		fmt.Fprintf(out, "result   : %v\n", s)
		if len(s.Drops) > 0 {
			fmt.Fprintf(out, "drops    : %v\n", s.Drops)
		}
		fmt.Fprintf(out, "channel  : %d transmissions, %d collisions, %.1f MB on air\n",
			res.Channel.Transmissions, res.Channel.Collisions, float64(res.Channel.BitsSent)/8e6)
		if cfg.Protocol == anongeo.ProtoGPSR {
			fmt.Fprintf(out, "gpsr     : %+v\n", res.GPSR)
		} else {
			fmt.Fprintf(out, "agfw     : %+v\n", res.AGFW)
		}
		if res.Harvest != nil {
			h := res.Harvest
			fmt.Fprintf(out, "adversary: %d identities, %d MAC addrs, %d pseudonyms, %d data headers\n",
				len(h.ByIdentity), len(h.ByMAC), len(h.ByPseudonym), h.TrapdoorSightings)
		}
		if o.Cached {
			fmt.Fprintf(out, "wallclock: cache hit\n")
		} else {
			fmt.Fprintf(out, "wallclock: %v\n", o.Wall.Round(time.Millisecond))
		}
	}
	if tl != nil {
		fmt.Fprintf(out, "trace    : last %d events (%d evicted)\n", len(tl.Events()), tl.Dropped())
		if _, err := tl.WriteTo(out); err != nil {
			return err
		}
	}
	return nil
}
