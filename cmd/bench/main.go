// bench measures the simulator's wall-clock throughput on the Figure 1
// workload (N=50..150), its large-N scaling cells (N=1000 at Figure-1
// density, N=10000 at constant per-node area) and the LBS backends,
// writing the timings to BENCH_core.json. Result equality across
// refactors is the job of the result-digest table in internal/core,
// not of this program.
//
//	go run ./cmd/bench                        # default cells, writes BENCH_core.json
//	go run ./cmd/bench -quick                 # N=50 only, for smoke runs
//	go run ./cmd/bench -cells small,scale1k   # select cell groups
//	go run ./cmd/bench -gate BENCH_core.json  # perf-regression gate (CI)
//	go run ./cmd/bench -cpuprofile cpu.pprof -cells scale1k
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"anongeo/internal/core"
	"anongeo/internal/geo"
	"anongeo/internal/lbs"
	"anongeo/internal/neighbor"
)

// Cell is one benchmark measurement: a configuration timed on the
// simulator's hot path.
type Cell struct {
	Figure   string  `json:"figure"`
	Protocol string  `json:"protocol"`
	Nodes    int     `json:"nodes"`
	Seed     int64   `json:"seed"`
	SimSecs  float64 `json:"sim_seconds"`
	// AreaW/AreaH record the arena so scale cells (which grow the arena
	// to hold per-node density constant) stay comparable across PRs.
	AreaW float64 `json:"area_w"`
	AreaH float64 `json:"area_h"`

	FastWallS float64 `json:"fast_wall_s"`
	// SimPerWallFast is simulated seconds per wall-clock second.
	SimPerWallFast float64 `json:"sim_per_wall_fast"`
	PDF            float64 `json:"pdf"`
}

// Report is the BENCH_core.json document. Schema 2 adds gomaxprocs, the
// arena fields, and the N=10000 constant-density scale cells. Baselines
// written before the brute-force radio and the heap scheduler were
// retired also carry brute_*, speedup, parity, brute_skipped and
// scheduler fields; decoding ignores them.
type Report struct {
	Schema    string `json:"schema"`
	CreatedAt string `json:"created_at"`
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	// GOMAXPROCS is the scheduler width the run executed under; the
	// simulator is single-threaded per run, but GC assist and the Go
	// runtime background work still scale with it.
	GOMAXPROCS int    `json:"gomaxprocs"`
	Cells      []Cell `json:"cells"`
}

func fig1aConfig(proto core.Protocol, nodes int, seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Protocol = proto
	cfg.Nodes = nodes
	cfg.Seed = seed
	cfg.Area = geo.NewRect(1500, 300)
	cfg.Duration = 60 * time.Second
	cfg.PacketInterval = 300 * time.Millisecond
	cfg.PayloadBytes = 64
	cfg.Policy = neighbor.PolicyWeighted
	cfg.ReachFilter = true
	return cfg
}

// scaleConfig is the constant-density scaling cell: the Figure 1 arena
// grown by sqrt(N/50) per axis so each node keeps the paper's ~9000 m²,
// which is how fleet size — not interference density — scales.
func scaleConfig(proto core.Protocol, nodes int, seed int64) core.Config {
	cfg := fig1aConfig(proto, nodes, seed)
	f := math.Sqrt(float64(nodes) / 50.0)
	cfg.Area = geo.NewRect(round2(1500*f), round2(300*f))
	return cfg
}

func round2(v float64) float64 { return math.Round(v*100) / 100 }

// timeFast times one cell: a discarded warmup (so the timed runs pay no
// first-touch allocator costs), then reps timed runs, reporting the
// minimum, the standard low-noise estimator. A forced collection before
// every timed run keeps one run's garbage from being billed to the
// next. With warmup false the first (cold) run is the measurement — for
// cells so large that a second run doubles total bench time for little
// noise reduction.
func timeFast(cfg core.Config, reps int, warmup bool) (res core.Result, wallS float64, err error) {
	wallS = math.Inf(1)
	if warmup {
		if res, err = core.Run(cfg); err != nil {
			return
		}
	}
	for r := 0; r < reps; r++ {
		runtime.GC()
		start := time.Now()
		if res, err = core.Run(cfg); err != nil {
			return
		}
		if s := time.Since(start).Seconds(); s < wallS {
			wallS = s
		}
	}
	return
}

func main() {
	out := flag.String("out", "BENCH_core.json", "output path")
	quick := flag.Bool("quick", false, "run only the N=50 small cells")
	cells := flag.String("cells", "small,scale1k,scale10k,lbs", "comma-separated cell groups: small | scale1k | scale10k | lbs")
	reps := flag.Int("reps", 5, "timed repetitions per cell (minimum is reported)")
	gatePath := flag.String("gate", "", "baseline BENCH_core.json: compare sim_per_wall_fast per cell and fail on regression beyond -gate-threshold")
	gateThreshold := flag.Float64("gate-threshold", 0.15, "fractional throughput loss tolerated by -gate")
	handicap := flag.Float64("handicap", 1, "deflate measured throughput by this factor in the -gate comparison only (gate self-test)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole bench run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	groups := map[string]bool{}
	for _, g := range strings.Split(*cells, ",") {
		groups[strings.TrimSpace(g)] = true
	}
	if *quick {
		groups = map[string]bool{"small": true}
	}
	densities := []int{50, 112, 150}
	if *quick {
		densities = []int{50}
	}
	protos := []core.Protocol{core.ProtoGPSR, core.ProtoAGFW}
	const seed = 1

	rep := Report{
		Schema:     "anongeo-bench/2",
		CreatedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}

	if groups["small"] {
		for _, proto := range protos {
			for _, n := range densities {
				cfg := fig1aConfig(proto, n, seed)
				res, wallS, err := timeFast(cfg, *reps, true)
				if err != nil {
					fatal(err)
				}
				simS := cfg.Duration.Seconds()
				c := Cell{
					Figure:         "1a",
					Protocol:       proto.String(),
					Nodes:          n,
					Seed:           seed,
					SimSecs:        simS,
					AreaW:          cfg.Area.Width(),
					AreaH:          cfg.Area.Height(),
					FastWallS:      round(wallS),
					SimPerWallFast: round(simS / wallS),
					PDF:            round(res.Summary.DeliveryFraction),
				}
				rep.Cells = append(rep.Cells, c)
				fmt.Printf("%-12s N=%-5d %7.3fs  (%6.0f sim-s/wall-s, pdf %.3f)\n",
					proto, n, c.FastWallS, c.SimPerWallFast, c.PDF)
			}
		}
	}

	// Scale cells: scale1k keeps the Figure-1 arena — 20× the paper's
	// density, an interference stress test. scale10k grows the arena to
	// hold density constant — a fleet-size stress test.
	type scaleCell struct {
		group  string
		figure string
		proto  core.Protocol
		nodes  int
		cfg    func() core.Config
		reps   int
		warmup bool
	}
	var scales []scaleCell
	if groups["scale1k"] {
		for _, proto := range protos {
			p := proto
			scales = append(scales, scaleCell{
				group: "scale1k", figure: "1a-scale", proto: p, nodes: 1000,
				cfg:    func() core.Config { return fig1aConfig(p, 1000, seed) },
				reps:   min(*reps, 3),
				warmup: true,
			})
		}
	}
	if groups["scale10k"] {
		for _, proto := range protos {
			p := proto
			scales = append(scales, scaleCell{
				group: "scale10k", figure: "1a-scale-density", proto: p, nodes: 10000,
				cfg:    func() core.Config { return scaleConfig(p, 10000, seed) },
				reps:   1,
				warmup: false,
			})
		}
	}
	for _, sc := range scales {
		cfg := sc.cfg()
		res, wallS, err := timeFast(cfg, sc.reps, sc.warmup)
		if err != nil {
			fatal(err)
		}
		simS := cfg.Duration.Seconds()
		c := Cell{
			Figure:         sc.figure,
			Protocol:       sc.proto.String(),
			Nodes:          sc.nodes,
			Seed:           seed,
			SimSecs:        simS,
			AreaW:          cfg.Area.Width(),
			AreaH:          cfg.Area.Height(),
			FastWallS:      round(wallS),
			SimPerWallFast: round(simS / wallS),
			PDF:            round(res.Summary.DeliveryFraction),
		}
		rep.Cells = append(rep.Cells, c)
		fmt.Printf("%-12s N=%-5d %7.3fs  (%6.0f sim-s/wall-s, pdf %.3f)\n",
			sc.proto, sc.nodes, c.FastWallS, c.SimPerWallFast, c.PDF)
	}

	// LBS query-serving throughput, one cell per anonymization backend at
	// its default parameter. Figure "lbs" keys these cells in the gate;
	// Protocol carries the backend, Nodes the client population, and PDF
	// the answered fraction.
	if groups["lbs"] {
		for _, b := range lbs.Backends() {
			cfg := lbsBenchConfig(b)
			res, wallS, err := timeLBS(cfg, min(*reps, 3))
			if err != nil {
				fatal(err)
			}
			simS := cfg.Duration.Seconds()
			c := Cell{
				Figure:         "lbs",
				Protocol:       string(b),
				Nodes:          cfg.Clients,
				Seed:           cfg.Seed,
				SimSecs:        simS,
				AreaW:          cfg.Area.Width(),
				AreaH:          cfg.Area.Height(),
				FastWallS:      round(wallS),
				SimPerWallFast: round(simS / wallS),
				PDF:            round(float64(res.Answered) / float64(res.Queries)),
			}
			rep.Cells = append(rep.Cells, c)
			fmt.Printf("lbs/%-8s N=%-5d %7.3fs  (%6.0f sim-s/wall-s, answered %.3f)\n",
				b, cfg.Clients, c.FastWallS, c.SimPerWallFast, c.PDF)
		}
	}

	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		f.Close()
	}

	if *gatePath != "" {
		if err := gate(rep, *gatePath, *gateThreshold, *handicap); err != nil {
			fatal(err)
		}
	}
}

// gate compares every measured cell's fast-path throughput against the
// committed baseline and fails on a regression beyond threshold. Cells
// missing from the baseline are skipped (new cells are not regressions);
// a gate that matched nothing fails as vacuous. handicap deflates the
// measured side — a self-test hook proving the gate actually trips.
func gate(rep Report, basePath string, threshold, handicap float64) error {
	raw, err := os.ReadFile(basePath)
	if err != nil {
		return fmt.Errorf("gate: %w", err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("gate: parsing %s: %w", basePath, err)
	}
	type key struct {
		figure, proto string
		nodes         int
		seed          int64
	}
	baseline := map[key]Cell{}
	for _, c := range base.Cells {
		baseline[key{c.Figure, c.Protocol, c.Nodes, c.Seed}] = c
	}
	compared, regressed := 0, 0
	for _, c := range rep.Cells {
		b, ok := baseline[key{c.Figure, c.Protocol, c.Nodes, c.Seed}]
		if !ok || b.SimPerWallFast <= 0 {
			continue
		}
		compared++
		got := c.SimPerWallFast / handicap
		ratio := got / b.SimPerWallFast
		status := "ok"
		if ratio < 1-threshold {
			status = "REGRESSION"
			regressed++
		}
		fmt.Printf("gate: %-12s N=%-5d %8.1f vs baseline %8.1f sim-s/wall-s (%+.1f%%)  %s\n",
			c.Protocol, c.Nodes, got, b.SimPerWallFast, (ratio-1)*100, status)
	}
	if compared == 0 {
		return fmt.Errorf("gate: no measured cell matched the baseline %s — gate is vacuous", basePath)
	}
	if regressed > 0 {
		return fmt.Errorf("gate: %d/%d cells regressed more than %.0f%% vs %s", regressed, compared, threshold*100, basePath)
	}
	fmt.Printf("gate: %d cells within %.0f%% of %s\n", compared, threshold*100, basePath)
	return nil
}

// lbsBenchConfig is one LBS throughput cell: a backend at its default
// parameter over the paper's arena. The cheap backends serve 100k
// queries so their wall times are dominated by the workload rather than
// timer noise; paperals keeps 10k — each of its queries pays an RSA
// decrypt, which is the cost being measured.
func lbsBenchConfig(b lbs.Backend) lbs.Config {
	cfg := lbs.DefaultConfig()
	cfg.Clients = 100
	cfg.Queries = 100000
	cfg.Backend = b
	cfg.K, cfg.GridLevel, cfg.Epsilon, cfg.KeyBits = 0, 0, 0, 0
	switch b {
	case lbs.BackendKAnon:
		cfg.K = 5
	case lbs.BackendGridCloak:
		cfg.GridLevel = 5
	case lbs.BackendGeoInd:
		cfg.Epsilon = 0.02
	case lbs.BackendPaperALS:
		cfg.KeyBits = 512
		cfg.Queries = 10000
	}
	return cfg
}

// timeLBS times one LBS cell like timeFast: a discarded warmup, then
// reps timed runs, reporting the minimum.
func timeLBS(cfg lbs.Config, reps int) (res lbs.Result, wallS float64, err error) {
	wallS = math.Inf(1)
	if res, err = lbs.Run(cfg); err != nil {
		return
	}
	for r := 0; r < reps; r++ {
		runtime.GC()
		start := time.Now()
		if res, err = lbs.Run(cfg); err != nil {
			return
		}
		if s := time.Since(start).Seconds(); s < wallS {
			wallS = s
		}
	}
	return
}

// round trims timings to a stable number of digits so the committed
// report diffs cleanly.
func round(v float64) float64 {
	return float64(int64(v*1000+0.5)) / 1000
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}
