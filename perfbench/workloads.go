package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"anongeo/internal/core"
	"anongeo/internal/exp"
	"anongeo/internal/fault"
	"anongeo/internal/geo"
	"anongeo/internal/lbs"
	"anongeo/internal/neighbor"
	"anongeo/internal/serve"
)

// workload is one benchmark input set. The comments on each generator
// say why it is in the benchmark; BENCHMARK.json repeats that in one
// line per workload.
type workload struct {
	Name string
	Why  string
}

var workloads = []workload{
	{Name: "fig1", Why: "the paper's Figure 1 grid (GPSR, AGFW, AGFW-noACK x N 50/100/150), serial and uncached: the event-loop layers do the work"},
	{Name: "defended", Why: "20% attacker fleets on a Gilbert-Elliott channel against trust, revocation and AuthAck: the only run of fault, trust, escrow and the tag gate"},
	{Name: "service", Why: "the agrsimd daemon under closed-loop clients mixing fresh sweeps, LBS grids, cache-hit overlaps and dedupe re-POSTs: serve, exp cache, durable, lbs"},
}

// Grid shapes. Both simulation grids repeat each scenario over many
// short independent placements rather than a few long ones: one
// placement's topology moves a cell's cost and delivery by tens of
// percent, and with at least 100 cells per grid the totals, the median
// and the 95th percentile of cell cost a seed reports are order
// statistics over many placements instead of the pick of a few. Every
// cell keeps DefaultConfig's 10 s warm-up, so 15 s cells carry 5 s of
// measured traffic.
const (
	fig1Repeats  = 12 // 3 protocols × 3 densities × 12 = 108 cells
	fig1Duration = 15 * time.Second
	defRepeats   = 20 // 5 attack scenarios × 20 = 100 cells
	defDuration  = 15 * time.Second
	floodRate    = 5 // junk hellos per second per flooder
)

var fig1Protocols = []core.Protocol{core.ProtoGPSR, core.ProtoAGFW, core.ProtoAGFWNoAck}
var fig1Nodes = []int{50, 100, 150}

// fig1Cells is the paper's own evaluation and the path most users run:
// core.SweepCells over the Figure 1 axes with the oracle location
// service and modeled trapdoors (the defaults), one base seed drawn
// from the benchmark seed.
func fig1Cells(seed int64) []exp.Cell[core.Config] {
	rng := rand.New(rand.NewSource(seed))
	base := core.DefaultConfig()
	base.Duration = fig1Duration
	base.Seed = rng.Int63n(1 << 40)
	return core.SweepCells(base, fig1Nodes, fig1Protocols, fig1Repeats)
}

// defendedCells are the E12/E14 adversary scenarios: a 20% attacker
// fleet over a bursty Gilbert–Elliott channel. GPSR runs TrustRelay
// against position forgers and junk-hello floods; AGFW runs TrustRelay,
// Revocation and AuthAck against forgers, ACK spoofers and floods. It
// is the only workload where internal/fault's attacks, neighbor.Trust,
// the revocation registry, escrow and AuthAck run, on the same neighbor
// and routing layers as fig1 but through the trusted choosers.
func defendedCells(seed int64) []exp.Cell[core.Config] {
	rng := rand.New(rand.NewSource(seed))
	channel := fault.Entry{Kind: fault.KindGilbertElliott, PGood: 0.01, PBad: 0.3,
		MeanGood: 5 * time.Second, MeanBad: 500 * time.Millisecond}
	attacks := []struct {
		name  string
		proto core.Protocol
		entry fault.Entry
	}{
		{"bogus", core.ProtoGPSR, fault.Entry{Kind: fault.KindBogusBeacon, Fraction: 0.2, P: 1}},
		{"flood", core.ProtoGPSR, fault.Entry{Kind: fault.KindFlood, Fraction: 0.2, Rate: floodRate}},
		{"bogus", core.ProtoAGFW, fault.Entry{Kind: fault.KindBogusBeacon, Fraction: 0.2, P: 1}},
		{"ackspoof", core.ProtoAGFW, fault.Entry{Kind: fault.KindAckSpoof, Fraction: 0.2, P: 1}},
		{"flood", core.ProtoAGFW, fault.Entry{Kind: fault.KindFlood, Fraction: 0.2, Rate: floodRate}},
	}
	var cells []exp.Cell[core.Config]
	for rep := 0; rep < defRepeats; rep++ {
		// Both protocols face the same placements and fleet per repeat.
		cellSeed := rng.Int63n(1 << 40)
		for _, a := range attacks {
			cfg := core.DefaultConfig()
			cfg.Seed = cellSeed
			cfg.Protocol = a.proto
			cfg.Duration = defDuration
			cfg.PacketInterval = 300 * time.Millisecond
			cfg.TrustRelay = true
			if a.proto == core.ProtoAGFW {
				rc := neighbor.DefaultRevocationConfig()
				cfg.Revocation = &rc
				cfg.AuthAck = true
			}
			cfg.Faults = &fault.Plan{Entries: []fault.Entry{channel, a.entry}}
			cells = append(cells, exp.Cell[core.Config]{
				Label:  fmt.Sprintf("%s/%v/rep %d", a.name, a.proto, rep),
				Config: cfg,
			})
		}
	}
	return cells
}

// canaryConfig is one AGFW cell on the in-band anonymous location
// service, the path whose replays differ (see core.ls_replay_mismatch).
func canaryConfig(seed int64) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Nodes = 40
	cfg.Duration = 40 * time.Second
	cfg.LocationService = core.LSALS
	return cfg
}

// Service job kinds.
const (
	kindSweep   = "sweep"   // fresh small sweep grid: compute, cache writes, WAL appends
	kindLBS     = "lbs"     // fresh LBS grid over all four backends
	kindOverlap = "overlap" // a sub-grid of an earlier sweep: cache reads only
	kindRepost  = "repost"  // the exact body of an earlier job: dedupe
)

// jobBlock is the mix: every consecutive block of 20 jobs holds these
// kinds in a seeded order, so each seed's stream has the same
// composition and differs only in order and content. No agrsimd traffic
// log exists to copy shares from, so they follow three stated rules:
//
//   - The two compute paths weigh the same in cpu_ms_per_job: fresh
//     sweeps (core, exp, durable) and fresh LBS grids (lbs, locservice,
//     anoncrypto) each take about half of the daemon's execution time.
//     One LBS job costs about six sweep jobs (its paperals cell does the
//     RSA work), hence 12 sweeps to 2 LBS grids.
//   - Reads sit beside writes: cache-hit overlaps and dedupe re-POSTs
//     are 30% of requests, split evenly, so a change that speeds the
//     write path and slows a read path moves jobs_per_s and job_p50_ms.
//   - Each latency percentile falls inside one kind's latency mode, not
//     between two: the median inside the sweeps (reads are the cheapest
//     30%, sweeps the next 60%), p95 inside the LBS grids (the top 10%).
//
// The traced run prints each kind's measured share of jobs and of
// daemon execution time, so the first rule can be checked on any host;
// on a 2-vCPU x86 VM, sweeps took 52–54% and LBS grids 46–48%.
var jobBlock = []string{
	kindSweep, kindSweep, kindSweep, kindSweep, kindSweep, kindSweep,
	kindSweep, kindSweep, kindSweep, kindSweep, kindSweep, kindSweep,
	kindLBS, kindLBS,
	kindOverlap, kindOverlap, kindOverlap,
	kindRepost, kindRepost, kindRepost,
}

// Sweep jobs are four-cell grids (N 20/30 × GPSR/AGFW) of 10 simulated
// seconds, the small grid a client submits to explore one setting; LBS
// jobs are one point per backend with 8 clients and lbsQueries queries.
var (
	sweepNodes     = []int{20, 30}
	sweepProtocols = []string{"gpsr", "agfw"}
)

const (
	sweepDuration = 10 * time.Second
	lbsQueries    = 250
)

// serviceJob is one request of the service workload's seeded stream.
type serviceJob struct {
	Index int
	Kind  string
	Path  string
	Body  []byte
	// Of is the earlier job an overlap or repost refers to (-1 for fresh
	// jobs); the client waits for it to finish before posting, so the
	// cache hits and dedupes are deterministic.
	Of int
	// SimSeconds is the simulated time the job's sweep cells cover.
	SimSeconds float64
	// Cells is the job's grid size.
	Cells int
	// Queries is the LBS query count of each cell (LBS jobs only).
	Queries int
}

// jobStream yields the service workload's jobs in a fixed order: job k
// depends only on the seed and k, however many clients consume it and
// however long the run lasts.
type jobStream struct {
	mu    sync.Mutex
	rng   *rand.Rand
	jobs  []serviceJob
	block []string // the rest of the current block of kinds
	// sweeps holds each fresh sweep's request, for overlaps; used
	// records which (sweep, variant) sub-grids were already posted.
	sweeps map[int]serve.SweepRequest
	used   map[[2]int]bool
}

func newJobStream(seed int64) *jobStream {
	return &jobStream{
		rng:    rand.New(rand.NewSource(seed)),
		sweeps: map[int]serve.SweepRequest{},
		used:   map[[2]int]bool{},
	}
}

// job returns job k, generating the stream up to it.
func (s *jobStream) job(k int) serviceJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.jobs) <= k {
		s.jobs = append(s.jobs, s.generate(len(s.jobs)))
	}
	return s.jobs[k]
}

// refGap keeps overlap and repost targets at least this far behind, so
// with two clients the target is almost always finished already.
const refGap = 3

func (s *jobStream) generate(k int) serviceJob {
	if len(s.block) == 0 {
		s.block = append([]string(nil), jobBlock...)
		s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	kind := s.block[0]
	s.block = s.block[1:]
	// Draw the reference unconditionally so the random stream does not
	// depend on which fallbacks fire.
	ref := -1
	if k >= refGap {
		ref = s.rng.Intn(k - refGap + 1)
	}
	variant := s.rng.Intn(4)
	switch kind {
	case kindRepost:
		if ref >= 0 {
			j := s.jobs[ref]
			j.Index, j.Kind, j.Of = k, kindRepost, ref
			return j
		}
	case kindOverlap:
		if ref >= 0 {
			if base, ok := s.latestSweepAtOrBefore(ref); ok && !s.used[[2]int{base, variant}] {
				s.used[[2]int{base, variant}] = true
				req := s.sweeps[base]
				switch variant {
				case 0, 1:
					req.Protocols = []string{sweepProtocols[variant]}
				default:
					req.NodeCounts = []int{sweepNodes[variant-2]}
				}
				return s.sweepJob(k, kindOverlap, base, req)
			}
		}
	case kindLBS:
		return s.lbsJob(k)
	}
	base := core.DefaultConfig()
	base.Seed = s.rng.Int63n(1 << 40)
	base.Area = geo.NewRect(800, 300)
	base.Pause = 0
	base.Duration = sweepDuration
	base.Warmup = 2 * time.Second
	base.Flows, base.Senders = 5, 5
	base.PacketInterval = 250 * time.Millisecond
	req := serve.SweepRequest{Base: base, NodeCounts: sweepNodes, Protocols: sweepProtocols}
	s.sweeps[k] = req
	return s.sweepJob(k, kindSweep, -1, req)
}

// latestSweepAtOrBefore finds the newest fresh sweep with index ≤ k.
func (s *jobStream) latestSweepAtOrBefore(k int) (int, bool) {
	for i := k; i >= 0; i-- {
		if _, ok := s.sweeps[i]; ok {
			return i, true
		}
	}
	return 0, false
}

func (s *jobStream) sweepJob(k int, kind string, of int, req serve.SweepRequest) serviceJob {
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a core.Config always encodes
	}
	cells := len(req.NodeCounts) * len(req.Protocols)
	return serviceJob{Index: k, Kind: kind, Path: "/v1/sweeps", Body: body, Of: of,
		Cells: cells, SimSeconds: float64(cells) * req.Base.Duration.Seconds()}
}

func (s *jobStream) lbsJob(k int) serviceJob {
	base := lbs.DefaultConfig()
	base.Seed = s.rng.Int63n(1 << 40)
	base.Clients = 8
	base.Queries = lbsQueries
	base.Duration = 30 * time.Second
	base.MaxTrackSightings = 2000
	req := lbs.SweepRequest{
		Base:          base,
		Backends:      lbsBackends,
		Ks:            []int{5},
		GridLevels:    []int{5},
		Epsilons:      []float64{0.02},
		UpdateSeconds: []float64{10},
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return serviceJob{Index: k, Kind: kindLBS, Path: "/v1/lbs", Body: body, Of: -1,
		Cells: len(lbsBackends), Queries: lbsQueries}
}
