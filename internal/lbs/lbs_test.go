package lbs

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"anongeo/internal/geo"
)

// testConfig is a small, fast workload for one backend.
func testConfig(b Backend) Config {
	cfg := DefaultConfig()
	cfg.Clients = 24
	cfg.Queries = 1500
	cfg.Duration = 60 * time.Second
	cfg.Backend = b
	cfg.K, cfg.GridLevel, cfg.Epsilon, cfg.KeyBits = 0, 0, 0, 0
	switch b {
	case BackendKAnon:
		cfg.K = 5
	case BackendGridCloak:
		cfg.GridLevel = 4
	case BackendGeoInd:
		cfg.Epsilon = 0.02
	case BackendPaperALS:
		cfg.KeyBits = 512
	}
	return cfg
}

// Every backend must be a pure function of its config: two runs with
// the same seed agree field for field (RSA randomness must never reach
// a metric).
func TestRunDeterministic(t *testing.T) {
	for _, b := range Backends() {
		b := b
		t.Run(string(b), func(t *testing.T) {
			t.Parallel()
			cfg := testConfig(b)
			r1, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			r2, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(r1, r2) {
				t.Fatalf("same seed, different results:\n%+v\n%+v", r1, r2)
			}
			if r1.Answered == 0 {
				t.Fatalf("no queries answered: %+v", r1)
			}
			if r1.Epochs == 0 || r1.Reports != r1.Epochs*cfg.Clients {
				t.Fatalf("want %d reports over %d epochs, got %+v", r1.Epochs*cfg.Clients, r1.Epochs, r1)
			}
		})
	}
}

// A sweep grid must be bit-identical at any worker-pool width.
func TestSweepParallelWidths(t *testing.T) {
	req := SweepRequest{Base: testConfig(BackendKAnon)}
	req.Base.Queries = 500
	req.Ks = []int{2, 6}
	req.GridLevels = []int{3}
	req.Epsilons = []float64{0.05}
	req.UpdateSeconds = []float64{10}
	req, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	var ref []CurvePoint
	for _, par := range []int{1, 4} {
		orch, err := NewOrchestrator(Options{Parallel: par})
		if err != nil {
			t.Fatal(err)
		}
		outs, err := orch.Execute(req.Cells())
		if err != nil {
			t.Fatal(err)
		}
		points := Fold(req, outs)
		if ref == nil {
			ref = points
			continue
		}
		if !reflect.DeepEqual(ref, points) {
			t.Fatalf("parallel=%d diverged from serial:\n%+v\n%+v", par, ref, points)
		}
	}
	seen := map[string]int{}
	for _, p := range ref {
		seen[p.Backend]++
	}
	for _, b := range Backends() {
		if seen[string(b)] == 0 {
			t.Fatalf("backend %s missing from folded curve: %v", b, seen)
		}
	}
}

// kanon must never emit a cloak covering fewer than k clients, at any
// snapshot geometry the mobility model can produce.
func TestKAnonCloakInvariant(t *testing.T) {
	cfg := testConfig(BackendKAnon)
	for _, k := range []int{2, 5, 12, 24} {
		cfg.K = k
		an, err := newAnonymizer(cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		ka := an.(*kAnon)
		rng := rand.New(rand.NewSource(int64(k)))
		for epoch := 0; epoch < 25; epoch++ {
			pos := make([]geo.Point, cfg.Clients)
			for i := range pos {
				pos[i] = geo.Point{X: rng.Float64() * 1500, Y: rng.Float64() * 300}
			}
			exps, _, err := ka.BeginEpoch(0, pos)
			if err != nil {
				t.Fatal(err)
			}
			for i, box := range ka.boxes {
				occ := 0
				for _, q := range pos {
					if box.Contains(q) {
						occ++
					}
				}
				if occ < k {
					t.Fatalf("k=%d: client %d cloak %v covers %d < k clients", k, i, box, occ)
				}
				if !box.Contains(pos[i]) {
					t.Fatalf("k=%d: client %d cloak %v excludes its owner at %v", k, i, box, pos[i])
				}
			}
			for _, e := range exps {
				if e.Hidden || e.Suppressed {
					t.Fatalf("k=%d <= clients: report unexpectedly hidden: %+v", k, e)
				}
				if e.ReidProb > 1/float64(k)+1e-12 {
					t.Fatalf("k=%d: reid prob %v exceeds 1/k", k, e.ReidProb)
				}
			}
		}
	}
}

// The n<k degenerate case: the cloaking agent must suppress reports
// entirely rather than emit an undersized cloak, and queries must go
// unanswered.
func TestKAnonDegenerateSuppression(t *testing.T) {
	cfg := testConfig(BackendKAnon)
	cfg.Clients = 4
	cfg.Buddies = 2
	cfg.Queries = 200
	cfg.K = 9 // more than the whole population
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answered != 0 {
		t.Fatalf("suppressed backend answered %d queries", res.Answered)
	}
	if res.SuppressedEpochs != res.Epochs {
		t.Fatalf("want every epoch suppressed, got %d/%d", res.SuppressedEpochs, res.Epochs)
	}
	if res.TotalSightings != 0 {
		t.Fatalf("suppressed backend leaked %d sightings", res.TotalSightings)
	}
	if res.HiddenReports != res.Reports || res.Reports == 0 {
		t.Fatalf("want all %d reports hidden, got %d", res.Reports, res.HiddenReports)
	}
	if res.ReportBytes != 0 {
		t.Fatalf("suppressed backend sent %d report bytes", res.ReportBytes)
	}
}

// paperals answers must be exact up to float32 sealing plus staleness,
// and its reports must stay at the prior re-identification probability.
func TestPaperALSExactness(t *testing.T) {
	cfg := testConfig(BackendPaperALS)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Answered != cfg.Queries {
		t.Fatalf("paperals answered %d of %d", res.Answered, cfg.Queries)
	}
	// Staleness bound: a target moves at most MaxSpeed * UpdateInterval
	// between its sealed report and the query.
	bound := cfg.MaxSpeed*cfg.UpdateInterval.Seconds() + 1
	if res.P95ErrM > bound {
		t.Fatalf("paperals p95 error %v exceeds staleness bound %v", res.P95ErrM, bound)
	}
	prior := 1 / float64(cfg.Clients)
	if math.Abs(res.MeanReidProb-prior) > 1e-9 {
		t.Fatalf("paperals mean reid prob %v, want prior %v", res.MeanReidProb, prior)
	}
	if res.MeanCloakM2 != 0 {
		t.Fatalf("paperals answers are points, got cloak area %v", res.MeanCloakM2)
	}
}

// The MaxTrackSightings cap must bound the linker input and be recorded
// rather than silent.
func TestTrackSightingCap(t *testing.T) {
	cfg := testConfig(BackendGridCloak)
	cfg.MaxTrackSightings = 50
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TrackedSightings != 50 {
		t.Fatalf("tracked %d sightings, want the 50 cap", res.TrackedSightings)
	}
	if res.TotalSightings <= 50 {
		t.Fatalf("test needs more than 50 total sightings, got %d", res.TotalSightings)
	}
}

func TestValidateFieldErrors(t *testing.T) {
	cases := []struct {
		mutate func(*Config)
		want   string
	}{
		{func(c *Config) { c.Clients = 1 }, "field clients"},
		{func(c *Config) { c.Backend = "teleport" }, "field backend"},
		{func(c *Config) { c.K = 1 }, "field k"},
		{func(c *Config) { c.Backend = BackendGeoInd; c.K = 5 }, "field k"},
		{func(c *Config) { c.Backend = BackendGridCloak; c.K = 0 }, "field grid_level"},
		{func(c *Config) { c.Backend = BackendPaperALS; c.K = 0; c.KeyBits = 128 }, "field key_bits"},
		{func(c *Config) { c.Backend = BackendPaperALS; c.K = 0; c.KeyBits = 1 << 20 }, "field key_bits: value 1048576"},
		{func(c *Config) { c.Buddies = 0 }, "field buddies"},
		{func(c *Config) { c.UpdateInterval = 0 }, "field update_interval"},
		{func(c *Config) { c.MaxTrackSightings = 0 }, "field max_track_sightings"},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("want error mentioning %q, got %v", tc.want, err)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// The tighter the grid (higher level), the smaller the cloak and the
// higher the re-identification probability — the monotone tradeoff the
// curves are built from.
func TestGridLevelTradeoffMonotone(t *testing.T) {
	var lastCloak, lastReid float64
	for i, level := range []int{2, 4, 6} {
		cfg := testConfig(BackendGridCloak)
		cfg.GridLevel = level
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if res.MeanCloakM2 >= lastCloak {
				t.Fatalf("level %d cloak %v not below previous %v", level, res.MeanCloakM2, lastCloak)
			}
			if res.MeanReidProb < lastReid {
				t.Fatalf("level %d reid %v fell below previous %v", level, res.MeanReidProb, lastReid)
			}
		}
		lastCloak, lastReid = res.MeanCloakM2, res.MeanReidProb
	}
}
