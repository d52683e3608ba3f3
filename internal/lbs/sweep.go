package lbs

import (
	"fmt"
	"io"
	"time"

	"anongeo/internal/exp"
)

// SweepRequest expands into a grid of LBS cells: backend × that
// backend's parameter axis × query volume, all over one Base workload.
// The zero-value slices default to every backend and a three-point axis
// each, which is what `lbsbench -backend all` runs.
type SweepRequest struct {
	// Base is the shared workload shape. Its Backend and
	// backend-specific parameters are overwritten per cell.
	Base Config `json:"base"`
	// Backends to sweep; empty means all four in canonical order.
	Backends []string `json:"backends,omitempty"`
	// Ks is the kanon axis (cloak size).
	Ks []int `json:"ks,omitempty"`
	// GridLevels is the gridcloak axis (precision level).
	GridLevels []int `json:"grid_levels,omitempty"`
	// Epsilons is the geoind axis (1/meters).
	Epsilons []float64 `json:"epsilons,omitempty"`
	// UpdateSeconds is the paperals axis: the report interval trades
	// staleness error against sealed-update overhead.
	UpdateSeconds []float64 `json:"update_seconds,omitempty"`
	// QueryCounts is the load axis; empty means [Base.Queries].
	QueryCounts []int `json:"query_counts,omitempty"`
}

// Default parameter axes, three points per backend.
var (
	DefaultKs            = []int{2, 5, 10}
	DefaultGridLevels    = []int{3, 5, 7}
	DefaultEpsilons      = []float64{0.005, 0.02, 0.1}
	DefaultUpdateSeconds = []float64{5, 15, 45}
)

// Normalize fills defaults into a copy of the request and validates
// every cell config it would expand to. The returned request expands to
// the same cells on every call — serve uses its canonical encoding as
// the job's content address.
func (r SweepRequest) Normalize() (SweepRequest, error) {
	out := r
	if out.Backends == nil {
		for _, b := range Backends() {
			out.Backends = append(out.Backends, string(b))
		}
	} else {
		out.Backends = append([]string(nil), r.Backends...)
	}
	for _, b := range out.Backends {
		if _, err := ParseBackend(b); err != nil {
			return SweepRequest{}, err
		}
	}
	out.Ks = fillSlice(r.Ks, DefaultKs)
	out.GridLevels = fillSlice(r.GridLevels, DefaultGridLevels)
	out.Epsilons = fillSlice(r.Epsilons, DefaultEpsilons)
	out.UpdateSeconds = fillSlice(r.UpdateSeconds, DefaultUpdateSeconds)
	out.QueryCounts = fillSlice(r.QueryCounts, []int{out.Base.Queries})
	for _, c := range out.Cells() {
		if err := c.Config.Validate(); err != nil {
			return SweepRequest{}, fmt.Errorf("cell %q: %w", c.Label, err)
		}
	}
	return out, nil
}

func fillSlice[T any](v, def []T) []T {
	if len(v) == 0 {
		return append([]T(nil), def...)
	}
	return append([]T(nil), v...)
}

// axis returns a backend's parameter axis as (name, values).
func (r SweepRequest) axis(b Backend) (string, []float64) {
	switch b {
	case BackendKAnon:
		return "k", toFloats(r.Ks)
	case BackendGridCloak:
		return "level", toFloats(r.GridLevels)
	case BackendGeoInd:
		return "eps", r.Epsilons
	default:
		return "update_s", r.UpdateSeconds
	}
}

func toFloats(v []int) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = float64(x)
	}
	return out
}

// cellConfig derives the config for one grid point, zeroing the
// parameters other backends own so the encoding stays canonical.
func (r SweepRequest) cellConfig(b Backend, value float64, queries int) Config {
	cfg := r.Base
	cfg.Backend = b
	cfg.Queries = queries
	cfg.K, cfg.GridLevel, cfg.Epsilon, cfg.KeyBits = 0, 0, 0, 0
	switch b {
	case BackendKAnon:
		cfg.K = int(value)
	case BackendGridCloak:
		cfg.GridLevel = int(value)
	case BackendGeoInd:
		cfg.Epsilon = value
	case BackendPaperALS:
		cfg.KeyBits = r.Base.KeyBits
		if cfg.KeyBits == 0 {
			cfg.KeyBits = 512
		}
		cfg.UpdateInterval = time.Duration(value * float64(time.Second))
	}
	return cfg
}

// Cells expands the normalized request into orchestrator cells in the
// fixed order Fold expects: backend, then parameter value, then query
// count. Call Normalize first; an un-normalized request expands only
// the axes it has.
func (r SweepRequest) Cells() []exp.Cell[Config] {
	var cells []exp.Cell[Config]
	for _, name := range r.Backends {
		b := Backend(name)
		param, values := r.axis(b)
		for _, v := range values {
			for _, q := range r.QueryCounts {
				cells = append(cells, exp.Cell[Config]{
					Label:  fmt.Sprintf("%s/%s=%g/q=%d", b, param, v, q),
					Config: r.cellConfig(b, v, q),
				})
			}
		}
	}
	return cells
}

// NumCells reports how many cells the request expands to.
func (r SweepRequest) NumCells() int { return len(r.Cells()) }

// CurvePoint is one point of a privacy-vs-utility curve: a backend at
// one parameter value and load, with its full scored result.
type CurvePoint struct {
	Backend string  `json:"backend"`
	Param   string  `json:"param"`
	Value   float64 `json:"value"`
	Queries int     `json:"queries"`
	Result  Result  `json:"result"`
}

// Fold pairs Cells-order outcomes back with their grid coordinates.
func Fold(r SweepRequest, outs []exp.Outcome[Result]) []CurvePoint {
	var points []CurvePoint
	i := 0
	for _, name := range r.Backends {
		b := Backend(name)
		param, values := r.axis(b)
		for _, v := range values {
			for _, q := range r.QueryCounts {
				points = append(points, CurvePoint{
					Backend: string(b), Param: param, Value: v, Queries: q,
					Result: outs[i].Value,
				})
				i++
			}
		}
	}
	return points
}

// Options tunes sweep execution, mirroring core.SweepOptions.
type Options struct {
	// Parallel bounds the worker pool; ≤0 means GOMAXPROCS, 1 is serial.
	Parallel int
	// CacheDir, when non-empty, memoizes cell results on disk there.
	CacheDir string
	// Retries re-runs a failed cell that many extra times.
	Retries int
	// Hooks receive run telemetry.
	Hooks []exp.Hook
}

// NewOrchestrator builds the exp orchestrator LBS grids run on. Every
// cell is cacheable: Run is a pure function of its config.
func NewOrchestrator(opt Options) (*exp.Orchestrator[Config, Result], error) {
	o := &exp.Orchestrator[Config, Result]{
		RunCtx:      RunContext,
		Parallel:    opt.Parallel,
		Retries:     opt.Retries,
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

// WriteCurvesCSV renders curve points as CSV, one row per grid point.
func WriteCurvesCSV(w io.Writer, points []CurvePoint) error {
	if _, err := fmt.Fprintln(w, "backend,param,value,queries,answered,mean_err_m,p95_err_m,mean_cloak_m2,bytes_per_query,mean_service_us,report_bytes,mean_reid_prob,tracks,linked_fraction,reid_fraction,mean_track_s,tracked_sightings,total_sightings"); err != nil {
		return err
	}
	for _, p := range points {
		r := p.Result
		if _, err := fmt.Fprintf(w, "%s,%s,%g,%d,%d,%.3f,%.3f,%.1f,%.2f,%.2f,%d,%.6f,%d,%.4f,%.4f,%.3f,%d,%d\n",
			p.Backend, p.Param, p.Value, p.Queries, r.Answered, r.MeanErrM, r.P95ErrM,
			r.MeanCloakM2, r.BytesPerQuery, r.MeanServiceUS, r.ReportBytes, r.MeanReidProb,
			r.Tracking.Tracks, r.Tracking.LinkedFraction, r.Tracking.ReidentifiedFraction,
			r.Tracking.MeanDurationS, r.TrackedSightings, r.TotalSightings); err != nil {
			return err
		}
	}
	return nil
}
