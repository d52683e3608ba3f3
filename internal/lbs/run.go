package lbs

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"anongeo/internal/adversary"
	"anongeo/internal/geo"
	"anongeo/internal/mobility"
	"anongeo/internal/sim"
)

// Result is the scored outcome of one LBS workload cell: the utility
// side (answer quality, wire cost, modeled latency) and the privacy
// side (re-identification posterior over reports, pseudonym-linking
// tracking scores). Every field is a pure function of the Config.
type Result struct {
	Backend string `json:"backend"`
	Clients int    `json:"clients"`
	Epochs  int    `json:"epochs"`

	// Utility.
	Queries       int     `json:"queries"`
	Answered      int     `json:"answered"`
	MeanErrM      float64 `json:"mean_err_m"`        // answered queries: |answer − truth|
	P95ErrM       float64 `json:"p95_err_m"`         //
	MeanCloakM2   float64 `json:"mean_cloak_m2"`     // answered queries' cloak area
	BytesPerQuery float64 `json:"bytes_per_query"`   // query+reply wire bytes
	MeanServiceUS float64 `json:"mean_service_us"`   // modeled service latency
	ReportBytes   int64   `json:"report_bytes"`      // total uplink report bytes
	MeanReportErr float64 `json:"mean_report_err_m"` // visible reports' spatial distortion

	// Privacy.
	Reports          int                  `json:"reports"`
	HiddenReports    int                  `json:"hidden_reports"`
	SuppressedEpochs int                  `json:"suppressed_epochs"`
	MeanReidProb     float64              `json:"mean_reid_prob"` // snapshot-aware posterior on report owners
	TotalSightings   int                  `json:"total_sightings"`
	TrackedSightings int                  `json:"tracked_sightings"` // fed to the linker (MaxTrackSightings cap)
	Tracking         adversary.TrackScore `json:"tracking"`
}

// Run executes one workload cell.
func Run(cfg Config) (Result, error) {
	return RunContext(context.Background(), cfg)
}

// ownedSighting is one linkable exposure with its ground-truth owner,
// the linker's input plus the label ScoreTracks grades against.
type ownedSighting struct {
	owner int
	s     adversary.Sighting
	err   float64
}

// RunContext is Run under a context, checked once per report epoch; it
// is the cell runner of LBS sweeps.
func RunContext(ctx context.Context, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}

	// Seed-derived streams, drawn in fixed order so adding a consumer
	// later cannot silently shift the others.
	master := rand.New(rand.NewSource(cfg.Seed))
	mobSeed := master.Int63()
	querySeed := master.Int63()
	backendSeed := master.Int63()

	an, err := newAnonymizer(cfg, backendSeed)
	if err != nil {
		return Result{}, err
	}

	mobRng := rand.New(rand.NewSource(mobSeed))
	models := make([]*mobility.Waypoint, cfg.Clients)
	for i := range models {
		start := mobility.RandomStart(cfg.Area, mobRng)
		models[i] = mobility.NewWaypoint(mobility.WaypointConfig{
			Bounds:   cfg.Area,
			MinSpeed: cfg.MinSpeed,
			MaxSpeed: cfg.MaxSpeed,
			Pause:    sim.Time(cfg.Pause),
			Start:    start,
		}, rand.New(rand.NewSource(mobRng.Int63())))
	}

	// Queries spread uniformly over the horizon, each from a random
	// client to one of its Buddies successors (the relation paperals
	// seals for, used by every backend so workloads stay comparable).
	horizon := sim.Time(cfg.Duration)
	qRng := rand.New(rand.NewSource(querySeed))
	queries := make([]Query, cfg.Queries)
	var prevAt sim.Time
	for i := range queries {
		at := sim.Time(float64(horizon) * (float64(i) / float64(cfg.Queries)))
		if at < prevAt {
			at = prevAt
		}
		prevAt = at
		querier := qRng.Intn(cfg.Clients)
		target := (querier + 1 + qRng.Intn(cfg.Buddies)) % cfg.Clients
		queries[i] = Query{At: at, Querier: querier, Target: target}
	}

	res := Result{Backend: string(cfg.Backend), Clients: cfg.Clients, Queries: cfg.Queries}
	var (
		sumReid, sumReportErr       float64
		visibleReports              int
		sumErr, sumArea, sumService float64
		sumBytes                    int64
		errs                        []float64
		pool                        []ownedSighting
		poolErrSum                  float64
	)
	addSighting := func(owner int, at sim.Time, loc geo.Point, dErr float64) {
		res.TotalSightings++
		if len(pool) < cfg.MaxTrackSightings {
			pool = append(pool, ownedSighting{owner: owner, s: adversary.Sighting{At: at, Loc: loc}, err: dErr})
			poolErrSum += dErr
		}
	}

	pos := make([]geo.Point, cfg.Clients)
	step := sim.Time(cfg.UpdateInterval)
	qi := 0
	for t := sim.Time(0); t < horizon; t += step {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		for i := range models {
			pos[i] = models[i].PositionAt(t)
		}
		exps, bytes, err := an.BeginEpoch(t, pos)
		if err != nil {
			return Result{}, err
		}
		res.Epochs++
		res.ReportBytes += int64(bytes)
		suppressed := false
		for _, e := range exps {
			res.Reports++
			sumReid += e.ReidProb
			if e.Suppressed {
				suppressed = true
			}
			if e.Hidden {
				res.HiddenReports++
				continue
			}
			visibleReports++
			sumReportErr += e.Err
			addSighting(e.Owner, e.At, e.Loc, e.Err)
		}
		if suppressed {
			res.SuppressedEpochs++
		}

		lo := qi
		for qi < len(queries) && queries[qi].At < t+step {
			qi++
		}
		answers, err := an.Serve(queries[lo:qi])
		if err != nil {
			return Result{}, err
		}
		for k, a := range answers {
			q := queries[lo+k]
			sumBytes += int64(a.Bytes)
			sumService += a.ServiceUS
			if a.Exposure != nil {
				e := a.Exposure
				addSighting(e.Owner, e.At, e.Loc, e.Err)
			}
			if !a.OK {
				continue
			}
			res.Answered++
			truth := models[q.Target].PositionAt(q.At)
			d := a.Est.Dist(truth)
			errs = append(errs, d)
			sumErr += d
			sumArea += a.AreaM2
		}
	}

	if res.Answered > 0 {
		res.MeanErrM = sumErr / float64(res.Answered)
		res.MeanCloakM2 = sumArea / float64(res.Answered)
		sort.Float64s(errs)
		res.P95ErrM = errs[(len(errs)-1)*95/100]
	}
	res.BytesPerQuery = float64(sumBytes) / float64(cfg.Queries)
	res.MeanServiceUS = sumService / float64(cfg.Queries)
	if res.Reports > 0 {
		res.MeanReidProb = sumReid / float64(res.Reports)
	}
	if visibleReports > 0 {
		res.MeanReportErr = sumReportErr / float64(visibleReports)
	}

	// Tracking attack: every linkable exposure becomes a one-shot
	// pseudonym sighting; the linker tries to chain them back into
	// trajectories and ScoreTracks grades the chains against the owner
	// ground truth. The linker's positional slack is calibrated to the
	// scheme's mean distortion — the strongest honest setting.
	res.TrackedSightings = len(pool)
	byPseudonym := make(map[string][]adversary.Sighting, len(pool))
	truth := make(map[string]string, len(pool))
	for i, o := range pool {
		ps := fmt.Sprintf("x%07d", i)
		byPseudonym[ps] = []adversary.Sighting{o.s}
		truth[ps] = fmt.Sprintf("c%04d", o.owner)
	}
	lcfg := adversary.LinkerConfig{
		MaxSpeed: cfg.MaxSpeed,
		MaxGap:   2*step + sim.Second,
		Slack:    5,
	}
	if len(pool) > 0 {
		lcfg.Slack += 2 * poolErrSum / float64(len(pool))
	}
	tracks := adversary.LinkPseudonyms(byPseudonym, lcfg)
	res.Tracking = adversary.ScoreTracks(tracks, truth)
	return res, nil
}
