package lbs

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"anongeo/internal/anoncrypto"
	"anongeo/internal/geo"
	"anongeo/internal/locservice"
	"anongeo/internal/sim"
)

// Exposure is one adversary-observable record the provider (or an
// eavesdropper on the provider link) gets to keep. Hidden exposures are
// either encrypted beyond use (paperals reports) or never sent
// (suppressed kanon reports); they still score at the prior 1/Clients
// so backends that reveal nothing are rewarded, but they carry no
// linkable sighting.
type Exposure struct {
	// Owner is the client index the record is truly about.
	Owner int
	At    sim.Time
	// Loc is the revealed position (cloak center, grid-cell center,
	// noised point, or a paperals cleartext reply location). Meaningless
	// when Hidden.
	Loc geo.Point
	// AreaM2 is the revealed region's area; 0 for point reveals.
	AreaM2 float64
	// Err is the distance from Loc to the owner's true position — the
	// spatial distortion the scheme bought its privacy with.
	Err float64
	// ReidProb is the posterior probability a snapshot-aware adversary
	// (one that knows every client's true position this epoch) assigns
	// to the record's true owner.
	ReidProb float64
	// Hidden marks records that yield no linkable sighting.
	Hidden bool
	// Suppressed marks reports withheld entirely (kanon with fewer than
	// k clients); implies Hidden.
	Suppressed bool
}

// Query is one buddy lookup: querier asks the provider for target's
// latest report. Queries arrive in non-decreasing At order.
type Query struct {
	At      sim.Time
	Querier int
	Target  int
}

// Answer is the provider's response plus its modeled cost.
type Answer struct {
	// OK reports whether the provider had a servable record.
	OK bool
	// Est is the answered position estimate (cloak/cell center or
	// point).
	Est geo.Point
	// AreaM2 is the answer's cloak area; 0 for point answers.
	AreaM2 float64
	// Bytes is the query + reply wire size from the cost models below.
	Bytes int
	// ServiceUS is the modeled end-to-end service latency in
	// microseconds (wire time + provider lookup + any crypto).
	ServiceUS float64
	// Exposure is the query-channel leak, if the scheme has one
	// (paperals LREQs carry a cleartext reply location).
	Exposure *Exposure
}

// anonymizer is the pluggable report+query channel. Implementations are
// driven strictly in order: BeginEpoch at each report epoch, then Serve
// for the queries of the window that epoch opens.
type anonymizer interface {
	// BeginEpoch installs the epoch's true-position snapshot, refreshes
	// the provider's records, and returns one exposure per client plus
	// the total uplink report bytes.
	BeginEpoch(t sim.Time, pos []geo.Point) ([]Exposure, int, error)
	// Serve answers the window's queries against the current records.
	Serve(window []Query) ([]Answer, error)
}

// Modeled service-cost constants, microseconds. The wire term matches a
// ~16 Mbit/s access link; the RSA terms model paper-era RSA-512 (the
// decrypt is the requester's trial-decryption of the sealed reply, the
// index term the modular exponentiation behind ComputeIndex). They are
// constants, not measurements, so results stay deterministic.
const (
	usPerByte   = 0.5
	usLookup    = 2
	usRSAIndex  = 30
	usRSAOpen   = 1500
	usCloakScan = 8 // provider-side occupancy scan amortized per query
)

// Plain-protocol wire sizes (bytes): type tag + fields. The paperals
// sizes come from locservice's cost model instead.
const (
	bytesKAnonReport = 1 + 8 + 32 + 8 // tag, pseudonym, box, timestamp
	bytesGridReport  = 1 + 8 + 8 + 8  // tag, pseudonym, cell, timestamp
	bytesPointReport = 1 + 8 + 16 + 8 // tag, pseudonym, point, timestamp
	bytesPlainQuery  = 1 + 8 + 8      // tag, target ref, reply nonce
	bytesKAnonReply  = 1 + 32 + 8     // tag, box, timestamp
	bytesGridReply   = 1 + 8 + 8      // tag, cell, timestamp
	bytesPointReply  = 1 + 16 + 8     // tag, point, timestamp
	bytesMissReply   = 2              // tag, miss marker
)

// newAnonymizer builds the configured backend. rngSeed feeds backends
// that draw randomness (geoind); the others ignore it.
func newAnonymizer(cfg Config, rngSeed int64) (anonymizer, error) {
	switch cfg.Backend {
	case BackendPaperALS:
		return newPaperALS(cfg)
	case BackendKAnon:
		return &kAnon{cfg: cfg}, nil
	case BackendGridCloak:
		size := math.Max(cfg.Area.Width(), cfg.Area.Height()) / math.Pow(2, float64(cfg.GridLevel))
		return &gridCloak{cfg: cfg, grid: geo.NewGridMap(cfg.Area, size)}, nil
	case BackendGeoInd:
		return &geoInd{cfg: cfg, rng: rand.New(rand.NewSource(rngSeed))}, nil
	}
	return nil, fmt.Errorf("lbs: field backend: value %q: no such backend", cfg.Backend)
}

// ---------------------------------------------------------------- paperals

// paperALS wraps the paper's encrypted-index ALS: reports are sealed
// once per anticipated requester (the Buddies predecessors relation)
// and stored under opaque indices; the provider can serve lookups
// without ever learning an identity or a position. The query-side LREQ
// leaks the requester's cleartext reply location (the paper sends it in
// the clear; it is unlinked, carried under a one-shot pseudonym).
type paperALS struct {
	cfg  Config
	keys []*anoncrypto.KeyPair
	// idx[i][j] is the precomputed storage index for client i's report
	// sealed for requester (i-1-j mod clients), j in [0, Buddies).
	idx [][]locservice.Index
	srv *locservice.Server
	pos []geo.Point
}

func newPaperALS(cfg Config) (*paperALS, error) {
	p := &paperALS{
		cfg: cfg,
		// TTL of two epochs: a record survives until its next refresh
		// plus slack, so every in-window query finds a live record and
		// the expiry path still runs.
		srv: locservice.NewServer(2 * sim.Time(cfg.UpdateInterval)),
		pos: make([]geo.Point, cfg.Clients),
	}
	p.keys = make([]*anoncrypto.KeyPair, cfg.Clients)
	for i := range p.keys {
		kp, err := anoncrypto.KeyPairFor(clientID(i), cfg.KeyBits)
		if err != nil {
			return nil, err
		}
		p.keys[i] = kp
	}
	p.idx = make([][]locservice.Index, cfg.Clients)
	for i := range p.idx {
		p.idx[i] = make([]locservice.Index, cfg.Buddies)
		for j := 0; j < cfg.Buddies; j++ {
			r := requesterOf(i, j, cfg.Clients)
			p.idx[i][j] = locservice.ComputeIndex(p.keys[r].Public(), clientID(i), clientID(r))
		}
	}
	return p, nil
}

// clientID names client i; short so it fits locservice's payload cap.
func clientID(i int) anoncrypto.Identity {
	return anoncrypto.Identity(fmt.Sprintf("c%04d", i))
}

// requesterOf is the j-th anticipated requester of client i: the
// Buddies relation makes client q query targets q+1..q+Buddies, so i's
// requesters are its predecessors i-1..i-Buddies.
func requesterOf(i, j, clients int) int {
	return ((i-1-j)%clients + clients) % clients
}

func (p *paperALS) BeginEpoch(t sim.Time, pos []geo.Point) ([]Exposure, int, error) {
	copy(p.pos, pos)
	exps := make([]Exposure, 0, len(pos))
	bytes := 0
	prior := 1 / float64(p.cfg.Clients)
	for i, loc := range pos {
		for j := 0; j < p.cfg.Buddies; j++ {
			r := requesterOf(i, j, p.cfg.Clients)
			sealed, err := locservice.SealLocation(p.keys[r].Public(), clientID(i), loc, t)
			if err != nil {
				return nil, 0, err
			}
			p.srv.Apply(&locservice.Update{Index: p.idx[i][j], Sealed: sealed}, t)
		}
		bytes += p.cfg.Buddies * locservice.UpdateBytes()
		exps = append(exps, Exposure{Owner: i, At: t, ReidProb: prior, Hidden: true})
	}
	return exps, bytes, nil
}

func (p *paperALS) Serve(window []Query) ([]Answer, error) {
	if len(window) == 0 {
		return nil, nil
	}
	qs := make([]locservice.Query, len(window))
	for i, q := range window {
		j := ((q.Target-1-q.Querier)%p.cfg.Clients + p.cfg.Clients) % p.cfg.Clients
		if j >= p.cfg.Buddies {
			return nil, fmt.Errorf("lbs: paperals: query %d->%d outside the buddy relation", q.Querier, q.Target)
		}
		qs[i] = locservice.Query{Index: p.idx[q.Target][j], ReplyLoc: p.pos[q.Querier]}
	}
	now := window[len(window)-1].At
	reps, _ := p.srv.AnswerBatch(qs, now)
	out := make([]Answer, len(window))
	for i, q := range window {
		a := Answer{Bytes: locservice.QueryBytes()}
		// The LREQ's cleartext reply location is the query channel's
		// honest leak: a precise, unlinked, one-shot-pseudonym sighting
		// of the requester.
		a.Exposure = &Exposure{Owner: q.Querier, At: q.At, Loc: p.pos[q.Querier]}
		if rep := reps[i]; rep != nil {
			_, loc, _, err := locservice.OpenLocation(p.keys[q.Querier].Private, rep.Sealed[0])
			if err != nil {
				return nil, fmt.Errorf("lbs: paperals: opening reply for %d->%d: %w", q.Querier, q.Target, err)
			}
			a.OK = true
			a.Est = loc
			a.Bytes += rep.ReplyBytes()
			a.ServiceUS = float64(a.Bytes)*usPerByte + usLookup + usRSAIndex + usRSAOpen
		} else {
			a.Bytes += bytesMissReply
			a.ServiceUS = float64(a.Bytes)*usPerByte + usLookup + usRSAIndex
		}
		out[i] = a
	}
	return out, nil
}

// ---------------------------------------------------------------- kanon

// kAnon is k-anonymity spatial cloaking: each report is the bounding
// box of the client and its k-1 nearest clients, so the provider's view
// of any report always covers at least k candidates. When fewer than k
// clients exist the trusted cloaking agent must suppress reports
// entirely — the degenerate case the invariant test pins.
type kAnon struct {
	cfg   Config
	boxes []geo.Rect
	occ   []int
	ok    bool
}

func (k *kAnon) BeginEpoch(t sim.Time, pos []geo.Point) ([]Exposure, int, error) {
	n := len(pos)
	prior := 1 / float64(n)
	exps := make([]Exposure, 0, n)
	if n < k.cfg.K {
		// Degenerate case: suppress every report rather than emit a
		// cloak covering fewer than k clients.
		k.ok = false
		for i := range pos {
			exps = append(exps, Exposure{Owner: i, At: t, ReidProb: prior, Hidden: true, Suppressed: true})
		}
		return exps, 0, nil
	}
	if k.boxes == nil {
		k.boxes = make([]geo.Rect, n)
		k.occ = make([]int, n)
	}
	k.ok = true
	type cand struct {
		d2 float64
		j  int
	}
	cands := make([]cand, n)
	for i, p := range pos {
		for j, q := range pos {
			cands[j] = cand{d2: p.Dist2(q), j: j}
		}
		sort.Slice(cands, func(a, b int) bool {
			if cands[a].d2 != cands[b].d2 {
				return cands[a].d2 < cands[b].d2
			}
			return cands[a].j < cands[b].j
		})
		box := geo.Rect{Min: pos[i], Max: pos[i]}
		for _, c := range cands[:k.cfg.K] {
			q := pos[c.j]
			box.Min.X = math.Min(box.Min.X, q.X)
			box.Min.Y = math.Min(box.Min.Y, q.Y)
			box.Max.X = math.Max(box.Max.X, q.X)
			box.Max.Y = math.Max(box.Max.Y, q.Y)
		}
		occ := 0
		for _, q := range pos {
			if box.Contains(q) {
				occ++
			}
		}
		k.boxes[i], k.occ[i] = box, occ
		exps = append(exps, Exposure{
			Owner:    i,
			At:       t,
			Loc:      box.Center(),
			AreaM2:   box.Width() * box.Height(),
			Err:      box.Center().Dist(p),
			ReidProb: 1 / float64(occ),
		})
	}
	return exps, n * bytesKAnonReport, nil
}

func (k *kAnon) Serve(window []Query) ([]Answer, error) {
	out := make([]Answer, len(window))
	for i, q := range window {
		a := Answer{Bytes: bytesPlainQuery}
		if k.ok {
			box := k.boxes[q.Target]
			a.OK = true
			a.Est = box.Center()
			a.AreaM2 = box.Width() * box.Height()
			a.Bytes += bytesKAnonReply
		} else {
			a.Bytes += bytesMissReply
		}
		a.ServiceUS = float64(a.Bytes)*usPerByte + usLookup + usCloakScan
		out[i] = a
	}
	return out, nil
}

// ---------------------------------------------------------------- gridcloak

// gridCloak snaps reports to a precision grid: cell side is
// max(width, height) / 2^GridLevel, so the level axis sweeps cloak
// resolution the way hierarchical-partition schemes do.
type gridCloak struct {
	cfg   Config
	grid  geo.GridMap
	cells []geo.Cell
	occ   map[geo.Cell]int
}

func (g *gridCloak) BeginEpoch(t sim.Time, pos []geo.Point) ([]Exposure, int, error) {
	if g.cells == nil {
		g.cells = make([]geo.Cell, len(pos))
	}
	g.occ = make(map[geo.Cell]int, len(pos))
	for i, p := range pos {
		c := g.grid.CellOf(p)
		g.cells[i] = c
		g.occ[c]++
	}
	exps := make([]Exposure, 0, len(pos))
	for i, p := range pos {
		c := g.cells[i]
		r := g.grid.CellRect(c)
		exps = append(exps, Exposure{
			Owner:    i,
			At:       t,
			Loc:      g.grid.Center(c),
			AreaM2:   r.Width() * r.Height(),
			Err:      g.grid.Center(c).Dist(p),
			ReidProb: 1 / float64(g.occ[c]),
		})
	}
	return exps, len(pos) * bytesGridReport, nil
}

func (g *gridCloak) Serve(window []Query) ([]Answer, error) {
	out := make([]Answer, len(window))
	for i, q := range window {
		c := g.cells[q.Target]
		r := g.grid.CellRect(c)
		out[i] = Answer{
			OK:        true,
			Est:       g.grid.Center(c),
			AreaM2:    r.Width() * r.Height(),
			Bytes:     bytesPlainQuery + bytesGridReply,
			ServiceUS: float64(bytesPlainQuery+bytesGridReply)*usPerByte + usLookup,
		}
	}
	return out, nil
}

// ---------------------------------------------------------------- geoind

// geoInd perturbs each report with planar Laplace noise, the standard
// geo-indistinguishability mechanism: direction uniform, radius from
// the Gamma(2, 1/ε) radial law (the sum of two Exp(ε) draws).
type geoInd struct {
	cfg    Config
	rng    *rand.Rand
	noised []geo.Point
}

func (g *geoInd) BeginEpoch(t sim.Time, pos []geo.Point) ([]Exposure, int, error) {
	if g.noised == nil {
		g.noised = make([]geo.Point, len(pos))
	}
	eps := g.cfg.Epsilon
	for i, p := range pos {
		theta := 2 * math.Pi * g.rng.Float64()
		// 1-Float64() is in (0, 1], keeping the logs finite.
		r := -(math.Log(1-g.rng.Float64()) + math.Log(1-g.rng.Float64())) / eps
		g.noised[i] = geo.Point{X: p.X + r*math.Cos(theta), Y: p.Y + r*math.Sin(theta)}
	}
	exps := make([]Exposure, 0, len(pos))
	for i, p := range pos {
		exps = append(exps, Exposure{
			Owner:    i,
			At:       t,
			Loc:      g.noised[i],
			Err:      g.noised[i].Dist(p),
			ReidProb: g.posterior(i, pos),
		})
	}
	return exps, len(pos) * bytesPointReport, nil
}

// posterior is the snapshot-aware adversary's Bayesian update: with a
// uniform prior over clients and the planar-Laplace likelihood
// exp(-ε·d), the posterior on the true owner is its normalized
// likelihood. Distances are taken relative to the nearest candidate so
// the exponentials stay in range at large ε.
func (g *geoInd) posterior(i int, pos []geo.Point) float64 {
	obs := g.noised[i]
	min := math.Inf(1)
	for _, q := range pos {
		if d := obs.Dist(q); d < min {
			min = d
		}
	}
	var denom, own float64
	for j, q := range pos {
		w := math.Exp(-g.cfg.Epsilon * (obs.Dist(q) - min))
		denom += w
		if j == i {
			own = w
		}
	}
	return own / denom
}

func (g *geoInd) Serve(window []Query) ([]Answer, error) {
	out := make([]Answer, len(window))
	for i, q := range window {
		out[i] = Answer{
			OK:        true,
			Est:       g.noised[q.Target],
			Bytes:     bytesPlainQuery + bytesPointReply,
			ServiceUS: float64(bytesPlainQuery+bytesPointReply)*usPerByte + usLookup,
		}
	}
	return out, nil
}
