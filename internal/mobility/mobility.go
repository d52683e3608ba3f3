// Package mobility implements the node movement models the paper's
// evaluation uses: the random waypoint model (nodes move to uniformly
// chosen destinations at up to 20 m/s and pause 60 s before choosing the
// next one), plus static placement and scripted traces for tests.
//
// A Model answers "where is this node at simulation time t" analytically,
// so the simulator never schedules per-tick movement events: positions are
// evaluated lazily at transmission time.
package mobility

import (
	"math"
	"math/rand"
	"sort"

	"anongeo/internal/geo"
	"anongeo/internal/sim"
)

// Model reports a node's position as a function of simulation time.
// Implementations must be deterministic: calling PositionAt repeatedly
// with the same time yields the same point, and querying times out of
// order is allowed.
type Model interface {
	PositionAt(t sim.Time) geo.Point
}

// Leg is one exported segment of piecewise-linear motion: the node
// leaves From at Start, arrives at To at Arrive, and rests there until
// Depart. Evaluating the position on the leg for Start <= t < Depart —
//
//	if t >= Arrive: To, else From.Lerp(To, (t-Start)/(Arrive-Start))
//
// — must reproduce PositionAt(t) bit for bit; consumers (the radio
// channel's position cache) rely on that to skip the interface dispatch
// on their hot path without perturbing results.
type Leg struct {
	Start  sim.Time
	Arrive sim.Time
	Depart sim.Time
	From   geo.Point
	To     geo.Point
}

// LegProvider is implemented by models whose motion is piecewise linear
// (Waypoint, Static). LegAt returns the leg containing t, valid for the
// half-open window [Start, Depart). A model that never moves again may
// report Depart = math.MaxInt64; callers treat such legs as permanent.
type LegProvider interface {
	LegAt(t sim.Time) Leg
}

// Static is a Model that never moves.
type Static struct {
	At geo.Point
}

var _ Model = Static{}

// PositionAt implements Model.
func (s Static) PositionAt(sim.Time) geo.Point { return s.At }

var _ LegProvider = Static{}

// LegAt implements LegProvider: one permanent leg resting at At.
func (s Static) LegAt(sim.Time) Leg {
	return Leg{Depart: math.MaxInt64, From: s.At, To: s.At}
}

// Waypoint is the classic random waypoint model: pick a uniform random
// destination in Bounds, travel at a uniform random speed in
// [MinSpeed, MaxSpeed], pause for Pause, repeat.
//
// Legs are generated lazily from the model's private random stream and
// memoized, so positions may be queried in any order and are reproducible
// for a given stream seed.
type Waypoint struct {
	bounds   geo.Rect
	minSpeed float64
	maxSpeed float64
	pause    sim.Time
	rng      *rand.Rand
	legs     []leg
	// lastLeg memoizes the index of the leg the previous query hit. The
	// radio hot path queries positions in near-monotonic time order, so
	// re-checking the cached leg (and its successor) turns the common
	// case into O(1) and leaves the binary search as the slow path.
	lastLeg int
}

var _ Model = (*Waypoint)(nil)

// leg is one travel segment followed by a pause. A node occupies `from` at
// `start`, arrives at `to` at `arrive`, and rests there until `depart`.
type leg struct {
	start    sim.Time
	arrive   sim.Time
	depart   sim.Time
	from, to geo.Point
}

// WaypointConfig parameterizes NewWaypoint. The zero value is invalid;
// use the paper's settings via DefaultWaypointConfig.
type WaypointConfig struct {
	Bounds   geo.Rect
	MinSpeed float64 // meters/second, must be > 0 to avoid stuck nodes
	MaxSpeed float64 // meters/second, >= MinSpeed
	Pause    sim.Time
	Start    geo.Point // initial position; clamped to Bounds
}

// DefaultWaypointConfig reproduces the paper's mobility: speeds up to
// 20 m/s with a 60 s pause, in the given area, starting at start.
func DefaultWaypointConfig(bounds geo.Rect, start geo.Point) WaypointConfig {
	return WaypointConfig{
		Bounds:   bounds,
		MinSpeed: 1,
		MaxSpeed: 20,
		Pause:    60 * sim.Second,
		Start:    start,
	}
}

// NewWaypoint builds a random waypoint model drawing randomness from rng.
// rng must be dedicated to this model (use sim.Engine.NewStream) so other
// components cannot perturb the trajectory.
func NewWaypoint(cfg WaypointConfig, rng *rand.Rand) *Waypoint {
	if cfg.MinSpeed <= 0 {
		panic("mobility: MinSpeed must be positive")
	}
	if cfg.MaxSpeed < cfg.MinSpeed {
		panic("mobility: MaxSpeed must be >= MinSpeed")
	}
	w := &Waypoint{
		bounds:   cfg.Bounds,
		minSpeed: cfg.MinSpeed,
		maxSpeed: cfg.MaxSpeed,
		pause:    cfg.Pause,
		rng:      rng,
	}
	start := cfg.Bounds.Clamp(cfg.Start)
	// Seed with a zero-length first leg so the node rests at Start for one
	// pause interval before moving, matching CMU setdest behavior.
	w.legs = append(w.legs, leg{
		start:  0,
		arrive: 0,
		depart: cfg.Pause,
		from:   start,
		to:     start,
	})
	return w
}

// RandomStart draws a uniform position in bounds, the usual way to place
// waypoint nodes initially.
func RandomStart(bounds geo.Rect, rng *rand.Rand) geo.Point {
	return geo.Point{
		X: bounds.Min.X + rng.Float64()*bounds.Width(),
		Y: bounds.Min.Y + rng.Float64()*bounds.Height(),
	}
}

// extendTo generates legs until the last one departs after t.
func (w *Waypoint) extendTo(t sim.Time) {
	for w.legs[len(w.legs)-1].depart <= t {
		prev := w.legs[len(w.legs)-1]
		dest := geo.Point{
			X: w.bounds.Min.X + w.rng.Float64()*w.bounds.Width(),
			Y: w.bounds.Min.Y + w.rng.Float64()*w.bounds.Height(),
		}
		speed := w.minSpeed + w.rng.Float64()*(w.maxSpeed-w.minSpeed)
		dist := prev.to.Dist(dest)
		travel := sim.Time(dist / speed * float64(sim.Second))
		if travel <= 0 {
			travel = 1 // degenerate same-point destination
		}
		w.legs = append(w.legs, leg{
			start:  prev.depart,
			arrive: prev.depart + travel,
			depart: prev.depart + travel + w.pause,
			from:   prev.to,
			to:     dest,
		})
	}
}

// PositionAt implements Model.
func (w *Waypoint) PositionAt(t sim.Time) geo.Point {
	if t < 0 {
		t = 0
	}
	w.extendTo(t)
	// Fast path: t usually lands on the memoized leg or the next one.
	if i := w.lastLeg; i < len(w.legs) {
		if l := &w.legs[i]; l.depart > t {
			if i == 0 || w.legs[i-1].depart <= t {
				return legPos(l, t)
			}
		} else if i+1 < len(w.legs) {
			if l2 := &w.legs[i+1]; l2.depart > t {
				w.lastLeg = i + 1
				return legPos(l2, t)
			}
		}
	}
	// Binary search the leg containing t.
	i := sort.Search(len(w.legs), func(i int) bool { return w.legs[i].depart > t })
	w.lastLeg = i
	return legPos(&w.legs[i], t)
}

var _ LegProvider = (*Waypoint)(nil)

// LegAt implements LegProvider. It is the slow companion of the
// channel-side position cache: called once per leg transition per node,
// so the plain binary search suffices.
func (w *Waypoint) LegAt(t sim.Time) Leg {
	if t < 0 {
		t = 0
	}
	w.extendTo(t)
	i := sort.Search(len(w.legs), func(i int) bool { return w.legs[i].depart > t })
	w.lastLeg = i
	l := &w.legs[i]
	return Leg{Start: l.start, Arrive: l.arrive, Depart: l.depart, From: l.from, To: l.to}
}

// legPos evaluates the position on leg l at time t, which must satisfy
// (prev.depart <= t < l.depart).
func legPos(l *leg, t sim.Time) geo.Point {
	if t >= l.arrive {
		return l.to
	}
	f := float64(t-l.start) / float64(l.arrive-l.start)
	return l.from.Lerp(l.to, f)
}

// Trace is a scripted Model interpolating linearly between fixed
// (time, position) samples; before the first sample the node sits at the
// first position, after the last it sits at the last. Tests use it to
// create exactly-reproducible encounters.
type Trace struct {
	Times  []sim.Time  // strictly increasing
	Points []geo.Point // same length as Times
}

var _ Model = Trace{}

// PositionAt implements Model.
func (tr Trace) PositionAt(t sim.Time) geo.Point {
	if len(tr.Times) == 0 {
		return geo.Point{}
	}
	if t <= tr.Times[0] {
		return tr.Points[0]
	}
	last := len(tr.Times) - 1
	if t >= tr.Times[last] {
		return tr.Points[last]
	}
	i := sort.Search(len(tr.Times), func(i int) bool { return tr.Times[i] > t }) - 1
	span := tr.Times[i+1] - tr.Times[i]
	f := float64(t-tr.Times[i]) / float64(span)
	return tr.Points[i].Lerp(tr.Points[i+1], f)
}

// Linear moves at constant velocity from Start, unbounded. Useful in MAC
// and forwarding tests that need a node drifting out of range.
type Linear struct {
	Start    geo.Point
	Velocity geo.Point // meters per second
}

var _ Model = Linear{}

// PositionAt implements Model.
func (l Linear) PositionAt(t sim.Time) geo.Point {
	s := t.Seconds()
	return geo.Point{X: l.Start.X + l.Velocity.X*s, Y: l.Start.Y + l.Velocity.Y*s}
}
