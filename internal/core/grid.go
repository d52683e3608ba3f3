package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"anongeo/internal/exp"
	"anongeo/internal/fault"
	"anongeo/internal/neighbor"
)

// Grid is a declarative experiment: a base scenario swept over an
// ordered list of named axes, each grid point run under Repeats seeds.
// It is how every routing front end (cmd/sweep, cmd/chaos, cmd/agrsim,
// cmd/figures, the serve daemon, DensitySweepOpts) turns axis values
// into cells. The axis registry below is the only code that maps an
// axis value onto Config fields, and Points is the only code that
// derives a cell's seed.
type Grid struct {
	Base Config
	// Axes are swept in order: the last axis varies fastest.
	Axes []Axis
	// Repeats is the number of independent seeds per grid point
	// (<1 → 1).
	Repeats int
}

// Axis is one grid dimension: a registry axis name and its values in
// output order.
type Axis struct {
	Name   string
	Values []string
	// Rate is the flood axis's junk hellos per attacker per second;
	// every other axis ignores it.
	Rate float64
}

// Point is one grid point: the canonical value of each axis in grid
// order, one cell per repeat, and — once executed — their outcomes in
// the same order.
type Point struct {
	Coords []string
	Cells  []exp.Cell[Config]
	Outs   []exp.Outcome[Result]
}

// seedStride spaces the seeds of a nodes-sweeping grid's densities so
// that no two (density, repeat) pairs share a seed.
const seedStride = 1000

// BaseSeedFor inverts the nodes-axis seed rule at repeat 0: a grid
// sweeping nodes over base seed BaseSeedFor(s, n) runs its n-node,
// repeat-0 cells under seed s. The dist coordinator ships single cells
// to workers this way.
func BaseSeedFor(seed int64, nodes int) int64 { return seed - seedStride*int64(nodes) }

// Points expands g into its grid points in axis order, each carrying
// its repeat cells. A cell's seed is base+rep, or, when the grid sweeps
// nodes, base + 1000·nodes + rep, so that every density gets its own
// placements while the other axes share them. A point whose defense
// stack cannot be armed on its protocol is not a point.
func (g Grid) Points() ([]Point, error) {
	axes := make([]Axis, len(g.Axes))
	sweepsNodes := false
	for i, a := range g.Axes {
		parsed, err := ParseAxis(a.Name, a.Values)
		if err != nil {
			return nil, err
		}
		parsed.Rate = a.Rate
		axes[i] = parsed
		sweepsNodes = sweepsNodes || a.Name == "nodes"
	}
	reps := max(g.Repeats, 1)
	var pts []Point
	var walk func(depth int, cfg Config, coords []string)
	walk = func(depth int, cfg Config, coords []string) {
		if depth < len(axes) {
			a := axes[depth]
			for _, v := range a.Values {
				c := cfg
				registry[a.Name].apply(&c, v, a.Rate)
				walk(depth+1, c, append(coords, v))
			}
			return
		}
		for _, a := range axes {
			if adm := registry[a.Name].admits; adm != nil && !adm(cfg) {
				return
			}
		}
		p := Point{Coords: append([]string(nil), coords...)}
		// Labels name protocol and density, then the other coordinates:
		// the daemon journals them in failure records.
		label := fmt.Sprintf("%v/%d nodes/", cfg.Protocol, cfg.Nodes)
		for i, a := range axes {
			if a.Name != "nodes" && a.Name != "protocol" {
				label += a.Name + "=" + coords[i] + "/"
			}
		}
		for rep := 0; rep < reps; rep++ {
			c := cfg
			c.Seed = g.Base.Seed + int64(rep)
			if sweepsNodes {
				c.Seed += seedStride * int64(c.Nodes)
			}
			p.Cells = append(p.Cells, exp.Cell[Config]{
				Label:  fmt.Sprintf("%srep %d", label, rep),
				Config: c,
			})
		}
		pts = append(pts, p)
	}
	walk(0, g.Base, nil)
	return pts, nil
}

// Cells flattens points into orchestrator cells, point by point.
func Cells(pts []Point) []exp.Cell[Config] {
	var cells []exp.Cell[Config]
	for _, p := range pts {
		cells = append(cells, p.Cells...)
	}
	return cells
}

// Fold hands outcomes, in Cells order, back to the points they ran for.
func Fold(pts []Point, outs []exp.Outcome[Result]) {
	for i := range pts {
		n := len(pts[i].Cells)
		pts[i].Outs, outs = outs[:n], outs[n:]
	}
}

// Run expands g, executes its cells on o and returns the folded points.
func (g Grid) Run(ctx context.Context, o *exp.Orchestrator[Config, Result]) ([]Point, error) {
	pts, err := g.Points()
	if err != nil {
		return nil, err
	}
	outs, err := o.ExecuteContext(ctx, Cells(pts))
	if err != nil {
		return nil, err
	}
	Fold(pts, outs)
	return pts, nil
}

// ParseAxis resolves a registry axis name and canonicalizes its values:
// numbers are checked and kept as spelled, named values are matched
// case-insensitively and an alias may stand for several values (the
// defense axis's "both" and "all"). Errors name the axis and the value.
func ParseAxis(name string, values []string) (Axis, error) {
	def, ok := registry[name]
	if !ok {
		return Axis{}, fmt.Errorf("axis %q: unknown (want %s)", name, strings.Join(axisNames(), " | "))
	}
	out := Axis{Name: name}
	for _, raw := range values {
		v := strings.TrimSpace(raw)
		if def.names == nil {
			if _, err := def.parse(v); err != nil {
				return Axis{}, fmt.Errorf("axis %s: value %q: %w", name, v, errors.Unwrap(err))
			}
			out.Values = append(out.Values, v)
			continue
		}
		v = strings.ToLower(v)
		switch canon, ok := def.aliases[v]; {
		case ok:
			out.Values = append(out.Values, canon...)
		case slices.Contains(def.names, v):
			out.Values = append(out.Values, v)
		default:
			return Axis{}, fmt.Errorf("axis %s: value %q: want %s", name, raw, strings.Join(def.names, " | "))
		}
	}
	return out, nil
}

// axisNames lists the registry's axes in sorted order.
func axisNames() []string {
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// ProtocolValue is the protocol axis's canonical spelling of p, or
// p.String() for a protocol the axis does not know.
func ProtocolValue(p Protocol) string {
	for name, q := range protocolValues {
		if q == p {
			return name
		}
	}
	return p.String()
}

// axisDef is one registry entry: a numeric axis parses its values
// (integer ones with Atoi) and sets them with num; a named axis lists
// its canonical values, maps other lower-case spellings onto them with
// aliases, and sets them with name.
type axisDef struct {
	integer bool
	num     func(c *Config, v, rate float64)
	names   []string
	aliases map[string][]string
	name    func(c *Config, v string)
	// admits, when non-nil, rejects a fully assigned point the axis's
	// value cannot be armed on.
	admits func(c Config) bool
}

func (d axisDef) parse(s string) (float64, error) {
	if d.integer {
		n, err := strconv.Atoi(s)
		return float64(n), err
	}
	return strconv.ParseFloat(s, 64)
}

// apply sets one value, already checked by ParseAxis, on c.
func (d axisDef) apply(c *Config, v string, rate float64) {
	if d.name != nil {
		d.name(c, v)
		return
	}
	x, _ := d.parse(v)
	d.num(c, x, rate)
}

var protocolValues = map[string]Protocol{"gpsr": ProtoGPSR, "agfw": ProtoAGFW, "agfw-noack": ProtoAGFWNoAck}

var policyValues = map[string]neighbor.Policy{
	"closest": neighbor.PolicyClosest, "freshest": neighbor.PolicyFreshest, "weighted": neighbor.PolicyWeighted,
}

// registry is the one map from axis names to Config fields.
var registry = map[string]axisDef{
	"nodes":       {integer: true, num: func(c *Config, v, _ float64) { c.Nodes = int(v) }},
	"payload":     {integer: true, num: func(c *Config, v, _ float64) { c.PayloadBytes = int(v) }},
	"churn":       {integer: true, num: func(c *Config, v, _ float64) { c.ChurnFailures = int(v) }},
	"authk":       {integer: true, num: func(c *Config, v, _ float64) { c.AuthHelloK = int(v) }},
	"interval-ms": {num: func(c *Config, v, _ float64) { c.PacketInterval = time.Duration(v * float64(time.Millisecond)) }},
	"loss":        {num: func(c *Config, v, _ float64) { c.LossRate = v }},
	"speed":       {num: func(c *Config, v, _ float64) { c.MaxSpeed = v }},
	"protocol": {
		names:   []string{"gpsr", "agfw", "agfw-noack"},
		aliases: map[string][]string{"gpsr-greedy": {"gpsr"}},
		name:    func(c *Config, v string) { c.Protocol = protocolValues[v] },
	},
	"policy": {
		names: []string{"closest", "freshest", "weighted"},
		name:  func(c *Config, v string) { c.Policy = policyValues[v] },
	},
	"reach-filter": {
		names: []string{"false", "true"},
		name:  func(c *Config, v string) { c.ReachFilter = v == "true" },
	},
	// Greyholes drop relayed data with p=0.5, blackholes always; burst
	// is a Gilbert–Elliott channel's bad-state loss probability; sigma
	// is GPS error in meters on every advertised position; bogus nodes
	// forge 200 m lures and sinkhole what they capture; ackspoof nodes
	// forge AGFW acknowledgments; flood nodes barrage Rate junk hellos
	// per second. The others take the adversarial fraction of nodes.
	"greyhole":  faultAxis(fault.Entry{Kind: fault.KindGreyhole, P: 0.5}, fraction),
	"blackhole": faultAxis(fault.Entry{Kind: fault.KindBlackhole}, fraction),
	"burst": faultAxis(fault.Entry{Kind: fault.KindGilbertElliott, PGood: 0.01,
		MeanGood: 5 * time.Second, MeanBad: 500 * time.Millisecond}, func(e *fault.Entry, v, _ float64) { e.PBad = v }),
	"sigma":    faultAxis(fault.Entry{Kind: fault.KindPositionError, Fraction: 1}, func(e *fault.Entry, v, _ float64) { e.Sigma = v }),
	"bogus":    faultAxis(fault.Entry{Kind: fault.KindBogusBeacon, P: 1}, fraction),
	"ackspoof": faultAxis(fault.Entry{Kind: fault.KindAckSpoof, P: 1}, fraction),
	"flood":    faultAxis(fault.Entry{Kind: fault.KindFlood}, func(e *fault.Entry, v, rate float64) { e.Fraction, e.Rate = v, rate }),
	// defense arms trust-aware relaying (trust), trust plus t-of-n
	// pseudonym escrow (revoke) or per-hop authenticated acks (authack).
	// Escrow needs rotating pseudonyms and authenticated acks need the
	// network-layer ACK, so revoke points exist for the AGFW stacks
	// only and authack points for AGFW proper only.
	"defense": {
		names: []string{"off", "trust", "revoke", "authack"},
		aliases: map[string][]string{
			"on": {"trust"}, "both": {"off", "trust"}, "all": {"off", "trust", "revoke", "authack"},
		},
		name: func(c *Config, v string) {
			c.TrustRelay, c.AuthAck, c.Revocation = v == "trust" || v == "revoke", v == "authack", nil
			if v == "revoke" {
				rc := neighbor.DefaultRevocationConfig()
				c.Revocation = &rc
			}
		},
		admits: func(c Config) bool {
			return (!c.AuthAck || c.Protocol == ProtoAGFW) && (c.Revocation == nil || c.Protocol != ProtoGPSR)
		},
	},
}

// faultAxis attaches a one-entry fault plan, entry with the value put
// into it, for values above zero; zero leaves the base plan in place.
func faultAxis(entry fault.Entry, put func(e *fault.Entry, v, rate float64)) axisDef {
	return axisDef{num: func(c *Config, v, rate float64) {
		if v > 0 {
			e := entry
			put(&e, v, rate)
			c.Faults = &fault.Plan{Entries: []fault.Entry{e}}
		}
	}}
}

func fraction(e *fault.Entry, v, _ float64) { e.Fraction = v }
