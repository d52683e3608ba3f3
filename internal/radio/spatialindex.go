// Spatial grid index for the channel's O(neighbors) hot path.
//
// An un-indexed Transmit freezes the sensing set by scanning all n
// interfaces and evaluating every mobility model, so one frame costs
// O(n) and a dense scenario costs O(n²) per unit of traffic. The index
// replaces the scan with a uniform grid over the arena: interfaces are
// bucketed by the cell containing a recent ("binned") position, and a
// query inspects only the 3×3 cell neighborhood of the sender — the NS-2
// CMU wireless trick, adapted to this channel's lazy mobility.
//
// Correctness invariant (the whole design hangs on it): the cell side is
// the carrier-sense range plus a mobility slack, and an interface is
// lazily re-binned before its true position can drift more than that
// slack from its binned position (drift ≤ maxSpeed · (now − binnedAt) ≤
// slack). Then for any interface j actually within sensing range of a
// sender at p,
//
//	|p − binned(j)| ≤ csRange + slack = cellSide,
//
// so j's bucket is at most one cell away from p's on each axis and the
// 3×3 neighborhood cannot miss it. Out-of-arena positions clamp to the
// border cells; clamping is 1-Lipschitz per axis, so the bound survives.
//
// The binned position doubles as a conservative distance oracle: with
// bd = |p − binned(j)|, the true distance lies in [bd − slack, bd + slack].
// Candidates with bd beyond threshold+slack are discarded and candidates
// with bd inside threshold−slack are accepted without ever evaluating
// the mobility model; only the thin uncertainty annulus pays for an
// exact PositionAt + distance test, which uses the same squared-distance
// comparison as the full scan so the resulting sets are
// bit-for-bit identical (the slack is padded by epsMeters, dwarfing
// float rounding in the conservative bounds).
//
// All mutable state lives in dense arrays indexed by interface id —
// binned positions, rebin deadlines, bucket membership, and the
// per-query classification scratch — so the per-frame work walks
// contiguous memory instead of chasing one pointer per interface.
// Everything is deterministic: no randomness, no maps, and the caller
// consumes the classification array in ascending id order, so event and
// RNG schedules downstream are unperturbed.
package radio

import (
	"math"

	"anongeo/internal/geo"
	"anongeo/internal/sim"
)

// epsMeters pads every conservative threshold so floating-point rounding
// in the binned-distance bounds can never flip a classification. The
// slack budget is meters; accumulated rounding is below nanometers.
const epsMeters = 1e-6

// wheelSize is the deadline wheel's bucket count; deadlines beyond one
// wheel turn cascade (they are re-enqueued when their alias tick
// drains). 256 ticks of slackT cover ≈70 s at the paper's 20 m/s /
// 550 m-sensing geometry — a full pause interval.
const (
	wheelSize = 256
	wheelMask = wheelSize - 1
)

// neverRebin marks a bin that can never drift (a permanently resting
// node); such entries skip the wheel entirely.
const neverRebin = sim.Time(math.MaxInt64)

// Classifications produced by markCandidates in the class scratch array
// (zero = not a candidate; consumers reset entries to zero as they go).
const (
	// scanExact: inside the uncertainty annulus; the caller must evaluate
	// the true position and compare exactly.
	scanExact uint8 = iota + 1
	// scanSensorOnly: certainly within the sensing threshold, certainly
	// outside the decode threshold.
	scanSensorOnly
	// scanReceiver: certainly within the decode threshold (hence sensing).
	scanReceiver
)

// spatialIndex is the uniform grid. It is owned by a Channel and shares
// its single-threaded discipline.
type spatialIndex struct {
	ch     *Channel
	bounds geo.Rect
	cell   float64 // cell side = csRange + slack
	slack  float64 // max tolerated drift between true and binned position
	cols   int
	rows   int
	// buckets holds the indices of the interfaces binned in each cell,
	// row-major. Within-bucket order is arbitrary (swap-remove) — queries
	// restore id order by consuming the class array, so it never leaks.
	buckets [][]int32

	// Per-interface state, indexed by interface id (ids are dense).
	pos    []geo.Point // binned position
	cellOf []int32     // bucket index, -1 while not yet inserted
	slotOf []int32     // slot within that bucket
	// class is the per-query scratch markCandidates fills. Consumers MUST
	// zero every entry they read (and no callback run while consuming may
	// start a nested query), leaving the array all-zero between queries.
	class []uint8

	// Lazy rebinning runs on a deadline wheel instead of a fixed-period
	// FIFO: each bin carries a deadline — the first instant its drift
	// budget could be exhausted — and refresh only touches bins whose
	// deadline tick has arrived. The deadlines are leg-aware: a node
	// resting at a waypoint (binned exactly at its rest position) cannot
	// drift until its leg departs, so its deadline is depart + slackT
	// rather than now + slackT. Under the paper's 60 s-pause mobility
	// nodes rest most of the time, so this removes the large majority of
	// rebin position evaluations at large N. A node that never moves
	// again (a permanent leg) gets deadline neverRebin and is not
	// enqueued at all.
	//
	// armAt[idx] is the wheel tick at which the entry must be rebinned:
	// one tick before its deadline's own tick, so that draining every
	// tick <= now's rebins each bin strictly before its drift budget is
	// gone (rebinning early is always safe — it just re-evaluates the
	// position). wheel[t&mask] holds the entries armed for tick t; tick
	// is the next tick to drain. spare recycles the bucket backing array
	// across drains.
	armAt []int64
	wheel [wheelSize][]int32
	tick  int64
	spare []int32
	// slackT is how long a max-speed interface takes to drift `slack`
	// meters (the wheel tick width); 0 means nodes are static and bins
	// never expire.
	slackT sim.Time
	// linearScan is set when the 3×3 cell neighborhood covers most of
	// the arena anyway (small arenas relative to the sensing range — the
	// paper's Figure 1 geometry). Bucket iteration then prunes almost
	// nothing, so queries classify against a sequential walk of the
	// binned-position array instead: same thresholds, same results,
	// contiguous access, and no classification scratch pass.
	linearScan bool
}

// newSpatialIndex sizes the grid for the given arena, carrier-sense
// range, and speed bound. The slack is 1% of the sensing range (floored
// at 0.5 m), a point where the uncertainty annulus is thin — almost
// every candidate classifies without touching its mobility model — while
// a full rebin cycle still costs only n position evaluations every
// slack/maxSpeed seconds of simulated time.
func newSpatialIndex(ch *Channel, bounds geo.Rect, csRange, maxSpeed float64) *spatialIndex {
	slack := csRange / 100
	if slack < 0.5 {
		slack = 0.5
	}
	cell := csRange + slack
	s := &spatialIndex{
		ch:     ch,
		bounds: bounds,
		cell:   cell,
		slack:  slack,
		cols:   gridDim(bounds.Width(), cell),
		rows:   gridDim(bounds.Height(), cell),
	}
	s.buckets = make([][]int32, s.cols*s.rows)
	// Fraction of the arena a 3×3 neighborhood covers, ignoring edge
	// truncation. Above ½, bucket pruning cannot pay for its random
	// access pattern and the scratch pass, so queries go linear.
	fw := math.Min(1, 3*cell/math.Max(bounds.Width(), 1))
	fh := math.Min(1, 3*cell/math.Max(bounds.Height(), 1))
	s.linearScan = fw*fh >= 0.5
	if maxSpeed > 0 {
		s.slackT = sim.Time(slack / maxSpeed * float64(sim.Second))
		if s.slackT < 1 {
			s.slackT = 1 // guard: never rebin the same instant twice
		}
	}
	return s
}

func gridDim(extent, cell float64) int {
	n := int(math.Ceil(extent / cell))
	if n < 1 {
		n = 1
	}
	return n
}

// cellIndex maps a position to its bucket, clamping outside positions to
// the border cells.
func (s *spatialIndex) cellIndex(p geo.Point) int32 {
	col := clampDim(int(math.Floor((p.X-s.bounds.Min.X)/s.cell)), s.cols)
	row := clampDim(int(math.Floor((p.Y-s.bounds.Min.Y)/s.cell)), s.rows)
	return int32(row*s.cols + col)
}

func clampDim(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

// insert bins a (possibly freshly added) interface at its current
// position and arms its rebin deadline. Interface ids are dense, so the
// per-interface arrays grow in step with the channel's interface list.
func (s *spatialIndex) insert(i *Iface, now sim.Time) {
	for len(s.pos) <= int(i.id) {
		s.pos = append(s.pos, geo.Point{})
		s.cellOf = append(s.cellOf, -1)
		s.slotOf = append(s.slotOf, 0)
		s.class = append(s.class, 0)
		s.armAt = append(s.armAt, 0)
	}
	s.rebin(int32(i.id), now)
}

// rebin re-evaluates interface idx's position, moves it to the right
// bucket, and re-arms its drift deadline.
func (s *spatialIndex) rebin(idx int32, now sim.Time) {
	p := s.ch.posAt(idx, now)
	s.pos[idx] = p
	s.arm(idx, now)
	ci := s.cellIndex(p)
	if ci == s.cellOf[idx] {
		return
	}
	if s.cellOf[idx] >= 0 {
		s.removeFromBucket(idx)
	}
	b := s.buckets[ci]
	s.cellOf[idx] = ci
	s.slotOf[idx] = int32(len(b))
	s.buckets[ci] = append(b, idx)
}

// arm computes idx's drift deadline from its current motion leg and
// enqueues it on the wheel. Must run immediately after posAt(idx, now)
// so the channel's leg cache describes the leg containing now.
func (s *spatialIndex) arm(idx int32, now sim.Time) {
	if s.slackT <= 0 {
		return // all nodes static: bins never expire
	}
	dl := now + s.slackT
	if s.ch.legSrc[idx] != nil {
		if l := &s.ch.legs[idx]; l.start <= now && now < l.depart && now >= l.arrive {
			// Resting: the bin is the exact rest position, so drift stays
			// zero until the leg departs and bounded by maxSpeed after.
			if l.depart >= neverRebin-s.slackT {
				return // permanent rest: this bin never expires
			}
			dl = l.depart + s.slackT
		}
	}
	// Arm one tick before the deadline's own tick: the wheel rebins at
	// tick granularity, so the margin guarantees the rebin lands before
	// the budget is truly gone even when the drain falls late in a tick.
	s.armAt[idx] = int64(dl)/int64(s.slackT) - 1
	s.enqueue(idx)
}

// enqueue places idx on the wheel at its arm tick, clamped forward to
// the next undrained tick (never into a slot the cursor has passed).
func (s *spatialIndex) enqueue(idx int32) {
	t := s.armAt[idx]
	if t < s.tick {
		t = s.tick
	}
	s.wheel[t&wheelMask] = append(s.wheel[t&wheelMask], idx)
}

// removeFromBucket swap-removes interface idx from its bucket in O(1).
func (s *spatialIndex) removeFromBucket(idx int32) {
	b := s.buckets[s.cellOf[idx]]
	last := len(b) - 1
	moved := b[last]
	b[s.slotOf[idx]] = moved
	s.slotOf[moved] = s.slotOf[idx]
	s.buckets[s.cellOf[idx]] = b[:last]
	s.cellOf[idx] = -1
}

// refresh re-bins every interface whose drift budget may be exhausted,
// by draining the deadline-wheel ticks up to now. Every bin surviving a
// refresh has deadline > now, so the invariant drift < slack holds; a
// resting node costs nothing until its leg departs.
func (s *spatialIndex) refresh(now sim.Time) {
	if s.slackT <= 0 {
		return
	}
	nowTick := int64(now) / int64(s.slackT)
	if nowTick < s.tick {
		return
	}
	start := s.tick
	// Advance the cursor before draining: re-arms during the drains then
	// enqueue at slots > nowTick, so no entry is examined twice in one
	// refresh.
	s.tick = nowTick + 1
	if nowTick-start >= wheelSize {
		// Idle gap longer than a full wheel turn: one pass over every
		// slot examines everything that could be due.
		for t := range s.wheel {
			s.drainSlot(int64(t), nowTick, now)
		}
		return
	}
	for t := start; t <= nowTick; t++ {
		s.drainSlot(t&wheelMask, nowTick, now)
	}
}

// drainSlot examines one wheel slot: entries whose arm tick has arrived
// are rebinned (which re-arms them); aliased entries — armed for a
// later turn of the wheel but sharing the slot — are re-enqueued.
func (s *spatialIndex) drainSlot(slot, nowTick int64, now sim.Time) {
	b := s.wheel[slot]
	if len(b) == 0 {
		return
	}
	s.wheel[slot] = s.spare[:0]
	for _, idx := range b {
		if s.armAt[idx] <= nowTick {
			s.rebin(idx, now)
		} else {
			s.enqueue(idx)
		}
	}
	s.spare = b[:0]
}

// markCandidates classifies every interface that may lie within `sense`
// meters of p against the sensing and decode thresholds, using only
// binned positions (see the package comment for the bounds), and writes
// the result into the class scratch array. The caller must have called
// refresh(now) first, consumes class entries in ascending index order
// (zeroing each one it reads), and resolves scanExact entries with a
// true distance test. The sender itself is never marked.
//
// decode must be ≤ sense ≤ csRange (the cell size covers csRange).
func (s *spatialIndex) markCandidates(sender int32, p geo.Point, sense, decode float64) {
	sh := s.slack + epsMeters
	skip2 := sq(sense + sh)
	senseSure2 := surelyWithin2(sense, sh)
	recvSure2 := surelyWithin2(decode, sh)
	recvImpossible2 := sq(decode + sh)

	ci := int(s.cellIndex(p))
	col, row := ci%s.cols, ci/s.cols
	pos, class := s.pos, s.class
	for r := maxInt(row-1, 0); r <= minInt(row+1, s.rows-1); r++ {
		for c := maxInt(col-1, 0); c <= minInt(col+1, s.cols-1); c++ {
			for _, idx := range s.buckets[r*s.cols+c] {
				if idx == sender {
					continue
				}
				bd2 := p.Dist2(pos[idx])
				if bd2 > skip2 {
					continue // certainly out of sensing range
				}
				switch {
				case bd2 <= recvSure2:
					class[idx] = scanReceiver
				case bd2 <= senseSure2 && bd2 > recvImpossible2:
					class[idx] = scanSensorOnly
				default:
					class[idx] = scanExact
				}
			}
		}
	}
}

// surelyWithin2 returns the squared radius below which a binned distance
// certifies the true distance is within r, or -1 when no such zone
// exists (r smaller than the slack).
func surelyWithin2(r, slack float64) float64 {
	if r <= slack {
		return -1
	}
	return sq(r - slack)
}

func sq(v float64) float64 { return v * v }

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
