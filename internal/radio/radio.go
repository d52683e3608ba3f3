// Package radio models the shared wireless medium: unit-disk propagation
// with a nominal range (250 m in the paper), half-duplex interfaces,
// carrier sensing, and per-receiver collision bookkeeping.
//
// The model deliberately reproduces the effects the paper's evaluation
// hinges on:
//
//   - Hidden terminals: two senders out of each other's carrier-sense
//     range can transmit simultaneously; a receiver in range of both sees
//     overlapping frames and loses both.
//   - Half duplex: a node that starts transmitting corrupts any frame it
//     was receiving, and cannot receive while it transmits.
//
// Propagation delay (≈0.8 µs at 250 m) is ignored; frame airtimes are
// hundreds of microseconds to milliseconds, so this changes nothing the
// MAC can observe. Node movement within one frame (≤ millimeters at
// 20 m/s) is likewise ignored: the receiver set is frozen at frame start.
package radio

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"anongeo/internal/geo"
	"anongeo/internal/mobility"
	"anongeo/internal/sim"
)

// NodeID identifies an interface on a channel. It is a radio-level index,
// deliberately not a protocol identity: anonymity properties are decided
// by what the MAC and network layers put in frames, not by this index.
type NodeID int

// Receiver is the MAC-side contract of an interface. The channel invokes
// it from simulation events; implementations must not block.
type Receiver interface {
	// OnMediumBusy fires when the first in-range transmission begins.
	OnMediumBusy()
	// OnMediumIdle fires when the last in-range transmission ends.
	OnMediumIdle()
	// OnReceive delivers a frame that arrived without collision.
	OnReceive(tx *Transmission)
}

// Tap observes every transmission on the channel, for tracing and for the
// adversary package's eavesdroppers. Taps see frames regardless of
// position; position-limited adversaries filter on SenderPos themselves.
type Tap interface {
	// OnTransmit fires at the start of every transmission.
	OnTransmit(tx *Transmission)
	// OnDeliver fires for every clean delivery of tx to a receiver.
	OnDeliver(rx NodeID, rxPos geo.Point, tx *Transmission)
}

// Transmission is one frame on the air.
type Transmission struct {
	Sender    NodeID
	SenderPos geo.Point // sender position at frame start
	Start     sim.Time
	Airtime   time.Duration
	Bits      int
	Payload   any // the MAC frame

	// sensors are the interfaces within carrier-sense range at frame
	// start; receivers is the subset within decode range. The plain
	// (un-indexed) path records them as interface pointers; the indexed
	// path records interface ids instead — pooled pointer-free
	// slices cost no write barriers on append and nothing for the garbage
	// collector to scan.
	sensors     []*Iface
	receivers   []*Iface
	sensorIDs   []int32
	receiverIDs []int32

	// finishFn is the end-of-airtime callback, allocated once per pooled
	// Transmission and reused across recycles (it reads the sender id from
	// the struct at fire time), so the per-frame hot path schedules the
	// finish without allocating a fresh closure.
	finishFn func()
}

// End reports when the transmission leaves the air.
func (t *Transmission) End() sim.Time { return t.Start.Add(t.Airtime) }

// Stats aggregates channel-level counters for metrics and tests.
//
// Conservation invariant (the end-of-run audit checks it): every frozen
// receiver slot resolves exactly once, so
//
//	Deliveries + Collisions + (pending arrivals) == RxFrozen
//
// where Collisions counts every lost frame/receiver pair — interference,
// half-duplex corruption, fading, and jamming alike — and FadingLosses /
// JamLosses break out the loss-model share of that total.
type Stats struct {
	Transmissions int // frames put on the air
	Deliveries    int // clean frame deliveries (per receiver)
	Collisions    int // frame/receiver pairs lost (all causes)
	FadingLosses  int // clean deliveries killed by the fading loss model
	JamLosses     int // clean deliveries killed inside a jam window
	RxFrozen      int // frame/receiver pairs frozen at transmit start
	BitsSent      int64
}

// LossOutcome classifies a loss model's verdict on one otherwise-clean
// delivery.
type LossOutcome int

// Loss verdicts: LossNone delivers the frame; the other two corrupt it
// and select which Stats counter records the cause.
const (
	LossNone LossOutcome = iota
	LossFading
	LossJam
)

// LossModel decides, per otherwise-clean frame delivery, whether the
// frame is lost anyway — fading, bit errors, jamming. Implementations
// run on the simulation goroutine and must draw randomness only from
// deterministic engine streams so runs stay reproducible. rx is the
// receiving interface (position queries for regional models).
type LossModel interface {
	Lost(rx *Iface) LossOutcome
}

// bernoulliLoss is the independent per-delivery loss model: each
// delivery fails with probability p.
type bernoulliLoss struct {
	p   float64
	rng *rand.Rand
}

func (b *bernoulliLoss) Lost(*Iface) LossOutcome {
	if b.rng.Float64() < b.p {
		return LossFading
	}
	return LossNone
}

// NewBernoulliLoss builds the independent per-delivery loss model, for
// SetLossModel or for callers (the fault runtime) that compose it with
// other models. rng must be a dedicated deterministic stream.
func NewBernoulliLoss(p float64, rng *rand.Rand) LossModel {
	return &bernoulliLoss{p: p, rng: rng}
}

// Channel is the shared medium. It is single-threaded on the simulation
// engine; none of its methods are safe for concurrent use.
//
// The per-frame hot path keeps all per-interface hot state (busy
// counters, arrival slots, receiver callbacks, motion-leg memos) in
// dense channel-level arrays indexed by interface id, pools the
// per-frame sensor/receiver slices and Transmission structs, and — once
// EnableSpatialIndex is called — resolves the sensing set from a grid
// index instead of scanning every interface. Either way it classifies
// distances with squared-distance comparisons and touches interfaces in
// ascending id order; the index-vs-scan property test in this package
// and the result-digest table in internal/core pin that.
type Channel struct {
	eng     *sim.Engine
	rangeM  float64
	csRange float64
	loss    LossModel
	ifaces  []*Iface
	taps    []Tap
	stats   Stats

	arena    geo.Rect
	arenaSet bool
	maxSpeed float64
	index    *spatialIndex

	// slicePool and idPool recycle the per-frame sensor/receiver slices
	// (pointer slices for plain channels, id slices for indexed ones); a
	// frame returns its two slices in finish. txPool recycles
	// Transmission structs the same way, but only on indexed channels
	// (see getTx): plain channels keep allocation semantics so tests may
	// retain *Transmission past finish.
	slicePool [][]*Iface
	idPool    [][]int32
	txPool    []*Transmission

	// Dense per-interface hot state, indexed by interface id — the
	// struct-of-arrays layout of everything the notify and finish loops
	// touch per sensing interface. Keeping it in flat arrays means the
	// common quiet case (an already-busy sensor with nothing arriving)
	// is a couple of contiguous array operations instead of a cache miss
	// on a scattered Iface struct.
	//
	// busyTx packs the foreign-transmission count and the transmitting
	// flag as count<<1 | transmitting, so "is the medium busy here" is a
	// single non-zero test on one load. It is the source of truth for
	// the busy count; the flag bit mirrors Iface.transmitting != nil.
	// arr holds each interface's pending arrivals; rxs mirrors Iface.rx
	// so medium callbacks skip the Iface dereference.
	busyTx []int32
	arr    [][]arrivalSlot
	rxs    []Receiver

	// legs/legSrc memoize each node's current piecewise-linear motion
	// leg, so the hot-path position queries (annulus checks, rebinning,
	// delivery taps) evaluate one lerp inline instead of dispatching
	// into the mobility model. legSrc[k] is nil when k's model exports
	// no legs; posAt then falls back to PositionAt. Results are bit
	// identical either way (mobility.Leg's contract).
	legs   []legCache
	legSrc []mobility.LegProvider
}

// legCache is the channel-side mirror of one mobility.Leg, valid for
// now in [start, depart).
type legCache struct {
	start  sim.Time
	arrive sim.Time
	depart sim.Time
	from   geo.Point
	to     geo.Point
}

// posAt reports interface k's position at now via the leg cache,
// bit-for-bit equal to c.ifaces[k].model.PositionAt(now). now must be
// nonnegative (engine time always is).
func (c *Channel) posAt(k int32, now sim.Time) geo.Point {
	l := &c.legs[k]
	if now < l.start || now >= l.depart {
		lp := c.legSrc[k]
		if lp == nil {
			return c.ifaces[k].model.PositionAt(now)
		}
		lg := lp.LegAt(now)
		*l = legCache{start: lg.Start, arrive: lg.Arrive, depart: lg.Depart, from: lg.From, to: lg.To}
	}
	// Mirrors mobility's legPos exactly: same operations, same order.
	if now >= l.arrive {
		return l.to
	}
	f := float64(now-l.start) / float64(l.arrive-l.start)
	return l.from.Lerp(l.to, f)
}

// NewChannel creates a medium where every interface decodes
// transmissions within rangeM meters. The carrier-sense/interference
// range initially equals rangeM; real radios sense much farther than
// they decode (NS-2's WaveLAN model senses at ~2.2× the communication
// range), which SetCarrierSenseRange configures.
func NewChannel(eng *sim.Engine, rangeM float64) *Channel {
	if rangeM <= 0 {
		panic("radio: range must be positive")
	}
	return &Channel{eng: eng, rangeM: rangeM, csRange: rangeM}
}

// SetCarrierSenseRange widens the distance at which transmissions are
// sensed (and interfere with receptions) beyond the decode range. Must
// be called before traffic flows; cs must be >= the decode range.
func (c *Channel) SetCarrierSenseRange(cs float64) {
	if cs < c.rangeM {
		panic("radio: carrier-sense range below decode range")
	}
	c.csRange = cs
	c.index = nil // cell size derives from cs; rebuild lazily
}

// EnableSpatialIndex activates the grid index over the given arena.
// maxSpeed must upper-bound the speed of every attached mobility model
// (0 means all nodes are static); the index's lazy rebinning budget —
// and therefore its correctness — derives from it. Positions outside the
// arena stay correct (they clamp to border cells) but forfeit the
// speedup. core.Build feeds this from the scenario config.
func (c *Channel) EnableSpatialIndex(bounds geo.Rect, maxSpeed float64) {
	if bounds.Width() <= 0 || bounds.Height() <= 0 {
		panic("radio: spatial index arena must have positive extent")
	}
	if maxSpeed < 0 {
		panic("radio: negative max speed")
	}
	c.arena = bounds
	c.arenaSet = true
	c.maxSpeed = maxSpeed
	c.index = nil // rebuild lazily with the new parameters
}

// SetMaxSpeed adjusts the mobility bound the index's rebinning slack is
// derived from (see EnableSpatialIndex).
func (c *Channel) SetMaxSpeed(v float64) {
	if v < 0 {
		panic("radio: negative max speed")
	}
	c.maxSpeed = v
	c.index = nil
}

// ensureIndex returns the grid index, building it on first use, or nil
// when the channel runs without one (no arena configured).
func (c *Channel) ensureIndex() *spatialIndex {
	if c.index != nil {
		return c.index
	}
	if !c.arenaSet {
		return nil
	}
	c.index = newSpatialIndex(c, c.arena, c.csRange, c.maxSpeed)
	now := c.eng.Now()
	for _, i := range c.ifaces {
		c.index.insert(i, now)
	}
	return c.index
}

// SetLossModel installs a pluggable per-delivery loss model (nil
// disables loss injection). The model is consulted once per
// otherwise-clean delivery, in deterministic delivery order.
func (c *Channel) SetLossModel(m LossModel) { c.loss = m }

// PendingArrivals counts frame/receiver pairs frozen but not yet
// resolved — transmissions still on the air. The end-of-run
// conservation audit uses it to close the Stats invariant.
func (c *Channel) PendingArrivals() int {
	n := 0
	for _, arr := range c.arr {
		n += len(arr)
	}
	return n
}

// applyLoss runs the loss model over an otherwise-clean delivery and
// books the outcome; it reports whether the frame was lost.
func (c *Channel) applyLoss(rx *Iface) bool {
	if c.loss == nil {
		return false
	}
	switch c.loss.Lost(rx) {
	case LossFading:
		c.stats.FadingLosses++
		return true
	case LossJam:
		c.stats.JamLosses++
		return true
	}
	return false
}

// Range reports the nominal decode range in meters.
func (c *Channel) Range() float64 { return c.rangeM }

// CarrierSenseRange reports the sensing/interference range in meters.
func (c *Channel) CarrierSenseRange() float64 { return c.csRange }

// Stats returns a snapshot of the channel counters.
func (c *Channel) Stats() Stats { return c.stats }

// AddTap registers a channel observer.
func (c *Channel) AddTap(t Tap) { c.taps = append(c.taps, t) }

// AddNode attaches an interface moving per model and delivering to rx.
func (c *Channel) AddNode(model mobility.Model, rx Receiver) *Iface {
	i := &Iface{
		id:    NodeID(len(c.ifaces)),
		ch:    c,
		model: model,
		rx:    rx,
	}
	c.ifaces = append(c.ifaces, i)
	c.busyTx = append(c.busyTx, 0)
	c.arr = append(c.arr, nil)
	c.rxs = append(c.rxs, rx)
	lp, _ := model.(mobility.LegProvider)
	c.legSrc = append(c.legSrc, lp)
	c.legs = append(c.legs, legCache{})
	if c.index != nil {
		c.index.insert(i, c.eng.Now())
	}
	return i
}

// NumNodes reports how many interfaces are attached.
func (c *Channel) NumNodes() int { return len(c.ifaces) }

// Iface returns the interface with the given id.
func (c *Channel) Iface(id NodeID) *Iface { return c.ifaces[id] }

// arrivalSlot tracks one transmission currently impinging on one
// interface, held by value in a small slice: at most a handful of frames
// ever overlap at one receiver, so a linear scan beats a map and the
// record never allocates.
type arrivalSlot struct {
	tx      *Transmission
	corrupt bool
}

// Iface is one node's attachment to the channel. Its arrival slots live
// in ch.arr[id] (struct-of-arrays).
type Iface struct {
	id    NodeID
	ch    *Channel
	model mobility.Model
	rx    Receiver

	transmitting *Transmission // ch.busyTx's low bit mirrors non-nilness
}

// ID reports the interface's channel index.
func (i *Iface) ID() NodeID { return i.id }

// Pos reports the node's current position.
func (i *Iface) Pos() geo.Point {
	return i.ch.posAt(int32(i.id), i.ch.eng.Now())
}

// Busy reports whether the medium is physically busy at this interface:
// a foreign in-range transmission is on air, or we are transmitting.
func (i *Iface) Busy() bool { return i.ch.busyTx[i.id] != 0 }

// Transmitting reports whether this interface is currently sending.
func (i *Iface) Transmitting() bool { return i.transmitting != nil }

// Transmit puts a frame of the given size on the air for airtime. The MAC
// is responsible for all channel-access rules (CSMA, SIFS responses); the
// channel never refuses a transmission, it just lets collisions happen.
// Transmitting while already transmitting is a MAC bug and panics.
func (i *Iface) Transmit(bits int, airtime time.Duration, payload any) *Transmission {
	if i.transmitting != nil {
		panic(fmt.Sprintf("radio: iface %d began a transmission while already transmitting", i.id))
	}
	if airtime <= 0 {
		panic("radio: airtime must be positive")
	}
	c := i.ch
	now := c.eng.Now()
	tx := c.getTx()
	fin := tx.finishFn
	*tx = Transmission{
		Sender:    i.id,
		SenderPos: i.model.PositionAt(now),
		Start:     now,
		Airtime:   airtime,
		Bits:      bits,
		Payload:   payload,
	}
	if fin == nil {
		fin = func() { c.finish(c.ifaces[tx.Sender], tx) }
	}
	tx.finishFn = fin
	i.transmitting = tx
	c.busyTx[i.id] |= 1
	c.stats.Transmissions++
	c.stats.BitsSent += int64(bits)

	// Freeze the sensing and receiving sets at frame start. Interfaces
	// within the carrier-sense range sense the medium busy and have any
	// in-progress reception corrupted; only those within the decode
	// range can receive the frame itself.
	i.freeze(tx, now)

	for _, tap := range c.taps {
		tap.OnTransmit(tx)
	}

	c.eng.Schedule(airtime, fin)
	return tx
}

// freeze fixes tx's sensing/receiving sets via the spatial index when
// one is configured, or an id-order linear scan otherwise. Either way
// interfaces are notified in ascending id order — the order of a full
// scan — so downstream event scheduling and RNG draws do not depend on
// the index.
func (i *Iface) freeze(tx *Transmission, now sim.Time) {
	c := i.ch
	// Half duplex: starting to send destroys anything we were receiving.
	self := c.arr[i.id]
	for k := range self {
		self[k].corrupt = true
	}
	cs2 := c.csRange * c.csRange
	r2 := c.rangeM * c.rangeM
	if s := c.ensureIndex(); s != nil {
		s.refresh(now)
		sensors, receivers := c.getIDSlice(), c.getIDSlice()
		bt, arrs, rxs := c.busyTx, c.arr, c.rxs
		if s.linearScan {
			// Small-arena mode (see spatialIndex.linearScan): classify
			// against a sequential walk of the binned positions, fused with
			// the notify step — one pass in natural ascending id order,
			// exactly markCandidates' thresholds, no scratch array. The
			// notify body below mirrors the bucketed branch's.
			sh := s.slack + epsMeters
			skip2 := sq(c.csRange + sh)
			senseSure2 := surelyWithin2(c.csRange, sh)
			recvSure2 := surelyWithin2(c.rangeM, sh)
			recvImpossible2 := sq(c.rangeM + sh)
			// Hoist the self test out of the loop: park our own binned
			// position at infinity so the range cut rejects it like any
			// far node, then restore it. One compare per iteration, but
			// this is the hottest loop in the simulator.
			selfID := int(i.id)
			selfPos := s.pos[selfID]
			s.pos[selfID] = geo.Pt(math.Inf(1), math.Inf(1))
			sx, sy := tx.SenderPos.X, tx.SenderPos.Y
			for k, bp := range s.pos {
				// Dist2 split so the x-term alone rejects most of a wide
				// arena: dy² ≥ 0 can only grow the sum, so bailing on
				// dx² > skip2 skips exactly the nodes the full distance
				// would. Survivors see the same dx*dx + dy*dy Dist2
				// computes.
				dx := sx - bp.X
				bd2 := dx * dx
				if bd2 > skip2 {
					continue // certainly out of sensing range
				}
				dy := sy - bp.Y
				bd2 += dy * dy
				if bd2 > skip2 {
					continue // certainly out of sensing range
				}
				receiver := bd2 <= recvSure2
				if !receiver && (bd2 > senseSure2 || bd2 <= recvImpossible2) {
					// Uncertainty annulus: resolve with the true position.
					d2 := tx.SenderPos.Dist2(c.posAt(int32(k), now))
					if d2 > cs2 {
						continue
					}
					receiver = d2 <= r2
				}
				sensors = append(sensors, int32(k))
				wasBusy := bt[k] != 0
				bt[k] += 2
				if arr := arrs[k]; len(arr) > 0 {
					// Interference: corrupt whatever was arriving at k.
					for a := range arr {
						arr[a].corrupt = true
					}
				}
				if receiver {
					receivers = append(receivers, int32(k))
					c.stats.RxFrozen++
					// The newcomer is corrupt at k iff anything was already
					// on the medium there — another impinging frame, or k's
					// own half-duplex transmission.
					arrs[k] = append(arrs[k], arrivalSlot{tx: tx, corrupt: wasBusy})
				}
				if !wasBusy {
					rxs[k].OnMediumBusy()
				}
			}
			s.pos[selfID] = selfPos
			tx.sensorIDs, tx.receiverIDs = sensors, receivers
			return
		}
		s.markCandidates(int32(i.id), tx.SenderPos, c.csRange, c.rangeM)
		// Consume the classification array in ascending id order — the
		// exact sequence a full scan notifies in — zeroing each
		// mark so the scratch is clean for the next query. The notify
		// steps are notifyOne inlined against the dense state arrays:
		// a candidate that is already busy with nothing arriving is
		// handled without touching its Iface struct at all.
		for k, cl := range s.class {
			if cl == 0 {
				continue
			}
			s.class[k] = 0
			receiver := cl == scanReceiver
			if cl == scanExact {
				d2 := tx.SenderPos.Dist2(c.posAt(int32(k), now))
				if d2 > cs2 {
					continue
				}
				receiver = d2 <= r2
			}
			sensors = append(sensors, int32(k))
			wasBusy := bt[k] != 0
			bt[k] += 2
			if arr := arrs[k]; len(arr) > 0 {
				// Interference: corrupt whatever was arriving at k.
				for a := range arr {
					arr[a].corrupt = true
				}
			}
			if receiver {
				receivers = append(receivers, int32(k))
				c.stats.RxFrozen++
				// The newcomer is corrupt at k iff anything was already
				// on the medium there — another impinging frame, or k's
				// own half-duplex transmission.
				arrs[k] = append(arrs[k], arrivalSlot{tx: tx, corrupt: wasBusy})
			}
			if !wasBusy {
				rxs[k].OnMediumBusy()
			}
		}
		tx.sensorIDs, tx.receiverIDs = sensors, receivers
		return
	}
	tx.sensors = c.getSlice()
	tx.receivers = c.getSlice()
	for _, j := range c.ifaces {
		if j == i {
			continue
		}
		d2 := tx.SenderPos.Dist2(j.model.PositionAt(now))
		if d2 <= cs2 {
			i.notifyOne(tx, j, d2 <= r2)
		}
	}
}

// notifyOne applies one frozen sensing decision: j senses tx and, when
// receiver is set, gets an arrival slot for it. Must be called in
// ascending j.id order within one transmission.
func (i *Iface) notifyOne(tx *Transmission, j *Iface, receiver bool) {
	c := j.ch
	tx.sensors = append(tx.sensors, j)
	wasBusy := j.Busy()
	c.busyTx[j.id] += 2
	// Interference: this transmission corrupts whatever j was
	// receiving, even if j cannot decode it.
	arr := c.arr[j.id]
	for k := range arr {
		arr[k].corrupt = true
	}
	if receiver {
		tx.receivers = append(tx.receivers, j)
		c.stats.RxFrozen++
		// The newcomer is corrupt at j if anything else was already on
		// the medium there — an impinging frame or j's own half-duplex
		// transmission — which is exactly wasBusy.
		c.arr[j.id] = append(c.arr[j.id], arrivalSlot{tx: tx, corrupt: wasBusy})
	}
	if !wasBusy {
		j.rx.OnMediumBusy()
	}
}

// finish completes a transmission: clears the sender's half-duplex state
// and delivers or discards the frame at each frozen receiver, releasing
// the medium at every sensing interface.
func (c *Channel) finish(sender *Iface, tx *Transmission) {
	sender.transmitting = nil
	c.busyTx[sender.id] &^= 1
	if tx.sensorIDs != nil {
		c.finishIndexed(tx)
		return
	}
	// Receivers are the id-ordered subset of sensors that hold an arrival
	// slot for tx, so a merge cursor finds them without probing every
	// sensor's arrival list.
	rc := 0
	for _, j := range tx.sensors {
		c.busyTx[j.id] -= 2
		if rc < len(tx.receivers) && tx.receivers[rc] == j {
			rc++
			if k := c.findArrival(int32(j.id), tx); k >= 0 {
				corrupt := c.arr[j.id][k].corrupt
				c.removeArrival(int32(j.id), k)
				if !corrupt && c.applyLoss(j) {
					corrupt = true
				}
				if !corrupt {
					c.stats.Deliveries++
					for _, tap := range c.taps {
						tap.OnDeliver(j.id, c.posAt(int32(j.id), c.eng.Now()), tx)
					}
					j.rx.OnReceive(tx)
				} else {
					c.stats.Collisions++
				}
			}
		}
		if !j.Busy() {
			j.rx.OnMediumIdle()
		}
	}
	c.putSlice(tx.sensors)
	c.putSlice(tx.receivers)
	tx.sensors, tx.receivers = nil, nil
	c.putTx(tx)
}

// finishIndexed is finish's hot loop for indexed frames, which carry
// their frozen sets as interface ids (see freeze).
func (c *Channel) finishIndexed(tx *Transmission) {
	rc := 0
	recv := tx.receiverIDs
	bt, rxs := c.busyTx, c.rxs
	for _, idx := range tx.sensorIDs {
		v := bt[idx] - 2
		bt[idx] = v
		if rc < len(recv) && recv[rc] == idx {
			rc++
			if k := c.findArrival(idx, tx); k >= 0 {
				corrupt := c.arr[idx][k].corrupt
				c.removeArrival(idx, k)
				if !corrupt && c.applyLoss(c.ifaces[idx]) {
					corrupt = true
				}
				if !corrupt {
					c.stats.Deliveries++
					for _, tap := range c.taps {
						tap.OnDeliver(NodeID(idx), c.posAt(idx, c.eng.Now()), tx)
					}
					rxs[idx].OnReceive(tx)
				} else {
					c.stats.Collisions++
				}
			}
		}
		if v == 0 {
			rxs[idx].OnMediumIdle()
		}
	}
	c.putIDSlice(tx.sensorIDs)
	c.putIDSlice(tx.receiverIDs)
	tx.sensorIDs, tx.receiverIDs = nil, nil
	c.putTx(tx)
}

// findArrival reports the index of tx in interface id's arrival slots,
// or -1.
func (c *Channel) findArrival(id int32, tx *Transmission) int {
	arr := c.arr[id]
	for k := range arr {
		if arr[k].tx == tx {
			return k
		}
	}
	return -1
}

// removeArrival swap-removes slot k; arrival order is never observable.
func (c *Channel) removeArrival(id int32, k int) {
	arr := c.arr[id]
	last := len(arr) - 1
	arr[k] = arr[last]
	arr[last] = arrivalSlot{}
	c.arr[id] = arr[:last]
}

// txChunk is how many Transmissions one pool refill allocates at once.
// Chunking arena-style keeps the recycled structs contiguous and cuts
// steady-state allocation on indexed channels to the rare refill.
const txChunk = 64

// getTx pops a pooled Transmission or allocates. Pooling only happens
// on indexed channels (core scenarios, where the MAC consumes
// transmissions synchronously): a plain channel never recycles, so tests
// that retain *Transmission across deliveries stay valid.
func (c *Channel) getTx() *Transmission {
	if n := len(c.txPool); n > 0 {
		tx := c.txPool[n-1]
		c.txPool = c.txPool[:n-1]
		return tx
	}
	if c.arenaSet {
		chunk := make([]Transmission, txChunk)
		for k := txChunk - 1; k > 0; k-- {
			c.txPool = append(c.txPool, &chunk[k])
		}
		return &chunk[0]
	}
	return &Transmission{}
}

// putTx recycles a finished transmission on indexed channels. Receivers
// and taps on such channels must not hold *Transmission past the
// callback that handed it to them.
func (c *Channel) putTx(tx *Transmission) {
	if !c.arenaSet {
		return
	}
	// No need to zero the struct: Transmit overwrites every field on
	// reuse and the callers already nil'ed the frozen-set slices. Only
	// the payload reference is dropped so the pool does not pin frames.
	tx.Payload = nil
	c.txPool = append(c.txPool, tx)
}

// getSlice pops a pooled interface slice (len 0) or makes a fresh one.
func (c *Channel) getSlice() []*Iface {
	if n := len(c.slicePool); n > 0 {
		s := c.slicePool[n-1]
		c.slicePool = c.slicePool[:n-1]
		return s
	}
	return make([]*Iface, 0, 8)
}

// putSlice returns a per-frame slice to the pool.
func (c *Channel) putSlice(s []*Iface) {
	if s == nil {
		return
	}
	c.slicePool = append(c.slicePool, s[:0])
}

// getIDSlice pops a pooled id slice (len 0) or makes a fresh one.
func (c *Channel) getIDSlice() []int32 {
	if n := len(c.idPool); n > 0 {
		s := c.idPool[n-1]
		c.idPool = c.idPool[:n-1]
		return s
	}
	return make([]int32, 0, 8)
}

// putIDSlice returns a per-frame id slice to the pool.
func (c *Channel) putIDSlice(s []int32) {
	c.idPool = append(c.idPool, s[:0])
}

// Neighbors reports the interfaces currently within range of i, in
// ascending id order — a convenience for tests and oracle-style queries
// (protocols must learn neighbors from beacons, not from this). It rides
// the spatial index when one is configured.
func (i *Iface) Neighbors() []*Iface {
	c := i.ch
	now := c.eng.Now()
	r2 := c.rangeM * c.rangeM
	var out []*Iface
	if s := c.ensureIndex(); s != nil {
		p := c.posAt(int32(i.id), now)
		s.refresh(now)
		// With sense == decode there are only certain receivers, certain
		// misses, and the exact-check annulus.
		s.markCandidates(int32(i.id), p, c.rangeM, c.rangeM)
		for k, cl := range s.class {
			if cl == 0 {
				continue
			}
			s.class[k] = 0
			if cl == scanReceiver || p.Dist2(c.posAt(int32(k), now)) <= r2 {
				out = append(out, c.ifaces[k])
			}
		}
		return out
	}
	p := i.model.PositionAt(now)
	for _, j := range c.ifaces {
		if j == i {
			continue
		}
		if p.Dist2(j.model.PositionAt(now)) <= r2 {
			out = append(out, j)
		}
	}
	return out
}
