// Calendar-queue event scheduler — the engine's event queue.
//
// A binary heap costs O(log n) per operation with a pointer-hopping
// memory pattern that worsens as the pending-event population grows; at
// large N the simulator keeps thousands of timers in flight (beacons,
// MAC backoff, ACK timeouts) and the heap becomes a measurable share of
// every event's cost. The calendar queue (Brown, CACM 1988 — the
// structure NS-2 ships as its default scheduler) replaces it with a
// bucketed timing wheel: events hash into buckets by time, enqueue and
// dequeue are O(1) amortized when the bucket width tracks the head-of-
// queue event density, and cancels are O(1) swap-removes.
//
// Determinism contract: (at, seq) is a strict total order over events,
// and dequeue always returns the globally least (at, seq) pair. The
// wheel's internal layout (bucket width, resizes, within-bucket order)
// can never leak into results; the scheduler property tests in this
// package and the result-digest table in internal/core pin that.
//
// Width and size adapt deterministically: the width re-estimates from
// the simulated-time span of the last calResample dequeues (a pure
// function of the event sequence, which is itself deterministic), and
// the bucket count doubles/halves on population thresholds. No
// randomness, no wall-clock, no map iteration.
package sim

// calSlot is one bucket entry: the ordering key, denormalized from the
// event, plus the event itself, so the compares that dominate bucket
// scans walk contiguous slots and never dereference an Event.
type calSlot struct {
	at  Time
	seq uint64
	ev  *Event
}

func (a calSlot) before(b calSlot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

const (
	// calMinBuckets / calMaxBuckets bound the wheel size (powers of two).
	calMinBuckets = 1 << 8
	calMaxBuckets = 1 << 20
	// calInitWidth is the starting bucket width; the first resample
	// replaces it with a measured value.
	calInitWidth = Time(64 * Microsecond)
	// calResample is how many dequeues pass between width re-estimates.
	calResample = 256
)

// calQueue is the bucketed calendar. Events are addressed for O(1)
// removal through Event.bucket (which bucket) and Event.index (the slot
// within it).
type calQueue struct {
	buckets [][]calSlot
	mask    int  // len(buckets) - 1
	width   Time // bucket span in simulated time
	count   int

	// The dequeue cursor: buckets are consumed as "days" of one
	// wheel-revolution "year". day is the bucket under the cursor and
	// dayEnd the exclusive end of its current window; every queued event
	// satisfies at >= dayEnd - width (push moves the cursor back when an
	// earlier event arrives), so scanning forward from the cursor visits
	// windows in nondecreasing order and the first in-window slot found
	// by (at, seq) minimum is the global minimum.
	day    int
	dayEnd Time

	// Width resampling state: spanStart is the timestamp of the dequeue
	// calResample pops ago.
	spanStart Time
	spanPops  int
}

// init sizes an empty wheel.
func (q *calQueue) init() {
	q.buckets = make([][]calSlot, calMinBuckets)
	q.mask = calMinBuckets - 1
	q.width = calInitWidth
}

func (q *calQueue) bucketOf(at Time) int {
	return int(int64(at)/int64(q.width)) & q.mask
}

// push adds ev (whose at and seq are already set) to the wheel.
func (q *calQueue) push(ev *Event) {
	if q.buckets == nil {
		q.init()
	}
	if q.count == 0 || ev.at < q.dayEnd-q.width {
		// Empty wheel, or an event before the cursor's window (possible
		// after a popLE peek-reinsert advanced the cursor): rewind the
		// cursor to the new earliest region so the scan stays exhaustive.
		q.day = q.bucketOf(ev.at)
		q.dayEnd = (ev.at/q.width + 1) * q.width
	}
	b := q.bucketOf(ev.at)
	ev.bucket = int32(b)
	ev.index = len(q.buckets[b])
	q.buckets[b] = append(q.buckets[b], calSlot{at: ev.at, seq: ev.seq, ev: ev})
	q.count++
	if q.count > 2*len(q.buckets) && len(q.buckets) < calMaxBuckets {
		q.resize(len(q.buckets) * 2)
	}
}

// popMin removes and returns the globally earliest event by (at, seq).
func (q *calQueue) popMin() *Event {
	if q.count == 0 {
		return nil
	}
	i, end := q.day, q.dayEnd
	for scanned := 0; scanned <= q.mask; scanned++ {
		b := q.buckets[i]
		best := -1
		for k := range b {
			if b[k].at < end && (best < 0 || b[k].before(b[best])) {
				best = k
			}
		}
		if best >= 0 {
			q.day, q.dayEnd = i, end
			return q.take(i, best)
		}
		i = (i + 1) & q.mask
		end += q.width
	}
	// Sparse year: nothing due within one full revolution. Fall back to
	// a direct search for the global minimum and re-seat the cursor.
	bi, bk := -1, -1
	for i := range q.buckets {
		for k := range q.buckets[i] {
			if bi < 0 || q.buckets[i][k].before(q.buckets[bi][bk]) {
				bi, bk = i, k
			}
		}
	}
	at := q.buckets[bi][bk].at
	q.day = bi
	q.dayEnd = (at/q.width + 1) * q.width
	return q.take(bi, bk)
}

// take removes slot k of bucket b, maintains the removed event's
// replacement's address, books the dequeue into the width resample, and
// considers shrinking.
func (q *calQueue) take(b, k int) *Event {
	out := q.buckets[b][k].ev
	q.removeSlot(b, k)
	// Width resampling: every calResample dequeues, set the width to the
	// mean inter-dequeue gap over the window (so one bucket-day holds
	// about one due event) and rebuild if it drifted by more than 4x.
	q.spanPops++
	if q.spanPops >= calResample {
		gap := (out.at - q.spanStart) / calResample
		if gap < 1 {
			gap = 1
		}
		q.spanStart = out.at
		q.spanPops = 0
		if gap > q.width*4 || gap*4 < q.width {
			q.resizeWidth(len(q.buckets), gap)
		}
	}
	if q.count < len(q.buckets)/4 && len(q.buckets) > calMinBuckets {
		q.resize(len(q.buckets) / 2)
	}
	return out
}

// removeSlot swap-removes slot k from bucket b (Cancel's O(1) path).
func (q *calQueue) removeSlot(b, k int) {
	s := q.buckets[b]
	last := len(s) - 1
	removed := s[k].ev
	if k != last {
		s[k] = s[last]
		s[k].ev.index = k
	}
	s[last] = calSlot{}
	q.buckets[b] = s[:last]
	removed.index = -1
	removed.bucket = -1
	q.count--
}

// resize rebuilds the wheel with nb buckets, re-measuring nothing: the
// width keeps its current value (resizeWidth handles width changes).
func (q *calQueue) resize(nb int) { q.resizeWidth(nb, q.width) }

// resizeWidth rebuilds the wheel with nb buckets of the given width and
// re-seats the cursor at the global minimum.
func (q *calQueue) resizeWidth(nb int, width Time) {
	old := q.buckets
	q.buckets = make([][]calSlot, nb)
	q.mask = nb - 1
	q.width = width
	q.count = 0
	var minAt Time
	var minSeen bool
	for _, b := range old {
		for _, sl := range b {
			d := q.bucketOf(sl.at)
			sl.ev.bucket = int32(d)
			sl.ev.index = len(q.buckets[d])
			q.buckets[d] = append(q.buckets[d], sl)
			q.count++
			if !minSeen || sl.at < minAt {
				minAt, minSeen = sl.at, true
			}
		}
	}
	if minSeen {
		q.day = q.bucketOf(minAt)
		q.dayEnd = (minAt/q.width + 1) * q.width
	}
}
