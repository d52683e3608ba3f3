package radio

import (
	"testing"
	"time"

	"anongeo/internal/geo"
	"anongeo/internal/mobility"
	"anongeo/internal/sim"
)

// recorder is a Receiver capturing everything the channel tells it.
type recorder struct {
	received  []*Transmission
	busyCalls int
	idleCalls int
}

func (r *recorder) OnMediumBusy()              { r.busyCalls++ }
func (r *recorder) OnMediumIdle()              { r.idleCalls++ }
func (r *recorder) OnReceive(tx *Transmission) { r.received = append(r.received, tx) }

// tapRecorder captures tap callbacks.
type tapRecorder struct {
	transmits  []*Transmission
	deliveries []NodeID
}

func (t *tapRecorder) OnTransmit(tx *Transmission) { t.transmits = append(t.transmits, tx) }
func (t *tapRecorder) OnDeliver(rx NodeID, _ geo.Point, _ *Transmission) {
	t.deliveries = append(t.deliveries, rx)
}

func addStatic(c *Channel, x, y float64) (*Iface, *recorder) {
	r := &recorder{}
	i := c.AddNode(mobility.Static{At: geo.Pt(x, y)}, r)
	return i, r
}

func TestInRangeDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	a, _ := addStatic(c, 0, 0)
	_, rb := addStatic(c, 100, 0)
	a.Transmit(1000, time.Millisecond, "hello")
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rb.received) != 1 {
		t.Fatalf("b received %d frames, want 1", len(rb.received))
	}
	if rb.received[0].Payload != "hello" {
		t.Fatalf("payload = %v", rb.received[0].Payload)
	}
	if got := c.Stats(); got.Transmissions != 1 || got.Deliveries != 1 || got.Collisions != 0 {
		t.Fatalf("stats = %+v", got)
	}
}

func TestOutOfRangeNoDelivery(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	a, _ := addStatic(c, 0, 0)
	_, rb := addStatic(c, 251, 0)
	a.Transmit(1000, time.Millisecond, "x")
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rb.received) != 0 {
		t.Fatalf("out-of-range node received %d frames", len(rb.received))
	}
	if rb.busyCalls != 0 {
		t.Fatal("out-of-range node sensed carrier")
	}
}

func TestExactRangeBoundaryDelivers(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	a, _ := addStatic(c, 0, 0)
	_, rb := addStatic(c, 250, 0)
	a.Transmit(8, time.Millisecond, nil)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rb.received) != 1 {
		t.Fatal("node exactly at range edge should receive")
	}
}

func TestSenderDoesNotReceiveOwnFrame(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	a, ra := addStatic(c, 0, 0)
	a.Transmit(8, time.Millisecond, nil)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(ra.received) != 0 {
		t.Fatal("sender received its own frame")
	}
}

func TestBusyIdleCallbacks(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	a, _ := addStatic(c, 0, 0)
	_, rb := addStatic(c, 100, 0)
	a.Transmit(8, time.Millisecond, nil)
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if rb.busyCalls != 1 || rb.idleCalls != 1 {
		t.Fatalf("busy=%d idle=%d, want 1/1", rb.busyCalls, rb.idleCalls)
	}
}

func TestOverlapCollidesBoth(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	// a and b are hidden from each other (500 m apart), m is in the middle.
	a, _ := addStatic(c, 0, 0)
	b, _ := addStatic(c, 500, 0)
	_, rm := addStatic(c, 250, 0)
	eng.Schedule(0, func() { a.Transmit(8000, time.Millisecond, "A") })
	eng.Schedule(500*time.Microsecond, func() { b.Transmit(8000, time.Millisecond, "B") })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rm.received) != 0 {
		t.Fatalf("middle node received %d frames despite hidden-terminal collision", len(rm.received))
	}
	if got := c.Stats().Collisions; got != 2 {
		t.Fatalf("collisions = %d, want 2", got)
	}
}

func TestNonOverlappingFramesBothDeliver(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	a, _ := addStatic(c, 0, 0)
	b, _ := addStatic(c, 500, 0)
	_, rm := addStatic(c, 250, 0)
	eng.Schedule(0, func() { a.Transmit(8, time.Millisecond, "A") })
	eng.Schedule(2*time.Millisecond, func() { b.Transmit(8, time.Millisecond, "B") })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rm.received) != 2 {
		t.Fatalf("middle node received %d frames, want 2", len(rm.received))
	}
}

func TestCollisionOnlyAtOverlappedReceiver(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	// a at 0, b at 500: both reach m at 250. A second receiver r at -200
	// hears only a, so a's frame survives there.
	a, _ := addStatic(c, 0, 0)
	b, _ := addStatic(c, 500, 0)
	_, rm := addStatic(c, 250, 0)
	_, rr := addStatic(c, -200, 0)
	eng.Schedule(0, func() { a.Transmit(8000, time.Millisecond, "A") })
	eng.Schedule(100*time.Microsecond, func() { b.Transmit(8000, time.Millisecond, "B") })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rm.received) != 0 {
		t.Fatal("collided receiver got a frame")
	}
	if len(rr.received) != 1 || rr.received[0].Payload != "A" {
		t.Fatalf("clear receiver got %v, want A's frame", rr.received)
	}
}

func TestHalfDuplexTransmitCorruptsReception(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	a, _ := addStatic(c, 0, 0)
	b, rb := addStatic(c, 100, 0)
	eng.Schedule(0, func() { a.Transmit(8000, time.Millisecond, "A") })
	// b starts its own frame while a's is still arriving.
	eng.Schedule(200*time.Microsecond, func() { b.Transmit(8, 100*time.Microsecond, "B") })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rb.received) != 0 {
		t.Fatal("half-duplex node received while transmitting")
	}
}

func TestReceiverMidTransmissionMissesNewFrame(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	a, _ := addStatic(c, 0, 0)
	b, rb := addStatic(c, 100, 0)
	// b transmits 0..1ms; a's short frame arrives entirely inside that.
	eng.Schedule(0, func() { b.Transmit(8000, time.Millisecond, "B") })
	eng.Schedule(200*time.Microsecond, func() { a.Transmit(8, 100*time.Microsecond, "A") })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rb.received) != 0 {
		t.Fatal("node received a frame while itself transmitting")
	}
}

func TestDoubleTransmitPanics(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	a, _ := addStatic(c, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on transmit-while-transmitting")
		}
	}()
	a.Transmit(8, time.Millisecond, nil)
	a.Transmit(8, time.Millisecond, nil)
}

func TestMovingNodeOutOfRangeMissesFrame(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	a, _ := addStatic(c, 0, 0)
	r := &recorder{}
	// Starts out of range and stays out at frame start; moves in later.
	c.AddNode(mobility.Linear{Start: geo.Pt(300, 0), Velocity: geo.Pt(-10, 0)}, r)
	eng.Schedule(0, func() { a.Transmit(8, time.Millisecond, nil) })
	// At t=10s the mover is at 200,0 (in range): second frame reaches it.
	eng.Schedule(10*time.Second, func() { a.Transmit(8, time.Millisecond, nil) })
	if err := eng.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(r.received) != 1 {
		t.Fatalf("mover received %d frames, want 1", len(r.received))
	}
}

func TestTapSeesAllTransmissionsAndDeliveries(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	tap := &tapRecorder{}
	c.AddTap(tap)
	a, _ := addStatic(c, 0, 0)
	addStatic(c, 100, 0)
	addStatic(c, 200, 0)
	a.Transmit(8, time.Millisecond, "x")
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(tap.transmits) != 1 {
		t.Fatalf("tap saw %d transmits", len(tap.transmits))
	}
	if len(tap.deliveries) != 2 {
		t.Fatalf("tap saw %d deliveries, want 2", len(tap.deliveries))
	}
}

func TestNeighborsOracle(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	a, _ := addStatic(c, 0, 0)
	addStatic(c, 100, 0)
	addStatic(c, 200, 0)
	addStatic(c, 900, 0)
	if got := len(a.Neighbors()); got != 2 {
		t.Fatalf("neighbors = %d, want 2", got)
	}
}

func TestBusyReflectsForeignTransmissions(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	a, _ := addStatic(c, 0, 0)
	b, _ := addStatic(c, 100, 0)
	var during, after bool
	eng.Schedule(0, func() { a.Transmit(8, time.Millisecond, nil) })
	eng.Schedule(500*time.Microsecond, func() { during = b.Busy() })
	eng.Schedule(2*time.Millisecond, func() { after = b.Busy() })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if !during {
		t.Fatal("Busy() = false during foreign transmission")
	}
	if after {
		t.Fatal("Busy() = true after transmission ended")
	}
}

func TestTransmissionEndTime(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	a, _ := addStatic(c, 0, 0)
	var tx *Transmission
	eng.Schedule(3*time.Millisecond, func() { tx = a.Transmit(8, 2*time.Millisecond, nil) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if tx.Start != sim.Time(3*sim.Millisecond) || tx.End() != sim.Time(5*sim.Millisecond) {
		t.Fatalf("tx window = [%v,%v]", tx.Start, tx.End())
	}
}

func TestBitsAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	a, _ := addStatic(c, 0, 0)
	eng.Schedule(0, func() { a.Transmit(1000, time.Millisecond, nil) })
	eng.Schedule(5*time.Millisecond, func() { a.Transmit(500, time.Millisecond, nil) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().BitsSent; got != 1500 {
		t.Fatalf("BitsSent = %d, want 1500", got)
	}
}

func TestThreeWayCollision(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewChannel(eng, 250)
	// three hidden senders around one receiver
	s1, _ := addStatic(c, 0, 0)
	s2, _ := addStatic(c, 400, 0)
	s3, _ := addStatic(c, 200, 240)
	_, rm := addStatic(c, 200, 60)
	eng.Schedule(0, func() { s1.Transmit(8000, time.Millisecond, nil) })
	eng.Schedule(100*time.Microsecond, func() { s2.Transmit(8000, time.Millisecond, nil) })
	eng.Schedule(200*time.Microsecond, func() { s3.Transmit(8000, time.Millisecond, nil) })
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rm.received) != 0 {
		t.Fatal("receiver decoded a frame out of a 3-way collision")
	}
}

func TestLossRateDropsFraction(t *testing.T) {
	eng := sim.NewEngine(5)
	c := NewChannel(eng, 250)
	c.SetLossModel(NewBernoulliLoss(0.3, eng.NewStream()))
	a, _ := addStatic(c, 0, 0)
	_, rb := addStatic(c, 100, 0)
	const frames = 500
	for i := 0; i < frames; i++ {
		eng.Schedule(time.Duration(i)*5*time.Millisecond, func() {
			a.Transmit(8, time.Millisecond, nil)
		})
	}
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	got := len(rb.received)
	if got < frames*60/100 || got > frames*80/100 {
		t.Fatalf("delivered %d of %d at 30%% loss, want ≈70%%", got, frames)
	}
	if c.Stats().FadingLosses != frames-got {
		t.Fatalf("FadingLosses = %d, want %d", c.Stats().FadingLosses, frames-got)
	}
}

func TestZeroLossRateIsLossless(t *testing.T) {
	eng := sim.NewEngine(6)
	c := NewChannel(eng, 250)
	a, _ := addStatic(c, 0, 0)
	_, rb := addStatic(c, 100, 0)
	for i := 0; i < 100; i++ {
		eng.Schedule(time.Duration(i)*5*time.Millisecond, func() {
			a.Transmit(8, time.Millisecond, nil)
		})
	}
	if err := eng.Run(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(rb.received) != 100 {
		t.Fatalf("lost frames without a loss model: %d", len(rb.received))
	}
}
