package serve

import (
	"testing"
	"time"
)

// TestTerminalJobHoldsFinishedEvent pins the /events contract at its
// source: a subscriber that reads a terminal state from eventsSince must
// already see the job-finished event, or the stream ends without it.
// The reader spins beside the transition so it lands between the state
// change and the event append if the two are ever split.
func TestTerminalJobHoldsFinishedEvent(t *testing.T) {
	for trial := 0; trial < 2000; trial++ {
		j := newJob("job", jobSpec{Req: &SweepRequest{}}, time.Now())
		j.transition(JobRunning, "", time.Now())
		done := make(chan struct{})
		go func() {
			defer close(done)
			j.transition(JobDone, "", time.Now())
		}()
		for {
			tail, _, terminal := j.eventsSince(0)
			if !terminal {
				continue
			}
			if last := tail[len(tail)-1]; last.Type != eventJobFinished {
				t.Fatalf("trial %d: terminal job's log ends with %q, want %q", trial, last.Type, eventJobFinished)
			}
			break
		}
		<-done
	}
}
