package serve

import (
	"context"
	"encoding/json"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"anongeo/internal/core"
	"anongeo/internal/durable"
	"anongeo/internal/exp"
)

// walTime builds a wall-clock-only timestamp (as JSON round-trips
// produce), so DeepEqual across fold/snapshot/fold is exact.
func walTime(sec int) time.Time {
	return time.Date(2026, 8, 6, 12, 0, sec, 0, time.UTC)
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFoldWALLifecycle exercises the replay fold: a full lifecycle, a
// re-admission after failure, transitions without an admit, records
// after a terminal state, and undecodable garbage.
func TestFoldWALLifecycle(t *testing.T) {
	req := tinyRequest()
	norm, _, err := req.normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	pts := []core.DensityPoint{{Nodes: 10}}
	cells := &CellCounts{Total: 2, Cached: 1}

	payloads := [][]byte{
		// Job A: admit → start → done. Later cancel must not undo it.
		mustMarshal(t, walRecord{Op: walAdmit, ID: "a", Time: walTime(0), jobSpec: jobSpec{Req: &norm}}),
		mustMarshal(t, walRecord{Op: walStart, ID: "a", Time: walTime(1)}),
		mustMarshal(t, walRecord{Op: walDone, ID: "a", Time: walTime(2), jobResult: jobResult{Points: pts}, Cells: cells}),
		mustMarshal(t, walRecord{Op: walCancel, ID: "a", Time: walTime(3), Err: "too late"}),
		// Job B: admit → start → fail → re-admit. Folds to a fresh queued job.
		mustMarshal(t, walRecord{Op: walAdmit, ID: "b", Time: walTime(4), jobSpec: jobSpec{Req: &norm}}),
		mustMarshal(t, walRecord{Op: walStart, ID: "b", Time: walTime(5)}),
		mustMarshal(t, walRecord{Op: walFail, ID: "b", Time: walTime(6), Err: "boom"}),
		mustMarshal(t, walRecord{Op: walAdmit, ID: "b", Time: walTime(7), jobSpec: jobSpec{Req: &norm}}),
		// Job C: transitions with no admit record — dropped, not invented.
		mustMarshal(t, walRecord{Op: walStart, ID: "c", Time: walTime(8)}),
		mustMarshal(t, walRecord{Op: walDone, ID: "c", Time: walTime(9)}),
		// Garbage that passed the CRC (version skew): skipped.
		[]byte("not json"),
		mustMarshal(t, walRecord{Op: "future-op", ID: "a", Time: walTime(10)}),
	}

	jobs := foldWAL(payloads)
	if len(jobs) != 2 {
		t.Fatalf("folded %d jobs, want 2 (a, b)", len(jobs))
	}
	a, b := jobs[0], jobs[1]
	if a.ID != "a" || a.state != JobDone || !reflect.DeepEqual(a.result.Points, pts) || a.cells != *cells {
		t.Errorf("job a folded to %+v, want done with points", a)
	}
	if !a.finished.Equal(walTime(2)) {
		t.Errorf("job a finished = %v, want %v (cancel after done must not re-terminate)", a.finished, walTime(2))
	}
	if b.ID != "b" || b.state != JobQueued || b.err != "" || b.result.Points != nil {
		t.Errorf("job b folded to %+v, want a fresh queued re-admission", b)
	}
	if !b.created.Equal(walTime(7)) {
		t.Errorf("job b created = %v, want the re-admit time %v", b.created, walTime(7))
	}
}

// TestSnapshotWALRoundTrip: compaction must be lossless — folding the
// snapshot yields exactly the state that produced it.
func TestSnapshotWALRoundTrip(t *testing.T) {
	req := tinyRequest()
	norm, _, err := req.normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	history := [][]byte{
		mustMarshal(t, walRecord{Op: walAdmit, ID: "done", Time: walTime(0), jobSpec: jobSpec{Req: &norm}}),
		mustMarshal(t, walRecord{Op: walStart, ID: "done", Time: walTime(1)}),
		mustMarshal(t, walRecord{Op: walDone, ID: "done", Time: walTime(2),
			jobResult: jobResult{Points: []core.DensityPoint{{Nodes: 14}}}, Cells: &CellCounts{Total: 2}}),
		mustMarshal(t, walRecord{Op: walAdmit, ID: "failed", Time: walTime(3), jobSpec: jobSpec{Req: &norm}}),
		mustMarshal(t, walRecord{Op: walStart, ID: "failed", Time: walTime(4)}),
		mustMarshal(t, walRecord{Op: walFail, ID: "failed", Time: walTime(5), Err: "boom"}),
		mustMarshal(t, walRecord{Op: walAdmit, ID: "interrupted", Time: walTime(6), jobSpec: jobSpec{Req: &norm}}),
		mustMarshal(t, walRecord{Op: walStart, ID: "interrupted", Time: walTime(7)}),
		// A prior failed attempt and its re-admission, plus garbage: the
		// compacted snapshot keeps only the live lifecycle.
		mustMarshal(t, walRecord{Op: walAdmit, ID: "queued", Time: walTime(8), jobSpec: jobSpec{Req: &norm}}),
		mustMarshal(t, walRecord{Op: walStart, ID: "queued", Time: walTime(9)}),
		mustMarshal(t, walRecord{Op: walFail, ID: "queued", Time: walTime(10), Err: "first try"}),
		mustMarshal(t, walRecord{Op: walAdmit, ID: "queued", Time: walTime(11), jobSpec: jobSpec{Req: &norm}}),
		[]byte("version-skewed garbage"),
	}
	jobs := foldWAL(history)
	snap, err := snapshotWAL(jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) >= len(history) {
		t.Errorf("snapshot has %d records, want fewer than the %d-record history", len(snap), len(history))
	}
	refolded := foldWAL(snap)
	if got, want := servedState(refolded), servedState(jobs); !reflect.DeepEqual(got, want) {
		t.Errorf("fold(snapshot(jobs)) != jobs:\n got %+v\nwant %+v", got, want)
	}
}

// servedState is what a folded job table serves: each job's status and
// event log.
func servedState(jobs []*Job) []any {
	var out []any
	for _, j := range jobs {
		events, _, _ := j.eventsSince(0)
		out = append(out, j.snapshot(), events)
	}
	return out
}

// writeWAL hand-crafts a journal file the way a crashed daemon would
// have left it.
func writeWAL(t *testing.T, dir string, recs ...walRecord) {
	t.Helper()
	j, _, err := durable.Open(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, rec := range recs {
		if err := j.Append(mustMarshal(t, rec)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplayReadmitsInterruptedJob boots a manager over a journal whose
// last record for a job is non-terminal — the crashed-mid-run shape —
// and expects the job to be re-admitted under its recorded ID and run
// to completion.
func TestReplayReadmitsInterruptedJob(t *testing.T) {
	dir := t.TempDir()
	req := tinyRequest()
	norm, _, err := req.normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	id, err := exp.KeyOf(norm)
	if err != nil {
		t.Fatal(err)
	}
	writeWAL(t, dir,
		walRecord{Op: walAdmit, ID: id, Time: walTime(0), jobSpec: jobSpec{Req: &norm}},
		walRecord{Op: walStart, ID: id, Time: walTime(1)})

	srv, ts := newTestServer(t, Options{JournalDir: dir, CacheDir: filepath.Join(dir, "cache")}, nil)
	if got := srv.man.met.jobsReadmitted.Load(); got != 1 {
		t.Fatalf("jobsReadmitted = %d, want 1", got)
	}
	st := waitState(t, ts, id, JobDone)
	if len(st.Points) == 0 {
		t.Error("re-admitted job finished with no points")
	}
	if st.Created.IsZero() || !st.Created.Equal(walTime(0)) {
		t.Errorf("re-admitted job created = %v, want the journaled admit time %v", st.Created, walTime(0))
	}
}

// TestTerminalJobSurvivesRestart runs a job to completion under a
// journal, restarts the stack over the same directory, and expects the
// finished job to be fully readable — same ID, same points — with zero
// cell re-execution, and a re-submission to dedupe onto it.
func TestTerminalJobSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	opts := Options{JournalDir: dir, CacheDir: filepath.Join(dir, "cache")}

	srvA, tsA := newTestServer(t, opts, nil)
	_, out := postSweep(t, tsA, tinyRequest())
	before := waitState(t, tsA, out.ID, JobDone)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srvA.Manager().Drain(ctx); err != nil {
		t.Fatal(err)
	}
	tsA.Close()

	srvB, tsB := newTestServer(t, opts, nil)
	after := getStatus(t, tsB, out.ID)
	if after.State != JobDone {
		t.Fatalf("restored job state = %q, want done", after.State)
	}
	if !reflect.DeepEqual(before.Points, after.Points) {
		t.Error("restored points differ from the points served before the restart")
	}
	if before.Cells != after.Cells {
		t.Errorf("restored cell counts = %+v, want %+v", after.Cells, before.Cells)
	}

	// Resubmitting the identical grid dedupes onto the restored job.
	resp, re := postSweep(t, tsB, tinyRequest())
	if resp.StatusCode != 200 || re.Created || re.ID != out.ID {
		t.Errorf("resubmit after restart: status %d created %v id %s, want 200 dedupe onto %s",
			resp.StatusCode, re.Created, re.ID, out.ID)
	}
	if got := srvB.man.met.cellsExecuted.Load(); got != 0 {
		t.Errorf("restart executed %d cells, want 0 — terminal jobs must be served from the journal", got)
	}
	if got := srvB.man.met.journalReplays.Load(); got != 1 {
		t.Errorf("journalReplays = %d, want 1", got)
	}
}

// TestReplayedFailureIsRetryable: a journaled failed job must accept a
// fresh attempt under the same ID after restart, exactly like an
// in-memory failed job does.
func TestReplayedFailureIsRetryable(t *testing.T) {
	dir := t.TempDir()
	req := tinyRequest()
	norm, _, err := req.normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	id, err := exp.KeyOf(norm)
	if err != nil {
		t.Fatal(err)
	}
	writeWAL(t, dir,
		walRecord{Op: walAdmit, ID: id, Time: walTime(0), jobSpec: jobSpec{Req: &norm}},
		walRecord{Op: walStart, ID: id, Time: walTime(1)},
		walRecord{Op: walFail, ID: id, Time: walTime(2), Err: "crashed dependency"})

	_, ts := newTestServer(t, Options{JournalDir: dir}, nil)
	st := getStatus(t, ts, id)
	if st.State != JobFailed || st.Error != "crashed dependency" {
		t.Fatalf("restored job = %q (%q), want failed with the journaled error", st.State, st.Error)
	}
	resp, out := postSweep(t, ts, req)
	if resp.StatusCode != 202 || !out.Created || out.ID != id {
		t.Fatalf("retry after restored failure: status %d created %v, want 202 fresh attempt", resp.StatusCode, out.Created)
	}
	waitState(t, ts, id, JobDone)
}

// TestSubmitCancelRace hammers POST and DELETE on one content-address
// ID from many goroutines. Run under -race it proves the admission
// mutex covers the dedupe-vs-re-admit decision; the invariant checks
// prove no call ever observes a half-canceled hybrid.
func TestSubmitCancelRace(t *testing.T) {
	man, err := NewManager(Options{QueueDepth: 4, JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	man.orch.RunCtx = func(ctx context.Context, cfg core.Config) (core.Result, error) {
		return core.Result{}, nil
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = man.Drain(ctx)
	})

	req := tinyRequest()
	norm, _, err := req.normalize(0)
	if err != nil {
		t.Fatal(err)
	}
	id, err := exp.KeyOf(norm)
	if err != nil {
		t.Fatal(err)
	}

	const workers, iters = 8, 60
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iters; i++ {
				if rng.Intn(2) == 0 {
					j, _, err := man.Submit(req)
					switch err {
					case nil:
						if j.ID != id {
							t.Errorf("Submit returned job %s, want %s", j.ID, id)
						}
					case ErrQueueFull:
					default:
						t.Errorf("Submit: unexpected error %v", err)
					}
				} else {
					switch err := man.Cancel(id); err {
					case nil, ErrNotFound, ErrTerminal:
					default:
						t.Errorf("Cancel: unexpected error %v", err)
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()

	// Whatever interleaving happened, the ID must converge: one final
	// submission reaches done (dedupe onto a finished attempt included).
	deadline := time.Now().Add(30 * time.Second)
	for {
		j, _, err := man.Submit(req)
		if err == nil {
			for j.State() == JobQueued || j.State() == JobRunning {
				if time.Now().After(deadline) {
					t.Fatalf("job stuck in %q after hammer", j.State())
				}
				time.Sleep(time.Millisecond)
			}
			if j.State() == JobDone {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never converged to done (last err %v)", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWALAdmitPrecedesStart: a job's admit record is journaled before
// the job is queued, so no worker can journal its start first — a start
// with no admit ahead of it is dropped on replay, and the restored job
// loses its start time.
func TestWALAdmitPrecedesStart(t *testing.T) {
	dir := t.TempDir()
	man, err := NewManager(Options{JournalDir: dir, JobWorkers: 2, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	man.orch.RunCtx = func(ctx context.Context, cfg core.Config) (core.Result, error) {
		return core.Result{}, nil
	}
	for seed := int64(1); seed <= 20; seed++ {
		req := tinyRequest()
		req.Base.Seed = seed
		if _, _, err := man.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := man.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	jr, payloads, err := durable.Open(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	jr.Close()
	admitted := make(map[string]bool)
	for _, p := range payloads {
		var rec walRecord
		if err := json.Unmarshal(p, &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Op == walAdmit {
			admitted[rec.ID] = true
		} else if !admitted[rec.ID] {
			t.Errorf("%s record for job %s precedes its admit", rec.Op, shortID(rec.ID))
		}
	}
	if len(admitted) != 20 {
		t.Errorf("journal admitted %d jobs, want 20", len(admitted))
	}
}
