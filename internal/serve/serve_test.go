package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"anongeo/internal/core"
	"anongeo/internal/geo"
)

// tinyBase is a scenario small enough that a grid cell runs in a few
// milliseconds: a static 600×300 arena, 3 flows, 5 simulated seconds.
func tinyBase() core.Config {
	cfg := core.DefaultConfig()
	cfg.Nodes = 12
	cfg.Area = geo.NewRect(600, 300)
	cfg.Static = true
	cfg.MinSpeed, cfg.MaxSpeed = 0, 0
	cfg.Pause = 0
	cfg.Flows = 3
	cfg.Senders = 3
	cfg.PacketInterval = 250 * time.Millisecond
	cfg.Duration = 5 * time.Second
	cfg.Warmup = time.Second
	cfg.Protocol = core.ProtoGPSR
	cfg.Policy = 0
	cfg.ReachFilter = false
	return cfg
}

func tinyRequest() SweepRequest {
	return SweepRequest{Base: tinyBase(), NodeCounts: []int{10, 14}, Protocols: []string{"gpsr"}}
}

// newTestServer boots a serving stack around opts. When stub is
// non-nil it replaces the simulator, so job duration and failure are
// test-controlled; the stub is installed before any request can reach
// the scheduler.
func newTestServer(t *testing.T, opts Options, stub func(context.Context, core.Config) (core.Result, error)) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if stub != nil {
		srv.man.orch.RunCtx = stub
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Manager().Drain(ctx)
	})
	return srv, ts
}

func postSweep(t *testing.T, ts *httptest.Server, req SweepRequest) (*http.Response, submitResponse) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out submitResponse
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, out
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET job: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitState(t *testing.T, ts *httptest.Server, id string, want JobState) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == want {
			return st
		}
		if st.State.Terminal() {
			t.Fatalf("job reached terminal state %q (err %q) while waiting for %q", st.State, st.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job never reached state %q", want)
	return JobStatus{}
}

// TestSubmitRunResult drives the happy path end to end with the real
// simulator: submit, 202, poll to done, check the folded grid points.
func TestSubmitRunResult(t *testing.T) {
	_, ts := newTestServer(t, Options{}, nil)
	resp, out := postSweep(t, ts, tinyRequest())
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if !out.Created || out.ID == "" {
		t.Fatalf("submit response: %+v", out)
	}
	if loc := resp.Header.Get("Location"); loc != "/v1/jobs/"+out.ID {
		t.Fatalf("Location = %q", loc)
	}

	st := waitState(t, ts, out.ID, JobDone)
	if st.Cells.Total != 2 || st.Cells.Failed != 0 {
		t.Fatalf("cells = %+v", st.Cells)
	}
	if len(st.Points) != 2 {
		t.Fatalf("points = %d, want 2", len(st.Points))
	}
	for _, p := range st.Points {
		if p.Protocol != "GPSR-Greedy" || p.Sent == 0 || p.PDF <= 0 || p.PDF > 1 {
			t.Fatalf("implausible point: %+v", p)
		}
	}

	// The job list carries it, without the heavy points payload.
	resp2, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 || list.Jobs[0].ID != out.ID || list.Jobs[0].Points != nil {
		t.Fatalf("job list: %+v", list.Jobs)
	}
}

// TestDedupeIdenticalSubmission pins the content-address contract: the
// same grid submitted twice is one job, and once it finished, the
// duplicate POST answers 200 with the full result instantly.
func TestDedupeIdenticalSubmission(t *testing.T) {
	srv, ts := newTestServer(t, Options{}, nil)
	_, first := postSweep(t, ts, tinyRequest())
	waitState(t, ts, first.ID, JobDone)

	resp, second := postSweep(t, ts, tinyRequest())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit status = %d, want 200", resp.StatusCode)
	}
	if second.Created {
		t.Fatal("duplicate submission claimed to create a new job")
	}
	if second.ID != first.ID {
		t.Fatalf("duplicate got a different job: %s vs %s", second.ID, first.ID)
	}
	if second.State != JobDone || len(second.Points) != 2 {
		t.Fatalf("duplicate response not the finished result: state %s, %d points", second.State, len(second.Points))
	}
	if n := srv.Manager().Metrics().jobsDeduped.Load(); n != 1 {
		t.Fatalf("jobsDeduped = %d, want 1", n)
	}

	// A semantically different grid (extra repeat) is a new job.
	req := tinyRequest()
	req.Repeats = 2
	resp3, third := postSweep(t, ts, req)
	if resp3.StatusCode != http.StatusAccepted || third.ID == first.ID {
		t.Fatalf("different grid deduped: status %d, id %s", resp3.StatusCode, third.ID)
	}
}

// TestCacheHitsAcrossServers is the restart story: a fresh daemon
// sharing the cache directory serves an identical grid without
// re-running any cell.
func TestCacheHitsAcrossServers(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Options{CacheDir: dir}, nil)
	_, first := postSweep(t, ts1, tinyRequest())
	st1 := waitState(t, ts1, first.ID, JobDone)
	if st1.Cells.Cached != 0 {
		t.Fatalf("first run claimed %d cached cells", st1.Cells.Cached)
	}

	srv2, ts2 := newTestServer(t, Options{CacheDir: dir}, nil)
	_, second := postSweep(t, ts2, tinyRequest())
	st2 := waitState(t, ts2, second.ID, JobDone)
	if st2.Cells.Cached != st2.Cells.Total {
		t.Fatalf("restarted server executed cells: %+v", st2.Cells)
	}
	if len(st2.Points) != len(st1.Points) {
		t.Fatalf("cached run returned %d points, first returned %d", len(st2.Points), len(st1.Points))
	}
	for i := range st2.Points {
		if st2.Points[i].PDF != st1.Points[i].PDF || st2.Points[i].Sent != st1.Points[i].Sent {
			t.Fatalf("cached point %d differs: %+v vs %+v", i, st2.Points[i], st1.Points[i])
		}
	}
	if ratio := srv2.Manager().Metrics().cellsCached.Load(); ratio != int64(st2.Cells.Total) {
		t.Fatalf("metrics cached cells = %d, want %d", ratio, st2.Cells.Total)
	}
}

// blockingStub returns a simulator stub that parks until the returned
// release function is called (or the cell's context dies), plus a
// channel that receives one signal per started cell.
func blockingStub() (stub func(context.Context, core.Config) (core.Result, error), started chan struct{}, release func()) {
	gate := make(chan struct{})
	started = make(chan struct{}, 64)
	stub = func(ctx context.Context, cfg core.Config) (core.Result, error) {
		started <- struct{}{}
		select {
		case <-gate:
			return core.Result{Protocol: cfg.Protocol, Nodes: cfg.Nodes}, nil
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
	}
	var once bool
	release = func() {
		if !once {
			once = true
			close(gate)
		}
	}
	return stub, started, release
}

// distinctRequest returns a request whose content address differs per n.
func distinctRequest(n int) SweepRequest {
	base := tinyBase()
	base.Seed = int64(1000 + n)
	return SweepRequest{Base: base}
}

// TestQueueFullGives429 fills the bounded queue behind a blocked
// worker and checks admission control answers 429 with a Retry-After
// hint, and that the rejection is counted.
func TestQueueFullGives429(t *testing.T) {
	stub, started, release := blockingStub()
	defer release()
	srv, ts := newTestServer(t, Options{QueueDepth: 1, JobWorkers: 1, Parallel: 1}, stub)

	// Job 0 occupies the worker; wait until its cell is truly running
	// so it cannot also be sitting in the queue.
	_, run := postSweep(t, ts, distinctRequest(0))
	<-started
	// Job 1 fills the depth-1 queue.
	resp1, _ := postSweep(t, ts, distinctRequest(1))
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("queued submit status = %d, want 202", resp1.StatusCode)
	}
	// Job 2 must bounce.
	resp2, _ := postSweep(t, ts, distinctRequest(2))
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submit status = %d, want 429", resp2.StatusCode)
	}
	if ra := resp2.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive hint", ra)
	}
	if n := srv.Manager().Metrics().jobsRejected.Load(); n != 1 {
		t.Fatalf("jobsRejected = %d, want 1", n)
	}

	release()
	waitState(t, ts, run.ID, JobDone)
}

// TestCancelRunningJob cancels an in-flight job and checks the
// scheduler tears its context down promptly.
func TestCancelRunningJob(t *testing.T) {
	stub, started, release := blockingStub()
	defer release()
	_, ts := newTestServer(t, Options{Parallel: 1}, stub)

	_, out := postSweep(t, ts, distinctRequest(0))
	<-started // the cell is inside the stub, parked on its context

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+out.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d, want 200", resp.StatusCode)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		st := getStatus(t, ts, out.ID)
		if st.State == JobCanceled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q after cancel", st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Canceling a terminal job is a conflict.
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("double cancel status = %d, want 409", resp2.StatusCode)
	}
}

// TestCancelQueuedJob cancels a job that never reached the scheduler.
func TestCancelQueuedJob(t *testing.T) {
	stub, started, release := blockingStub()
	defer release()
	_, ts := newTestServer(t, Options{QueueDepth: 2, JobWorkers: 1, Parallel: 1}, stub)

	_, blocker := postSweep(t, ts, distinctRequest(0))
	<-started
	_, queued := postSweep(t, ts, distinctRequest(1))

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st := getStatus(t, ts, queued.ID); st.State != JobCanceled {
		t.Fatalf("queued job state after cancel = %q", st.State)
	}

	release()
	waitState(t, ts, blocker.ID, JobDone)
	// The canceled job must never have executed a cell.
	if st := getStatus(t, ts, queued.ID); st.Cells.Total != 0 {
		t.Fatalf("canceled-while-queued job ran cells: %+v", st.Cells)
	}
}

// TestEventStreamOrdering reads the NDJSON stream of a live job and
// checks framing and ordering: seqs strictly increasing, job-queued
// first, job-finished last, cell events in between, run counters
// monotone.
func TestEventStreamOrdering(t *testing.T) {
	_, ts := newTestServer(t, Options{}, nil)
	_, out := postSweep(t, ts, tinyRequest())

	resp, err := http.Get(ts.URL + "/v1/jobs/" + out.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}

	var events []JobEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var ev JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	if len(events) < 4 {
		t.Fatalf("only %d events", len(events))
	}
	for i, ev := range events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.JobID != out.ID {
			t.Fatalf("event %d job id %q", i, ev.JobID)
		}
	}
	if events[0].Type != eventJobQueued {
		t.Fatalf("first event %q, want job-queued", events[0].Type)
	}
	last := events[len(events)-1]
	if last.Type != eventJobFinished || last.State != JobDone {
		t.Fatalf("last event %q state %q, want job-finished/done", last.Type, last.State)
	}
	finishes := 0
	for _, ev := range events {
		if ev.Type == "cell-finished" {
			finishes++
		}
	}
	if finishes != 2 {
		t.Fatalf("saw %d cell-finished events, want 2", finishes)
	}

	// A replay after completion delivers the identical log.
	resp2, err := http.Get(ts.URL + "/v1/jobs/" + out.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replay, err := io.ReadAll(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(replay, []byte("\n")); n != len(events) {
		t.Fatalf("replay has %d lines, want %d", n, len(events))
	}
}

// TestEventStreamSSE checks the Server-Sent-Events framing variant.
func TestEventStreamSSE(t *testing.T) {
	_, ts := newTestServer(t, Options{}, nil)
	_, out := postSweep(t, ts, tinyRequest())
	waitState(t, ts, out.ID, JobDone)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+out.ID+"/events", nil)
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	if !strings.Contains(text, "event: job-queued\n") || !strings.Contains(text, "event: job-finished\n") {
		t.Fatalf("SSE stream missing lifecycle frames:\n%s", text)
	}
	for _, block := range strings.Split(strings.TrimSpace(text), "\n\n") {
		if !strings.HasPrefix(block, "event: ") || !strings.Contains(block, "\ndata: {") {
			t.Fatalf("malformed SSE block:\n%s", block)
		}
	}
}

// TestBadRequests maps malformed submissions to 400s that name the
// problem, and unknown jobs to 404.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxCells: 8}, nil)
	post := func(body string) (*http.Response, string) {
		resp, err := http.Post(ts.URL+"/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}

	cases := []struct {
		name     string
		body     string
		wantSubs []string
	}{
		{"unknown top-level field", `{"bass": {}}`, []string{"bass"}},
		{"unknown config field", `{"base": {"Noddes": 50}}`, []string{"Noddes"}},
		{"invalid config value", `{"base": {"Nodes": 1, "RadioRange": 250, "Duration": 1000000000, "Flows": 1, "Senders": 1, "PacketInterval": 1000000, "Protocol": 1}}`, []string{"Nodes", "1"}},
		{"unknown protocol", `{"base": {"Nodes": 10, "RadioRange": 250, "Duration": 1000000000, "Flows": 1, "Senders": 1, "PacketInterval": 1000000, "Protocol": 1}, "protocols": ["ospf"]}`, []string{"ospf"}},
		{"grid too large", `{"base": {"Nodes": 10, "RadioRange": 250, "Duration": 1000000000, "Flows": 1, "Senders": 1, "PacketInterval": 1000000, "Protocol": 1}, "node_counts": [10,20,30], "repeats": 5}`, []string{"15", "cap"}},
		{"not json", `hello`, []string{"decode"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status = %d, want 400 (%s)", resp.StatusCode, body)
			}
			for _, sub := range tc.wantSubs {
				if !strings.Contains(body, sub) {
					t.Fatalf("error %q does not mention %q", body, sub)
				}
			}
		})
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/deadbeef")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", resp.StatusCode)
	}
}

// TestMetricsEndpoint scrapes /metrics after a run and spot-checks the
// exposition format and the headline series.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{CacheDir: t.TempDir()}, nil)
	_, out := postSweep(t, ts, tinyRequest())
	waitState(t, ts, out.ID, JobDone)
	postSweep(t, ts, tinyRequest()) // dedupe hit

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"agrsimd_jobs_submitted_total 1",
		"agrsimd_jobs_deduped_total 1",
		`agrsimd_jobs_finished_total{state="done"} 1`,
		"agrsimd_queue_capacity 16",
		`agrsimd_cells_total{outcome="executed"} 2`,
		"agrsimd_cache_hit_ratio 0",
		"agrsimd_cell_wall_seconds_count 2",
		"# TYPE agrsimd_cell_wall_seconds histogram",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
}

// TestHealthAndReady covers the probe endpoints through a drain.
func TestHealthAndReady(t *testing.T) {
	srv, ts := newTestServer(t, Options{}, nil)
	get := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if c := get("/healthz"); c != http.StatusOK {
		t.Fatalf("healthz = %d", c)
	}
	if c := get("/readyz"); c != http.StatusOK {
		t.Fatalf("readyz = %d", c)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Manager().Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if c := get("/readyz"); c != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", c)
	}
	if c := get("/healthz"); c != http.StatusOK {
		t.Fatalf("healthz while draining = %d, want 200", c)
	}
	// New submissions bounce with 503; reads keep working.
	resp, _ := postSweep(t, ts, tinyRequest())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
}
