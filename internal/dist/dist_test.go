package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anongeo/internal/core"
	"anongeo/internal/exp"
	"anongeo/internal/geo"
	"anongeo/internal/serve"
)

// tinyBase mirrors the serve test scenario: a static 600×300 arena with
// 3 flows and 5 simulated seconds, so one grid cell runs in a few
// milliseconds even under -race.
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

// fastClient is the test retry policy: few attempts, millisecond
// backoff, deterministic jitter.
func fastClient(base string) *Client {
	c := NewClient(base)
	c.Attempts = 3
	c.Backoff = 5 * time.Millisecond
	c.MaxBackoff = 20 * time.Millisecond
	c.jitter = func(d time.Duration) time.Duration { return d }
	return c
}

// newWorker boots a real in-process worker daemon (full serve stack, no
// cache, no journal) behind httptest; wrap, when non-nil, interposes on
// its handler — the fault-injection seam.
func newWorker(t *testing.T, wrap func(http.Handler) http.Handler) *httptest.Server {
	t.Helper()
	srv, err := serve.New(serve.Options{QueueDepth: 64, JobWorkers: 4, MaxCells: 64})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	ts := httptest.NewServer(h)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Manager().Drain(ctx)
	})
	return ts
}

// newCoord builds a coordinator over urls with test-speed probe, poll,
// and retry settings; mod tweaks the options further.
func newCoord(t *testing.T, urls []string, mod func(*Options)) *Coordinator {
	t.Helper()
	opts := Options{
		Workers:       urls,
		NewClient:     fastClient,
		ProbeInterval: 50 * time.Millisecond,
		PollInterval:  5 * time.Millisecond,
		StealAfter:    10 * time.Second,
		Logf:          t.Logf,
	}
	if mod != nil {
		mod(&opts)
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// newFront exposes coord under the full serve HTTP surface — the
// coordinator daemon as cmd/agrsimd -workers runs it, orchestrator
// width workers × MaxInflight; mod tweaks the serve options further.
func newFront(t *testing.T, coord *Coordinator, mod func(*serve.Options)) (*httptest.Server, *serve.Server) {
	t.Helper()
	opts := serve.Options{
		QueueDepth:   8,
		JobWorkers:   2,
		MaxCells:     64,
		Parallel:     len(coord.pool.workers) * coord.opts.MaxInflight,
		RunCell:      coord.RunCell,
		ExtraMetrics: coord.WriteMetrics,
	}
	if mod != nil {
		mod(&opts)
	}
	srv, err := serve.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Manager().Drain(ctx)
	})
	return ts, srv
}

// runSweep submits req against a daemon (worker or coordinator — same
// API) through the shared client and polls the job to completion.
func runSweep(t *testing.T, base string, req serve.SweepRequest) []serve.SweepPoint {
	t.Helper()
	c := fastClient(base)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	sub, err := c.SubmitSweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	for {
		st, err := c.Job(ctx, sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		switch st.State {
		case serve.JobDone:
			return st.Points
		case serve.JobFailed, serve.JobCanceled:
			t.Fatalf("job %s: %s: %s", sub.ID, st.State, st.Error)
		}
		select {
		case <-time.After(10 * time.Millisecond):
		case <-ctx.Done():
			t.Fatalf("job %s did not finish: %v", sub.ID, ctx.Err())
		}
	}
}

func pointsJSON(t *testing.T, pts []serve.SweepPoint) []byte {
	t.Helper()
	b, err := json.Marshal(pts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDistributedFoldBitIdentical is the tentpole contract: a grid
// sharded across three workers folds to byte-for-byte the points a
// single-process daemon produces for the same request.
func TestDistributedFoldBitIdentical(t *testing.T) {
	w1, w2, w3 := newWorker(t, nil), newWorker(t, nil), newWorker(t, nil)
	coord := newCoord(t, []string{w1.URL, w2.URL, w3.URL}, nil)
	front, _ := newFront(t, coord, nil)
	local := newWorker(t, nil) // single-process reference

	req := serve.SweepRequest{
		Base:       tinyBase(),
		NodeCounts: []int{10, 14},
		Protocols:  []string{"gpsr", "agfw"},
		Repeats:    2,
	}
	distPts := runSweep(t, front.URL, req)
	localPts := runSweep(t, local.URL, req)

	if len(distPts) != 4 {
		t.Fatalf("distributed fold has %d points, want 4", len(distPts))
	}
	if d, l := pointsJSON(t, distPts), pointsJSON(t, localPts); !bytes.Equal(d, l) {
		t.Fatalf("distributed fold differs from single-process fold:\n dist: %s\nlocal: %s", d, l)
	}

	st := coord.Stats()
	if st.Assigned != 8 { // 2 node counts × 2 protocols × 2 repeats
		t.Errorf("cells assigned = %d, want 8", st.Assigned)
	}

	// The coordinator's /metrics carries the fleet series alongside the
	// serve job series.
	resp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"dist_workers_healthy 3",
		"dist_workers_total 3",
		"dist_cells_assigned_total 8",
		"dist_cells_stolen_total",
		"dist_cells_duplicate_total",
		"dist_worker_inflight{worker=",
		"agrsimd_jobs_running", // serve series still present
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestWorkerDeathMidGrid kills one of two workers (connection-level,
// like kill -9) right after it serves its first submission; the sweep
// must still complete — lost cells reassigned to the survivor — and
// still fold identically to the single-process run.
func TestWorkerDeathMidGrid(t *testing.T) {
	var dead atomic.Bool
	var submits atomic.Int32
	wrap := func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if dead.Load() {
				panic(http.ErrAbortHandler) // drop the connection mid-air
			}
			h.ServeHTTP(w, r)
			if r.Method == http.MethodPost && strings.HasPrefix(r.URL.Path, "/v1/sweeps") {
				if submits.Add(1) == 1 {
					dead.Store(true)
				}
			}
		})
	}
	victim := newWorker(t, wrap)
	survivor := newWorker(t, nil)
	coord := newCoord(t, []string{victim.URL, survivor.URL}, func(o *Options) {
		o.MaxInflight = 2
	})
	front, _ := newFront(t, coord, nil)
	local := newWorker(t, nil)

	req := serve.SweepRequest{
		Base:       tinyBase(),
		NodeCounts: []int{10, 12, 14},
		Protocols:  []string{"gpsr"},
		Repeats:    2,
	}
	distPts := runSweep(t, front.URL, req)
	localPts := runSweep(t, local.URL, req)

	if d, l := pointsJSON(t, distPts), pointsJSON(t, localPts); !bytes.Equal(d, l) {
		t.Fatalf("fold after worker death differs from single-process fold:\n dist: %s\nlocal: %s", d, l)
	}
	st := coord.Stats()
	if st.Stolen == 0 {
		t.Error("no cells were stolen despite a dead worker")
	}
	// Every one of the 6 cells was assigned once, plus one reassignment
	// per stolen cell — nothing finished was recomputed.
	if st.Assigned != 6+st.Stolen {
		t.Errorf("assigned = %d, want %d (6 cells + %d stolen)", st.Assigned, 6+st.Stolen, st.Stolen)
	}
	if coord.HealthyWorkers() != 1 {
		t.Errorf("healthy workers = %d, want 1 after the kill", coord.HealthyWorkers())
	}
}

// TestStragglerStealing points the coordinator at a black-hole worker
// (accepts jobs, never finishes them) next to a real one: the dynamic
// straggler deadline must reassign the stuck cells and complete the
// grid.
func TestStragglerStealing(t *testing.T) {
	blackhole := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/readyz" || r.URL.Path == "/healthz":
			w.WriteHeader(http.StatusOK)
		case r.URL.Path == "/metrics":
			io.WriteString(w, "agrsimd_queue_depth 0\nagrsimd_queue_capacity 16\n")
		case r.Method == http.MethodPost:
			json.NewEncoder(w).Encode(map[string]any{"created": true, "id": "stuck", "state": "queued"})
		default:
			json.NewEncoder(w).Encode(map[string]any{"id": "stuck", "state": "running"})
		}
	}))
	defer blackhole.Close()
	real := newWorker(t, nil)

	coord := newCoord(t, []string{blackhole.URL, real.URL}, func(o *Options) {
		o.StealAfter = 100 * time.Millisecond
		o.StealFactor = 1
		o.MaxInflight = 4
	})
	front, _ := newFront(t, coord, nil)
	local := newWorker(t, nil)

	req := serve.SweepRequest{
		Base:       tinyBase(),
		NodeCounts: []int{10, 14},
		Protocols:  []string{"gpsr"},
		Repeats:    2,
	}
	distPts := runSweep(t, front.URL, req)
	localPts := runSweep(t, local.URL, req)
	if d, l := pointsJSON(t, distPts), pointsJSON(t, localPts); !bytes.Equal(d, l) {
		t.Fatalf("fold with straggler stealing differs:\n dist: %s\nlocal: %s", d, l)
	}
	if st := coord.Stats(); st.Stolen == 0 {
		t.Error("no steals despite a black-hole worker")
	}
}

// hookFunc adapts a function to exp.Hook.
type hookFunc func(exp.Event)

func (f hookFunc) Emit(ev exp.Event) { f(ev) }

// TestCoordinatorCacheResume cancels a coordinator job after its first
// folded cell, then runs the same grid through a fresh coordinator over
// the same cache directory, as after a crash: the folded cell must come
// back from the cache (zero recomputation), only the rest may be
// dispatched, and the fold must match a single-process run exactly.
func TestCoordinatorCacheResume(t *testing.T) {
	w := newWorker(t, nil)
	local := newWorker(t, nil)
	cacheDir := t.TempDir()
	req := serve.SweepRequest{
		Base:       tinyBase(),
		NodeCounts: []int{10, 12, 14},
		Protocols:  []string{"gpsr"},
		Repeats:    1,
	}
	const cells = 3

	// Run 1: one cell at a time; the first folded cell cancels the job.
	c1 := newCoord(t, []string{w.URL}, func(o *Options) { o.MaxInflight = 1 })
	var man *serve.Manager
	var once sync.Once
	front1, srv1 := newFront(t, c1, func(o *serve.Options) {
		o.CacheDir = cacheDir
		o.Hooks = []exp.Hook{hookFunc(func(ev exp.Event) {
			if ev.Type == exp.EventCellFinished && ev.Err == "" {
				once.Do(func() {
					for _, j := range man.Jobs() {
						man.Cancel(j.ID)
					}
				})
			}
		})}
	})
	man = srv1.Manager()
	sub, err := fastClient(front1.URL).SubmitSweep(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for st := serve.JobQueued; !st.Terminal(); {
		time.Sleep(5 * time.Millisecond)
		js, err := fastClient(front1.URL).Job(context.Background(), sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		st = js.State
		if st == serve.JobDone {
			t.Fatal("run 1 finished; cancellation came too late to exercise resume")
		}
	}

	// Run 2: a fresh coordinator and daemon over the same cache.
	c2 := newCoord(t, []string{w.URL}, nil)
	front2, _ := newFront(t, c2, func(o *serve.Options) { o.CacheDir = cacheDir })
	distPts := runSweep(t, front2.URL, req)
	js, err := fastClient(front2.URL).Job(context.Background(), sub.ID)
	if err != nil {
		t.Fatal(err)
	}
	cached := int64(js.Cells.Cached)
	if cached == 0 {
		t.Fatal("no cell served from the coordinator's cache")
	}
	if st := c2.Stats(); st.Assigned != cells-cached {
		t.Errorf("assigned = %d, want %d: cached cells must not be re-dispatched", st.Assigned, cells-cached)
	}
	if d, l := pointsJSON(t, distPts), pointsJSON(t, runSweep(t, local.URL, req)); !bytes.Equal(d, l) {
		t.Fatalf("resumed fold differs from single-process fold:\n dist: %s\nlocal: %s", d, l)
	}
}

// TestCellRequestReproducesCell proves the seed-inversion round trip:
// for every cell a sweep expands to, the single-cell request the
// coordinator ships makes a worker re-derive a config with the
// identical content address (hence identical simulation and cache
// identity).
func TestCellRequestReproducesCell(t *testing.T) {
	base := tinyBase()
	base.Seed = 4242
	cells := core.SweepCells(base, []int{10, 14, 150},
		[]core.Protocol{core.ProtoGPSR, core.ProtoAGFW, core.ProtoAGFWNoAck}, 3)
	for _, cell := range cells {
		req := cellRequest(cell.Config)
		p, err := serve.ParseProtocol(req.Protocols[0])
		if err != nil {
			t.Fatalf("%s: %v", cell.Label, err)
		}
		expanded := core.SweepCells(req.Base, req.NodeCounts, []core.Protocol{p}, req.Repeats)
		if len(expanded) != 1 {
			t.Fatalf("%s: single-cell request expanded to %d cells", cell.Label, len(expanded))
		}
		want, err := exp.KeyOf(cell.Config)
		if err != nil {
			t.Fatal(err)
		}
		got, err := exp.KeyOf(expanded[0].Config)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: worker-side cell key %s != original %s (seed %d vs %d)",
				cell.Label, got, want, expanded[0].Config.Seed, cell.Config.Seed)
		}
	}
}
