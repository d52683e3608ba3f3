package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"anongeo/internal/lbs"
)

// tinyLBSRequest is a two-cell LBS grid that runs in well under a
// second: two cheap backends, one parameter point each.
func tinyLBSRequest() lbs.SweepRequest {
	base := lbs.DefaultConfig()
	base.Clients = 16
	base.Queries = 300
	base.Duration = 30 * time.Second
	return lbs.SweepRequest{
		Base:          base,
		Backends:      []string{"kanon", "gridcloak"},
		Ks:            []int{2},
		GridLevels:    []int{3},
		Epsilons:      []float64{0.02},
		UpdateSeconds: []float64{10},
		QueryCounts:   []int{300},
	}
}

func postLBS(t *testing.T, ts *httptest.Server, req lbs.SweepRequest) (*http.Response, submitResponse) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/lbs", "application/json", bytes.NewReader(b))
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

// TestLBSSubmitRunDedupe drives POST /v1/lbs end to end: submit, 202,
// poll to done with curve points, then dedupe an identical re-POST.
func TestLBSSubmitRunDedupe(t *testing.T) {
	_, ts := newTestServer(t, Options{}, nil)
	req := tinyLBSRequest()
	resp, out := postLBS(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	if !out.Created || out.ID == "" || out.Kind != JobKindLBS {
		t.Fatalf("bad submit response: %+v", out.JobStatus)
	}
	if out.LBSRequest == nil || len(out.LBSRequest.Backends) != 2 {
		t.Fatalf("status must echo the normalized lbs request, got %+v", out.LBSRequest)
	}

	st := waitState(t, ts, out.ID, JobDone)
	if len(st.Curves) != out.LBSRequest.NumCells() {
		t.Fatalf("want %d curve points, got %d", out.LBSRequest.NumCells(), len(st.Curves))
	}
	if len(st.Points) != 0 {
		t.Fatalf("lbs job must not carry sweep points, got %d", len(st.Points))
	}
	seen := map[string]bool{}
	for _, p := range st.Curves {
		seen[p.Backend] = true
		if p.Result.Answered == 0 && p.Backend != "kanon" {
			t.Fatalf("curve point %s/%s=%g answered nothing", p.Backend, p.Param, p.Value)
		}
	}
	if !seen["kanon"] || !seen["gridcloak"] {
		t.Fatalf("curves missing a requested backend: %v", seen)
	}

	resp2, out2 := postLBS(t, ts, req)
	if resp2.StatusCode != http.StatusOK || out2.Created || out2.ID != out.ID {
		t.Fatalf("re-POST must dedupe onto the done job: %d created=%v id=%s", resp2.StatusCode, out2.Created, out2.ID)
	}
	if out2.State != JobDone || len(out2.Curves) != len(st.Curves) {
		t.Fatalf("deduped response must carry the finished curves, got %+v", out2.JobStatus)
	}
}

// TestLBSRejectsBadRequest maps lbs validation and cell-cap errors to
// 400 at the HTTP layer.
func TestLBSRejectsBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxCells: 1}, nil)
	req := tinyLBSRequest() // expands to 2 cells > MaxCells 1
	resp, _ := postLBS(t, ts, req)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized grid: status %d, want 400", resp.StatusCode)
	}
	bad := tinyLBSRequest()
	bad.Base.Clients = 0
	resp, _ = postLBS(t, ts, bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid base: status %d, want 400", resp.StatusCode)
	}
}

// TestLBSRejectsHugeKeyBits: key_bits is bounded at admission, so a
// POST cannot make the daemon derive (and pool for good) keys of any
// size it names.
func TestLBSRejectsHugeKeyBits(t *testing.T) {
	_, ts := newTestServer(t, Options{}, nil)
	req := tinyLBSRequest()
	req.Backends = []string{"paperals"}
	req.Base.KeyBits = 1 << 20
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/lbs", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "key_bits: value 1048576") {
		t.Fatalf("key_bits 1048576: status %d body %s, want 400 naming the field", resp.StatusCode, body)
	}
}

// TestLBSJournalRestore proves lbs jobs survive a daemon restart: the
// done record in the WAL carries the curves, so a restored job serves
// its result without recomputation.
func TestLBSJournalRestore(t *testing.T) {
	dir := t.TempDir()
	opts := Options{JournalDir: dir, CacheDir: filepath.Join(dir, "cache")}
	m, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	j, created, err := m.SubmitLBS(tinyLBSRequest())
	if err != nil || !created {
		t.Fatalf("SubmitLBS: created=%v err=%v", created, err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for j.State() != JobDone {
		if time.Now().After(deadline) || j.State().Terminal() {
			t.Fatalf("job stuck in %s", j.State())
		}
		time.Sleep(5 * time.Millisecond)
	}
	want := j.snapshot()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatal(err)
	}

	m2, err := NewManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = m2.Drain(ctx)
	}()
	j2, err := m2.Job(j.ID)
	if err != nil {
		t.Fatalf("restored manager lost the job: %v", err)
	}
	got := j2.snapshot()
	if got.State != JobDone || got.Kind != JobKindLBS {
		t.Fatalf("restored job state=%s kind=%q, want done/lbs", got.State, got.Kind)
	}
	if !reflect.DeepEqual(got.Curves, want.Curves) {
		t.Fatalf("restored curves diverge from the originals:\n%+v\n%+v", got.Curves, want.Curves)
	}
	if got.LBSRequest == nil || !reflect.DeepEqual(*got.LBSRequest, *want.LBSRequest) {
		t.Fatalf("restored request diverges: %+v", got.LBSRequest)
	}
}

// TestLBSCacheQuarantineMetric: a corrupt LBS cache entry counts in
// /metrics exactly like a corrupt sweep entry. Both job kinds read one
// cache handle, so one quarantine count covers them.
func TestLBSCacheQuarantineMetric(t *testing.T) {
	cache := t.TempDir()
	_, tsA := newTestServer(t, Options{CacheDir: cache}, nil)
	_, out := postLBS(t, tsA, tinyLBSRequest())
	waitState(t, tsA, out.ID, JobDone)

	// Flip one byte of every stored entry: the checksum must catch each.
	var entries []string
	err := filepath.WalkDir(cache, func(p string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(p, ".json") {
			entries = append(entries, p)
		}
		return err
	})
	if err != nil || len(entries) != out.LBSRequest.NumCells() {
		t.Fatalf("cache holds %d entries (%v), want one per cell (%d)", len(entries), err, out.LBSRequest.NumCells())
	}
	for _, p := range entries {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		raw[2] ^= 0x04
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// A fresh daemon over the same cache reruns the job and meets them.
	_, tsB := newTestServer(t, Options{CacheDir: cache}, nil)
	_, out = postLBS(t, tsB, tinyLBSRequest())
	if st := waitState(t, tsB, out.ID, JobDone); st.Cells.Cached != 0 {
		t.Fatalf("corrupt entries served as %d cache hits", st.Cells.Cached)
	}
	resp, err := http.Get(tsB.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if want := fmt.Sprintf("\nagrsimd_cache_quarantined_total %d\n", len(entries)); !strings.Contains(string(body), want) {
		t.Fatalf("metrics missing %q:\n%s", strings.TrimSpace(want), body)
	}
}
