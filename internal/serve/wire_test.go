package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"anongeo/internal/core"
	"anongeo/internal/durable"
	"anongeo/internal/lbs"
	"anongeo/internal/metrics"
)

// The daemon's wire formats are compatibility contracts: journals
// outlive the build that wrote them, and clients hold job IDs across
// upgrades. These tests pin them against goldens under testdata/wire,
// written by the build that introduced LBS jobs and never regenerated:
//
//	<kind>.wal.jsonl    — the journal records of a job canceled while
//	                      running, a done, a failed and a job canceled
//	                      while queued, timestamps set to wireTime
//	<kind>.status.json  — GET /v1/jobs/{id} of the done job
//
// The sweep goldens are also the pre-LBS format: sweep records gained no
// field when LBS jobs arrived.

// wireTime replaces every timestamp in the goldens, so they are both
// comparable across runs and valid journals in their own right.
const wireTime = "2026-08-06T12:00:00Z"

var wireTimeField = regexp.MustCompile(`"(time|created|started|finished)":( ?)"[^"]*"`)

// normalizeTimes sets every timestamp in a JSON document to wireTime.
func normalizeTimes(b []byte) []byte {
	return wireTimeField.ReplaceAll(b, []byte(`"$1":$2"`+wireTime+`"`))
}

// wirePart is the role a fixture job plays in the pinned lifecycle.
type wirePart int

const (
	wireDone    wirePart = iota // runs to completion
	wireFailed                  // a cell fails
	wireRunning                 // blocks until canceled
	wireQueued                  // canceled while queued behind wireRunning
)

// wireKind is one job kind's fixtures: the request that plays each part,
// and a stubbed cell runner that calls act with the part of the job a
// cell belongs to. Parts other than wireDone are told apart by one
// config field, 20+part.
type wireKind struct {
	name   string
	doneID string
	submit func(*Manager, wirePart) (*Job, bool, error)
	stub   func(m *Manager, act func(context.Context, wirePart) error)
}

var wireKinds = []wireKind{
	{
		name:   "sweep",
		doneID: "0c0742a95ac838effc530336e204012a37e067edb48a4cb0ddfbf5e818f8adef",
		submit: func(m *Manager, part wirePart) (*Job, bool, error) {
			req := tinyRequest()
			if part != wireDone {
				req.NodeCounts = []int{20 + int(part)}
			}
			return m.Submit(req)
		},
		stub: func(m *Manager, act func(context.Context, wirePart) error) {
			m.orch.RunCtx = func(ctx context.Context, cfg core.Config) (core.Result, error) {
				err := act(ctx, wirePart(max(cfg.Nodes-20, 0)))
				return core.Result{Protocol: cfg.Protocol, Nodes: cfg.Nodes,
					Summary: metrics.Summary{Sent: cfg.Nodes, Delivered: cfg.Nodes - 1}}, err
			}
		},
	},
	{
		name:   "lbs",
		doneID: "991228d06aa74a5e836ad2f4bd42bb88a5d778ea7a85a9a750309bbf207e0526",
		submit: func(m *Manager, part wirePart) (*Job, bool, error) {
			req := tinyLBSRequest()
			if part != wireDone {
				req.Base.Clients = 20 + int(part)
				req.Backends = []string{"kanon"}
			}
			return m.SubmitLBS(req)
		},
		stub: func(m *Manager, act func(context.Context, wirePart) error) {
			m.lbsOrch.RunCtx = func(ctx context.Context, cfg lbs.Config) (lbs.Result, error) {
				err := act(ctx, wirePart(max(cfg.Clients-20, 0)))
				return lbs.Result{Backend: string(cfg.Backend), Clients: cfg.Clients,
					Queries: cfg.Queries, Answered: cfg.Queries - 1}, err
			}
		},
	},
}

// readGolden loads testdata/wire/name.
func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "wire", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenLines loads a line-per-record golden.
func goldenLines(t *testing.T, name string) []string {
	t.Helper()
	return strings.Split(strings.TrimSuffix(string(readGolden(t, name)), "\n"), "\n")
}

// journalLines reads every payload of the journal under dir.
func journalLines(t *testing.T, dir string) []string {
	t.Helper()
	j, payloads, err := durable.Open(filepath.Join(dir, walFileName))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	lines := make([]string, len(payloads))
	for i, p := range payloads {
		lines[i] = string(p)
	}
	return lines
}

// getStatusBody is GET /v1/jobs/{id}, raw.
func getStatusBody(t *testing.T, url, id string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: %d %s %v", id, resp.StatusCode, b, err)
	}
	return b
}

func waitJob(t *testing.T, j *Job, want JobState) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%v never reached %s", j, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWireJobIDs pins the content address of one fixed request of
// each kind: a changed ID would orphan every client holding one and
// split dedupe across an upgrade.
func TestWireJobIDs(t *testing.T) {
	man, err := NewManager(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer man.Drain(context.Background())
	for _, k := range wireKinds {
		k.stub(man, func(context.Context, wirePart) error { return nil })
		j, _, err := k.submit(man, wireDone)
		if err != nil {
			t.Fatal(err)
		}
		if j.ID != k.doneID {
			t.Errorf("%s job ID = %s, want %s", k.name, j.ID, k.doneID)
		}
	}
}

// TestWireRecordsAndStatus drives each kind's four pinned jobs through
// a journaled daemon and compares the journal records it appends, and
// the done job's status JSON, byte for byte with the goldens.
func TestWireRecordsAndStatus(t *testing.T) {
	for _, k := range wireKinds {
		t.Run(k.name, func(t *testing.T) {
			dir := t.TempDir()
			srv, ts := newTestServer(t, Options{JournalDir: dir, JobWorkers: 1, Parallel: 1}, nil)
			man := srv.Manager()
			entered := make(chan struct{})
			k.stub(man, func(ctx context.Context, part wirePart) error {
				switch part {
				case wireFailed:
					return errors.New("boom")
				case wireRunning:
					close(entered)
					<-ctx.Done()
					return ctx.Err()
				}
				return nil
			})
			submit := func(part wirePart) *Job {
				j, created, err := k.submit(man, part)
				if err != nil || !created {
					t.Fatalf("submit part %d: created=%v err=%v", part, created, err)
				}
				return j
			}
			// Holding the one worker in the running job while the others
			// are admitted fixes which job is running, queued or next.
			running := submit(wireRunning)
			<-entered
			done, failed, queued := submit(wireDone), submit(wireFailed), submit(wireQueued)
			if err := man.Cancel(queued.ID); err != nil {
				t.Fatal(err)
			}
			if err := man.Cancel(running.ID); err != nil {
				t.Fatal(err)
			}
			waitJob(t, failed, JobFailed)

			status := normalizeTimes(getStatusBody(t, ts.URL, done.ID))
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(status, &fields); err != nil {
				t.Fatal(err)
			}
			_, request := fields["request"]
			_, kind := fields["kind"]
			_, lbsRequest := fields["lbs_request"]
			if isLBS := k.name == "lbs"; !request || kind != isLBS || lbsRequest != isLBS {
				t.Errorf("%s status fields: request %v, kind %v, lbs_request %v", k.name, request, kind, lbsRequest)
			}
			if want := readGolden(t, k.name+".status.json"); !bytes.Equal(status, want) {
				t.Errorf("done %s job status:\n got %s\nwant %s", k.name, status, want)
			}
			if err := man.Drain(context.Background()); err != nil {
				t.Fatal(err)
			}
			// Records are compared as a set: the order of one job's records
			// against another's admit is the scheduler's, not the format's.
			got := strings.Split(string(normalizeTimes([]byte(strings.Join(journalLines(t, dir), "\n")))), "\n")
			want := goldenLines(t, k.name+".wal.jsonl")
			sort.Strings(got)
			sort.Strings(want)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s journal records:\n got %s\nwant %s", k.name, strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
		})
	}
}

// TestWireGoldenJournalReplays boots a daemon over each golden journal,
// as an older build left it: every job restores to its terminal state,
// the done job serves the pinned status, and compaction re-emits each
// record verbatim.
func TestWireGoldenJournalReplays(t *testing.T) {
	for _, k := range wireKinds {
		t.Run(k.name, func(t *testing.T) {
			golden := goldenLines(t, k.name+".wal.jsonl")
			dir := t.TempDir()
			j, _, err := durable.Open(filepath.Join(dir, walFileName))
			if err != nil {
				t.Fatal(err)
			}
			for _, line := range golden {
				if err := j.Append([]byte(line)); err != nil {
					t.Fatal(err)
				}
			}
			j.Close()

			srv, ts := newTestServer(t, Options{JournalDir: dir}, nil)
			jobs := srv.Manager().Jobs()
			var states []JobState
			for _, j := range jobs {
				states = append(states, j.State())
			}
			want := []JobState{JobCanceled, JobDone, JobFailed, JobCanceled} // first-admit order
			if len(states) != len(want) {
				t.Fatalf("restored %d jobs (%v), want %v", len(states), states, want)
			}
			for i := range want {
				if states[i] != want[i] {
					t.Errorf("restored job %d is %s, want %s", i, states[i], want[i])
				}
			}
			if got := srv.man.met.jobsReadmitted.Load(); got != 0 {
				t.Errorf("re-admitted %d terminal jobs", got)
			}
			status := getStatusBody(t, ts.URL, jobs[1].ID)
			if want := readGolden(t, k.name+".status.json"); !bytes.Equal(status, want) {
				t.Errorf("restored done %s job status:\n got %s\nwant %s", k.name, status, want)
			}

			compacted := journalLines(t, dir)
			sort.Strings(compacted)
			sort.Strings(golden)
			if strings.Join(compacted, "\n") != strings.Join(golden, "\n") {
				t.Errorf("compaction rewrote records:\n got %s\nwant %s",
					strings.Join(compacted, "\n"), strings.Join(golden, "\n"))
			}
		})
	}
}
