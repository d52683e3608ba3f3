package serve

import (
	"context"
	"net"
	"net/http"
	"sync"
	"testing"
	"time"

	"anongeo/internal/core"
)

// TestDrainBusyServerKeepsCompletedResults is the shutdown contract
// under load, meant to run with -race: while jobs are queued and
// executing and clients are hammering the read endpoints, a drain with
// a generous deadline must (1) let every admitted job reach a terminal
// state, (2) keep every completed result readable afterwards, and
// (3) refuse new work the moment it starts.
func TestDrainBusyServerKeepsCompletedResults(t *testing.T) {
	stub := func(ctx context.Context, cfg core.Config) (core.Result, error) {
		select {
		case <-time.After(2 * time.Millisecond):
			return core.Result{Protocol: cfg.Protocol, Nodes: cfg.Nodes}, nil
		case <-ctx.Done():
			return core.Result{}, ctx.Err()
		}
	}
	srv, ts := newTestServer(t, Options{QueueDepth: 64, JobWorkers: 2, Parallel: 2}, stub)

	const jobs = 12
	ids := make([]string, jobs)
	for i := 0; i < jobs; i++ {
		resp, out := postSweep(t, ts, distinctRequest(i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids[i] = out.ID
	}

	// Readers poll status and metrics throughout the drain; the -race
	// run is what gives these teeth.
	stopReads := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				for _, path := range []string{"/v1/jobs/" + ids[r%jobs], "/metrics", "/v1/jobs"} {
					resp, err := http.Get(ts.URL + path)
					if err != nil {
						return
					}
					resp.Body.Close()
				}
			}
		}(r)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Manager().Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Admission is closed, reads still work.
	resp, _ := postSweep(t, ts, distinctRequest(jobs))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after drain = %d, want 503", resp.StatusCode)
	}
	close(stopReads)
	readers.Wait()

	done := 0
	for i, id := range ids {
		st := getStatus(t, ts, id)
		if !st.State.Terminal() {
			t.Fatalf("job %d not terminal after drain: %q", i, st.State)
		}
		if st.State == JobDone {
			done++
			if len(st.Points) == 0 {
				t.Fatalf("job %d done but lost its points", i)
			}
		}
	}
	// The generous deadline means nothing should have been cut short.
	if done != jobs {
		t.Fatalf("only %d/%d jobs completed across the drain", done, jobs)
	}
}

// TestDrainDeadlineCancelsInFlight is the other half: when the
// deadline is too tight for the work, Drain must come back promptly
// anyway, with everything still in flight canceled rather than leaked.
func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	stub, started, release := blockingStub()
	defer release()
	srv, ts := newTestServer(t, Options{QueueDepth: 8, JobWorkers: 1, Parallel: 1}, stub)

	_, running := postSweep(t, ts, distinctRequest(0))
	<-started
	_, queued := postSweep(t, ts, distinctRequest(1))

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := srv.Manager().Drain(ctx)
	if err == nil {
		t.Fatal("drain with blocked worker reported clean completion")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("drain took %v despite its 100ms deadline", elapsed)
	}

	for _, id := range []string{running.ID, queued.ID} {
		st := getStatus(t, ts, id)
		if st.State != JobCanceled {
			t.Fatalf("job %s state after deadline drain = %q, want canceled", id[:8], st.State)
		}
	}
}

// TestListenAndServeDrainsPastIdleConnection is the SIGTERM path with a
// client that dialled and never sent a request: net/http's Shutdown
// counts such a connection as active for its first 5 s, past the
// shutdown deadline, yet a drain with no jobs left must still return
// nil (agrsimd exits 0).
func TestListenAndServeDrainsPastIdleConnection(t *testing.T) {
	srv, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	shutdown := make(chan struct{})
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(addr, shutdown, 10*time.Second) }()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon exited before serving: %v", err)
		case <-time.After(10 * time.Millisecond):
		}
	}

	idle, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()
	close(shutdown)
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("drain with an idle connection returned %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not return")
	}
}
