package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"anongeo/internal/core"
	"anongeo/internal/exp"
	"anongeo/internal/serve"
)

// Service run shape.
const (
	bootReps = 21 // daemon restarts per run; setup_s is their median
	// bootJobs is the stream prefix whose journal and cache the
	// restarts replay: a fixed amount of work, so setup_s does not grow
	// with the number of jobs a faster daemon completes in o.seconds.
	bootJobs = 400
	// minJobs keeps p95 at least ten samples from the top of the
	// latency list.
	minJobs = 200
	// floorJobs is the prefix of the job stream every run completes;
	// pdf comes from its sweep points only, so it is the same for a seed
	// however many jobs a run gets through.
	floorJobs = 200
)

// daemon is one agrsimd process with its own cache and journal.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	pprof  string // pprof listener base URL, empty when off
	exited chan struct{}
	err    error // exit status, valid once exited is closed
	log    *os.File

	stopOnce sync.Once
	stopErr  error
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startDaemon execs agrsimd on a fresh directory with the service
// workload's flags and returns once /readyz answers 200, with the time
// that took.
func startDaemon(bin, dir string, withPprof bool) (*daemon, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	args := []string{"-addr", addr, "-cache", "-cache-dir", filepath.Join(dir, "cache"),
		"-journal", filepath.Join(dir, "journal"), "-job-workers", "1", "-parallel", "1"}
	d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
	if withPprof {
		paddr, err := freeAddr()
		if err != nil {
			return nil, 0, err
		}
		args = append(args, "-pprof", paddr)
		d.pprof = "http://" + paddr
	}
	if d.log, err = os.Create(filepath.Join(dir, "agrsimd.log")); err != nil {
		return nil, 0, err
	}
	d.cmd = exec.Command(bin, args...)
	d.cmd.Stdout, d.cmd.Stderr = d.log, d.log
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		d.log.Close()
		return nil, 0, err
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				boot := time.Since(start)
				if d.pprof != "" {
					if err := waitListening(d.pprof+"/debug/pprof/", d.exited); err != nil {
						d.stop()
						return nil, 0, err
					}
				}
				return d, boot, nil
			}
		}
		select {
		case <-d.exited:
			d.log.Close()
			return nil, 0, fmt.Errorf("agrsimd exited before ready: %v (log %s)", d.err, d.log.Name())
		// A millisecond between probes keeps the poller from competing
		// with the booting daemon for the CPU it is timing.
		case <-time.After(time.Millisecond):
		}
		if time.Since(start) > 30*time.Second {
			d.stop()
			return nil, 0, errors.New("agrsimd not ready after 30s")
		}
	}
}

func waitListening(url string, exited <-chan struct{}) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			return nil
		}
		select {
		case <-exited:
			return errors.New("agrsimd exited")
		case <-time.After(5 * time.Millisecond):
		}
	}
	return fmt.Errorf("%s not listening", url)
}

// stop drains the daemon with SIGTERM and waits for it to exit, killing
// it if the drain hangs. Later calls return the first call's result.
//
// Every client here uses http.DefaultTransport, which may have dialled
// a connection it never sent a request on. net/http's Shutdown counts
// such a connection as active for its first 5 s, the same 5 s agrsimd
// gives Shutdown, so the drain would fail with "context deadline
// exceeded"; closing the idle connections first avoids that.
func (d *daemon) stop() error {
	d.stopOnce.Do(func() {
		defer d.log.Close()
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is fine
		select {
		case <-d.exited:
			if d.err != nil {
				d.stopErr = fmt.Errorf("agrsimd: %w; log ends: %s", d.err, logTail(d.log.Name()))
			}
		case <-time.After(20 * time.Second):
			_ = d.cmd.Process.Kill()
			<-d.exited
			d.stopErr = errors.New("agrsimd did not drain within 20s; killed")
		}
	})
	return d.stopErr
}

// logTail returns the last lines of a daemon log, for error messages.
func logTail(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return strings.Join(lines[max(0, len(lines)-5):], " | ")
}

// bootSeconds restarts the daemon bootReps times on the journal and
// cache a bootJobs-job phase left behind, stopping each, and returns the
// median exec-to-ready time. A restart replays (and the first one
// compacts) the job journal, so work moved into boot shows here.
func bootSeconds(o options, dir string) (metricValue, error) {
	var samples []float64
	for i := 0; i < bootReps; i++ {
		d, boot, err := startDaemon(o.agrsimd, dir, false)
		if err != nil {
			return metricValue{}, err
		}
		if err := d.stop(); err != nil {
			return metricValue{}, err
		}
		samples = append(samples, boot.Seconds())
	}
	return metricValue{median(samples), len(samples)}, nil
}

// jobRecord is what a client saw of one job.
type jobRecord struct {
	job      serviceJob
	id       string
	created  bool
	ok       bool
	start    time.Time
	posted   time.Time
	done     time.Time
	status   serve.JobStatus
	cellWall []cellTiming // executed cells (created jobs only)
	cached   int
}

type cellTiming struct {
	label string
	ms    float64
}

// submitResponse is the body of a successful POST /v1/sweeps or /v1/lbs.
type submitResponse struct {
	Created bool `json:"created"`
	serve.JobStatus
}

// servicePhase drives one fresh daemon with closed-loop clients.
type servicePhase struct {
	o      options
	d      *daemon
	stream *jobStream
	http   *http.Client
	rep    *runReport
	tr     *tracer // nil when untraced
	// limit, when positive, makes the phase run exactly the stream's
	// first limit jobs instead of running for o.seconds.
	limit int

	mu       sync.Mutex
	records  []*jobRecord
	done     map[int]chan struct{} // closed when job k has finished (either way)
	ids      map[int]string
	rejected int
	// truncated counts event streams that closed without the job's
	// terminal event (a known daemon defect, see awaitDone).
	truncated int
	finished  int
	// rss is the daemon's VmHWM when the floorJobs-th job finished: the
	// daemon keeps every job in memory, so reading it after a fixed
	// amount of work keeps it independent of how fast the run went.
	rss    float64
	rssErr error
}

func (p *servicePhase) doneChan(k int) chan struct{} {
	p.mu.Lock()
	defer p.mu.Unlock()
	c, ok := p.done[k]
	if !ok {
		c = make(chan struct{})
		p.done[k] = c
	}
	return c
}

// run drives the daemon until the phase has lasted o.seconds and at
// least minJobs jobs (including the floorJobs prefix) have finished, or
// through exactly p.limit jobs when that is set. Clients are capped at
// the machine's CPU count and at two.
func (p *servicePhase) run(ctx context.Context, clients int) (time.Duration, error) {
	var next int
	var nmu sync.Mutex
	start := time.Now()
	take := func() (int, bool) {
		nmu.Lock()
		defer nmu.Unlock()
		switch {
		case ctx.Err() != nil,
			p.limit > 0 && next >= p.limit,
			p.limit == 0 && next >= minJobs && next >= floorJobs && time.Since(start).Seconds() >= p.o.seconds:
			return 0, false
		}
		next++
		return next - 1, true
	}
	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k, ok := take()
				if !ok {
					return
				}
				if err := p.runJob(ctx, p.stream.job(k)); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	return time.Since(start), <-errc
}

// runJob posts one job, waits on its event stream for the finish, and
// fetches its results. Transport failures abort the run; 429s, 5xx and
// failed jobs count as failed operations.
func (p *servicePhase) runJob(ctx context.Context, j serviceJob) error {
	defer close(p.doneChan(j.Index))
	defer p.countFinished()
	if j.Of >= 0 {
		select {
		case <-p.doneChan(j.Of):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	rec := &jobRecord{job: j, start: time.Now()}
	p.mu.Lock()
	p.records = append(p.records, rec)
	p.mu.Unlock()
	p.rep.attempt(1)

	resp, err := p.http.Post(p.d.base+j.Path, "application/json", bytes.NewReader(j.Body))
	if err != nil {
		return fmt.Errorf("job %d: POST: %w", j.Index, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rec.posted = time.Now()
	if err != nil {
		return fmt.Errorf("job %d: POST: %w", j.Index, err)
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		p.mu.Lock()
		p.rejected++
		p.mu.Unlock()
		p.rep.fail("job %d: 429", j.Index)
		return nil
	case resp.StatusCode >= 500:
		p.rep.fail("job %d: POST %d: %s", j.Index, resp.StatusCode, body)
		return nil
	case resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted:
		p.rep.wrong("job %d: POST %d: %s", j.Index, resp.StatusCode, body)
		return nil
	}
	var sub submitResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		return fmt.Errorf("job %d: decode submit: %w", j.Index, err)
	}
	rec.id, rec.created = sub.ID, sub.Created
	p.mu.Lock()
	p.ids[j.Index] = sub.ID
	want := p.ids[j.Of]
	p.mu.Unlock()
	if j.Kind == kindRepost && (sub.Created || sub.ID != want) {
		p.rep.wrong("job %d: re-POST of job %d gave created=%v id %.12s, want created=false id %.12s", j.Index, j.Of, sub.Created, sub.ID, want)
	}

	if err := p.awaitDone(ctx, rec); err != nil {
		return err
	}
	rec.done = time.Now()

	st, err := p.status(sub.ID)
	if err != nil {
		return fmt.Errorf("job %d: %w", j.Index, err)
	}
	if !st.State.Terminal() {
		return fmt.Errorf("job %d: event stream closed while the job is %s", j.Index, st.State)
	}
	rec.status = st
	switch {
	case st.State != serve.JobDone:
		p.rep.fail("job %d (%s): state %s: %s", j.Index, j.Kind, st.State, st.Error)
	case j.Path == "/v1/lbs" && len(st.Curves) != j.Cells:
		p.rep.wrong("job %d: %d LBS curve points, want %d", j.Index, len(st.Curves), j.Cells)
	case j.Path == "/v1/sweeps" && len(st.Points) != j.Cells:
		p.rep.wrong("job %d: %d sweep points, want %d", j.Index, len(st.Points), j.Cells)
	default:
		rec.ok = true
	}
	if p.tr != nil {
		p.traceJob(rec)
	}
	return nil
}

func (p *servicePhase) countFinished() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.finished++; p.finished == floorJobs {
		p.rss, p.rssErr = peakRSSMiB(p.d.cmd.Process.Pid)
	}
}

// awaitDone follows the job's NDJSON event stream until the job-level
// finish event, recording the cell timings of jobs this POST created.
func (p *servicePhase) awaitDone(ctx context.Context, rec *jobRecord) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.d.base+"/v1/jobs/"+rec.id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := p.http.Do(req)
	if err != nil {
		return fmt.Errorf("job %d: events: %w", rec.job.Index, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job %d: events: HTTP %d", rec.job.Index, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		var ev serve.JobEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("job %d: event: %w", rec.job.Index, err)
		}
		if rec.created {
			switch ev.Type {
			case exp.EventCellFinished:
				rec.cellWall = append(rec.cellWall, cellTiming{ev.Label, float64(ev.Wall) / float64(time.Millisecond)})
			case exp.EventCellCached:
				rec.cached++
			}
		}
		if ev.State.Terminal() {
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("job %d: events: %w", rec.job.Index, err)
	}
	// The daemon ends a stream only once the job is terminal, but
	// Job.transition (internal/serve/job.go) marks the job terminal
	// before it appends job-finished, so a stream can close without it.
	// Count the known defect; the status fetch that follows confirms the
	// job's state.
	p.mu.Lock()
	p.truncated++
	p.mu.Unlock()
	return nil
}

func (p *servicePhase) status(id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	resp, err := p.http.Get(p.d.base + "/v1/jobs/" + id)
	if err != nil {
		return st, fmt.Errorf("status: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("status: HTTP %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("status: %w", err)
	}
	return st, nil
}

// traceJob records a job's spans: the whole job, the POST, the wait for
// its done event and, for jobs this POST created, the daemon's queue
// and execution intervals from the job's own timestamps.
func (p *servicePhase) traceJob(rec *jobRecord) {
	req := rec.id
	root := p.tr.add("job", req, -1, rec.start, rec.done)
	p.tr.add("submit", req, root, rec.start, rec.posted)
	p.tr.add("wait", req, root, rec.posted, rec.done)
	st := rec.status
	if rec.created && st.Started != nil && st.Finished != nil {
		p.tr.add("queue", req, root, st.Created, *st.Started)
		p.tr.add("exec", req, root, *st.Started, *st.Finished)
	}
}

// phaseResult is one service phase's outcome.
type phaseResult struct {
	records   []*jobRecord
	wall      time.Duration
	cpu       float64 // daemon CPU seconds over the phase
	rss       float64
	rejected  int
	truncated int
	allocMB   float64 // daemon heap allocation over the phase (traced only)
	profile   *cpuProfile
}

// runServicePhase boots a fresh daemon and drives the seeded job stream
// against it: its first limit jobs, or for o.seconds when limit is 0.
func runServicePhase(ctx context.Context, o options, dir string, limit int, tr *tracer, rep *runReport) (*phaseResult, error) {
	d, _, err := startDaemon(o.agrsimd, dir, tr != nil)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	p := &servicePhase{
		o: o, d: d, stream: newJobStream(o.seed), rep: rep, tr: tr, limit: limit,
		http: &http.Client{Timeout: 5 * time.Minute},
		done: map[int]chan struct{}{}, ids: map[int]string{},
	}
	clients := min(2, runtime.NumCPU())

	var (
		alloc0  float64
		profErr error
		prof    []byte
		profWG  sync.WaitGroup
	)
	if tr != nil {
		if alloc0, err = totalAllocMB(d.pprof); err != nil {
			return nil, err
		}
		profWG.Add(1)
		go func() {
			defer profWG.Done()
			prof, profErr = fetch(fmt.Sprintf("%s/debug/pprof/profile?seconds=%d", d.pprof, max(1, int(o.seconds))))
		}()
	}
	cpu0, err := procCPUSeconds(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	wall, runErr := p.run(ctx, clients)
	cpu1, err := procCPUSeconds(d.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	res := &phaseResult{records: p.records, wall: wall, cpu: cpu1 - cpu0, rejected: p.rejected, truncated: p.truncated}
	profWG.Wait() // the profile covers the phase's first o.seconds
	if runErr != nil {
		return nil, runErr
	}
	if tr != nil {
		if profErr != nil {
			return nil, fmt.Errorf("daemon profile: %w", profErr)
		}
		if res.profile, err = parseCPUProfile(prof); err != nil {
			return nil, err
		}
		alloc1, err := totalAllocMB(d.pprof)
		if err != nil {
			return nil, err
		}
		res.allocMB = alloc1 - alloc0
	}
	if p.rssErr != nil {
		return nil, p.rssErr
	}
	res.rss = p.rss
	return res, d.stop()
}

func fetch(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("%s: HTTP %d", url, resp.StatusCode)
	}
	return b, err
}

var totalAllocRE = regexp.MustCompile(`(?m)^# TotalAlloc = (\d+)$`)

// totalAllocMB reads the daemon's cumulative heap allocation from the
// MemStats block of its debug heap profile.
func totalAllocMB(pprofBase string) (float64, error) {
	b, err := fetch(pprofBase + "/debug/pprof/heap?debug=1")
	if err != nil {
		return 0, err
	}
	m := totalAllocRE.FindSubmatch(b)
	if m == nil {
		return 0, errors.New("heap profile: no TotalAlloc")
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	return v / (1 << 20), err
}

// serviceEndToEnd derives the end-to-end metrics of one phase.
func serviceEndToEnd(res *phaseResult) map[string]metricValue {
	var lat []float64
	var simSec float64
	var sent, delivered int
	jobs := 0
	for _, r := range res.records {
		if !r.ok {
			continue
		}
		jobs++
		lat = append(lat, msSince(r.start, r.done))
		simSec += r.job.SimSeconds
		if r.job.Index < floorJobs {
			for _, pt := range r.status.Points {
				s := pt.Result.Summary
				sent += s.Sent
				delivered += s.Delivered
			}
		}
	}
	return map[string]metricValue{
		"sim_s_per_cpu_s": {ratio(simSec, res.cpu), jobs},
		"pdf":             {ratio(float64(delivered), float64(sent)), sent},
		"jobs_per_s":      {ratio(float64(jobs), res.wall.Seconds()), jobs},
		"job_p50_ms":      {percentile(lat, 50), len(lat)},
		"job_p95_ms":      {percentile(lat, 95), len(lat)},
		"cpu_ms_per_job":  {ratio(res.cpu*1000, float64(jobs)), jobs},
		"peak_rss_mb":     {res.rss, 1},
	}
}

// runServiceWorkload measures the service workload. Untraced, it drives
// one timed phase, then runs the stream's first bootJobs jobs on a fresh
// daemon and restarts the daemon on that state for setup_s.
// Traced, it drives an untraced phase and then a traced one (pprof
// listener profiling, spans per job) on fresh daemons with the same job
// stream, checks that both returned the same results for the stream's
// first jobs, and reports per-layer metrics and the tracing overhead.
func runServiceWorkload(ctx context.Context, o options, rep *runReport) error {
	dir, err := os.MkdirTemp(o.workdir, "service-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	plain, err := runServicePhase(ctx, o, filepath.Join(dir, "plain"), 0, nil, rep)
	if err != nil {
		return err
	}
	e2e := serviceEndToEnd(plain)
	rep.known = append(rep.known, fmt.Sprintf("serve.events_truncated = %d of %d jobs (untraced phase): an /events stream closed before the job's terminal event; internal/serve/job.go Job.transition marks the job terminal before appending job-finished", plain.truncated, len(plain.records)))
	if !o.trace {
		bootDir := filepath.Join(dir, "boot")
		if _, err := runServicePhase(ctx, o, bootDir, bootJobs, nil, rep); err != nil {
			return err
		}
		if e2e["setup_s"], err = bootSeconds(o, bootDir); err != nil {
			return err
		}
		rep.metrics = e2e
		return nil
	}

	tr := newTracer()
	traced, err := runServicePhase(ctx, o, filepath.Join(dir, "traced"), 0, tr, rep)
	if err != nil {
		return err
	}
	compareFloor(plain, traced, rep)
	t := serviceEndToEnd(traced)
	m := serviceLayers(traced, tr)
	m["bench.trace_overhead"] = metricValue{ratio(t["cpu_ms_per_job"].Value, e2e["cpu_ms_per_job"].Value) - 1, t["cpu_ms_per_job"].N}
	rep.metrics = m
	rep.notes = append(rep.notes, mixShares(traced))
	return tr.write(o.tracePath())
}

// mixShares reports, per job kind, its share of the phase's jobs and of
// the daemon's execution time (job started to finished, which with one
// job worker and one cell at a time is the daemon's busy time), and its
// mean execution time per job.
func mixShares(res *phaseResult) string {
	jobs := map[string]float64{}
	execMS := map[string]float64{}
	var n, total float64
	for _, r := range res.records {
		if !r.ok {
			continue
		}
		n++
		jobs[r.job.Kind]++
		if st := r.status; r.created && st.Started != nil && st.Finished != nil {
			ms := msSince(*st.Started, *st.Finished)
			execMS[r.job.Kind] += ms
			total += ms
		}
	}
	var b strings.Builder
	b.WriteString("service mix (kind: share of jobs, share of daemon execution time, mean execution ms per job):")
	for _, k := range []string{kindSweep, kindLBS, kindOverlap, kindRepost} {
		fmt.Fprintf(&b, " %s %.3f %.3f %.1f;", k, ratio(jobs[k], n), ratio(execMS[k], total), ratio(execMS[k], jobs[k]))
	}
	return b.String()
}

// compareFloor checks that two phases returned identical results for
// every job of the stream's deterministic prefix.
func compareFloor(a, b *phaseResult, rep *runReport) {
	results := func(ph *phaseResult) map[int]string {
		out := map[int]string{}
		for _, r := range ph.records {
			if r.ok && r.job.Index < floorJobs {
				enc, err := json.Marshal(struct {
					P any
					C any
				}{r.status.Points, r.status.Curves})
				if err != nil {
					panic(err)
				}
				out[r.job.Index] = string(enc)
			}
		}
		return out
	}
	ra, rb := results(a), results(b)
	for k, v := range ra {
		if w, ok := rb[k]; ok && v != w {
			rep.wrong("job %d: traced phase returned different results from the untraced phase", k)
		}
	}
}

// serviceLayers derives the per-layer metrics of a traced phase.
func serviceLayers(res *phaseResult, tr *tracer) map[string]metricValue {
	var results []core.Result
	var cellMS []float64
	var cached, executed, deduped float64
	lbsQueries := map[string]float64{}
	lbsMS := map[string]float64{}
	var simSec float64
	for _, r := range res.records {
		if !r.ok {
			continue
		}
		simSec += r.job.SimSeconds
		if !r.created {
			deduped++
			continue
		}
		cached += float64(r.cached)
		executed += float64(len(r.cellWall))
		for _, c := range r.cellWall {
			if r.job.Path == "/v1/lbs" {
				b, _, _ := strings.Cut(c.label, "/")
				lbsQueries[b] += float64(r.job.Queries)
				lbsMS[b] += c.ms
			} else {
				cellMS = append(cellMS, c.ms)
			}
		}
		if r.job.Index < floorJobs && r.job.Kind == kindSweep {
			for _, pt := range r.status.Points {
				results = append(results, pt.Result)
			}
		}
	}
	self, gc := res.profile.shares()
	submit := tr.durations("submit")
	m := map[string]metricValue{
		"runtime.gc_cpu_share":       {gc, len(res.profile.samples)},
		"runtime.alloc_mb_per_sim_s": {ratio(res.allocMB, simSec), len(res.records)},
		"exp.cell_ms_p50":            {percentile(cellMS, 50), len(cellMS)},
		"exp.cache_hit_ratio":        {ratio(cached, cached+executed), int(cached + executed)},
		"serve.submit_ms_p50":        {percentile(submit, 50), len(submit)},
		"serve.submit_ms_p95":        {percentile(submit, 95), len(submit)},
		"serve.queue_wait_ms_p50":    {percentile(tr.durations("queue"), 50), len(tr.durations("queue"))},
		"serve.exec_ms_p50":          {percentile(tr.durations("exec"), 50), len(tr.durations("exec"))},
		"serve.deduped":              {deduped, len(res.records)},
		"serve.rejected":             {float64(res.rejected), len(res.records)},
		"serve.events_truncated":     {float64(res.truncated), len(res.records)},
	}
	for _, b := range lbsBackends {
		m["lbs.queries_per_s."+b] = metricValue{ratio(lbsQueries[b], lbsMS[b]/1000), int(lbsQueries[b])}
	}
	addCounts(m, results)
	for mod, share := range self {
		m[mod+".self_share"] = metricValue{share, len(res.profile.samples)}
	}
	return m
}
