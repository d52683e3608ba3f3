// Command agrsimd is the simulation-as-a-service daemon: it serves the
// internal/serve HTTP API, turning the Figure 1 evaluation engine into
// a queued, observable, multi-tenant workload.
//
//	agrsimd -addr :8080 -cache
//
// Submit a sweep, watch it, read it back:
//
//	curl -s localhost:8080/v1/sweeps -X POST -d '{
//	    "base": {"Seed":1, "Nodes":50, "Area":{"Max":{"X":1500,"Y":300}},
//	             "RadioRange":250, "MinSpeed":1, "MaxSpeed":20,
//	             "Pause":60000000000, "Flows":30, "Senders":20,
//	             "PacketInterval":500000000, "PayloadBytes":64,
//	             "Duration":900000000000, "Warmup":10000000000,
//	             "Protocol":2, "Policy":3, "ReachFilter":true},
//	    "node_counts": [50, 112, 150],
//	    "protocols": ["gpsr", "agfw"]}'
//	curl -s localhost:8080/v1/jobs/<id>/events        # NDJSON progress
//	curl -s localhost:8080/v1/jobs/<id>               # status + points
//	curl -s localhost:8080/metrics                    # Prometheus text
//
// SIGINT/SIGTERM drains gracefully: admission stops (readyz goes 503),
// running jobs get -drain-timeout to finish, stragglers are canceled,
// and completed results stay readable until the listener closes.
//
// With -journal <dir> the daemon is also crash-safe: every admission
// and job transition is fsynced to a write-ahead log, so even kill -9
// or power loss mid-sweep loses nothing acknowledged — on restart the
// journal is replayed, finished jobs (and their points) are served
// from the log, and interrupted jobs are re-admitted under their
// existing IDs, completing from per-cell cache hits instead of
// recomputing:
//
//	agrsimd -addr :8080 -cache -journal .agrsimd-journal
//	# ... kill -9 mid-grid, restart with the same flags ...
//	curl -s localhost:8080/v1/jobs/<id>   # same ID, finishes from cache
//
// With -workers the daemon becomes a coordinator instead of computing
// locally: it exposes the identical HTTP API and runs each grid on the
// same orchestrator, but every cell executes on one of the listed
// worker daemons (admission-aware dispatch, hedging of stragglers,
// duplicate completions discarded) and the fold is bit-identical to a
// local run. The orchestrator runs len(workers) × -worker-inflight
// cells at once; -parallel does not apply. Finished cells land in the
// coordinator's cache, so with -journal a coordinator crash resumes the
// job from cache hits without recomputing them — coordinator resume,
// like -journal recovery everywhere, needs the cache (on by default):
//
//	agrsimd -addr :8081 -journal w1.journal &   # worker 1
//	agrsimd -addr :8082 -journal w2.journal &   # worker 2
//	agrsimd -addr :8080 -journal coord.journal \
//	        -workers http://127.0.0.1:8081,http://127.0.0.1:8082
package main

import (
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"anongeo/internal/dist"
	"anongeo/internal/exp"
	"anongeo/internal/serve"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "agrsimd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		queueDepth   = flag.Int("queue", 16, "admission queue bound; beyond it submissions get 429")
		jobWorkers   = flag.Int("job-workers", 1, "jobs executing concurrently")
		parallel     = flag.Int("parallel", 0, "orchestrator pool width per job (0 = GOMAXPROCS; coordinator mode uses workers × -worker-inflight)")
		cache        = flag.Bool("cache", true, "memoize cell results under -cache-dir (journal recovery, coordinator resume included, finishes from it)")
		cacheDir     = flag.String("cache-dir", exp.DefaultCacheDir, "result cache directory")
		journalDir   = flag.String("journal", "", "job WAL directory: admissions and transitions are fsynced there, and a restart replays the journal — terminal jobs stay readable, interrupted jobs are re-admitted and finish from cache hits (empty = no journal)")
		cacheGC      = flag.Duration("cache-gc", 0, "evict cache entries older than this (0 = keep forever); also swept hourly")
		cacheMax     = flag.Int("cache-max-entries", 0, "keep at most this many cache entries (0 = unbounded)")
		jobTimeout   = flag.Duration("job-timeout", 15*time.Minute, "per-job execution wall-time cap")
		maxCells     = flag.Int("max-cells", 1024, "largest grid one job may expand to")
		retries      = flag.Int("retries", 0, "extra attempts per failed cell (capped backoff)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace for in-flight jobs on shutdown before hard cancel")

		workers        = flag.String("workers", "", "comma-separated worker base URLs; non-empty turns this daemon into a distributed coordinator that shards cells across the fleet instead of simulating locally")
		workerInflight = flag.Int("worker-inflight", 4, "coordinator mode: max cells in flight per worker")
		stealAfter     = flag.Duration("steal-after", 30*time.Second, "coordinator mode: minimum straggler age before a cell is speculatively reassigned")

		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); empty disables it")
	)
	flag.Parse()

	// Profiling endpoint: off by default, and on a separate listener so
	// enabling it never exposes profiles on the job API address.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			serve.LogStd("agrsimd: pprof on http://%s/debug/pprof/", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				serve.LogStd("agrsimd: pprof server: %v", err)
			}
		}()
	}

	opts := serve.Options{
		QueueDepth: *queueDepth,
		JobWorkers: *jobWorkers,
		Parallel:   *parallel,
		JournalDir: *journalDir,
		JobTimeout: *jobTimeout,
		MaxCells:   *maxCells,
		Retries:    *retries,
		Logf:       serve.LogStd,
	}
	if *cache {
		opts.CacheDir = *cacheDir
	}

	if *workers != "" {
		var urls []string
		for _, u := range strings.Split(*workers, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		coord, err := dist.New(dist.Options{
			Workers:     urls,
			MaxInflight: *workerInflight,
			StealAfter:  *stealAfter,
			Logf:        serve.LogStd,
		})
		if err != nil {
			return err
		}
		defer coord.Close()
		opts.RunCell = coord.RunCell
		opts.Parallel = len(urls) * *workerInflight
		opts.ExtraMetrics = coord.WriteMetrics
		serve.LogStd("agrsimd: coordinator mode, %d workers (%s), %d healthy",
			len(urls), *workers, coord.HealthyWorkers())
	}

	srv, err := serve.New(opts)
	if err != nil {
		return err
	}

	// Cache GC: once at boot, then hourly — a daemon's cache grows
	// without bound otherwise.
	if c := srv.Manager().Cache(); c != nil && (*cacheGC > 0 || *cacheMax > 0) {
		gc := func() {
			n, err := c.Prune(*cacheMax, *cacheGC)
			if err != nil {
				serve.LogStd("agrsimd: cache gc: %v", err)
			} else if n > 0 {
				serve.LogStd("agrsimd: cache gc evicted %d entries", n)
			}
		}
		gc()
		ticker := time.NewTicker(time.Hour)
		defer ticker.Stop()
		go func() {
			for range ticker.C {
				gc()
			}
		}()
	}

	shutdown := make(chan struct{})
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigc
		serve.LogStd("agrsimd: %v received, draining (timeout %v)", sig, *drainTimeout)
		close(shutdown)
		signal.Stop(sigc) // a second signal kills the process the hard way
	}()

	serve.LogStd("agrsimd: serving on %s (queue %d, job workers %d, cache %q, journal %q)",
		*addr, *queueDepth, *jobWorkers, opts.CacheDir, opts.JournalDir)
	return srv.ListenAndServe(*addr, shutdown, *drainTimeout)
}
