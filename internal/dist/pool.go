package dist

import (
	"context"
	"sync"
	"time"
)

// workerState is the coordinator's view of one backend daemon: its
// client, the latest health/backpressure probe, and how many cells the
// coordinator itself has in flight there. The scraped queue numbers are
// a staleness-tolerant hint; the coordinator's own inflight counter is
// exact, and assignment uses both.
type workerState struct {
	url    string
	client *Client

	mu       sync.Mutex
	healthy  bool
	load     Load
	inflight int // cells this coordinator currently has dispatched here
	failures int // consecutive dispatch/probe failures
	probed   time.Time
}

// snapshot reads the worker's state consistently, for metrics and logs.
func (w *workerState) snapshot() (healthy bool, inflight int, load Load) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.healthy, w.inflight, w.load
}

// markFailure records a dispatch failure and flips the worker unhealthy
// immediately — a refused connection should divert traffic now, not at
// the next probe tick. The probe loop revives it once readyz answers.
func (w *workerState) markFailure() {
	w.mu.Lock()
	w.failures++
	w.healthy = false
	w.mu.Unlock()
}

// release frees the slot pick reserved.
func (w *workerState) release() {
	w.mu.Lock()
	w.inflight--
	w.mu.Unlock()
}

// pool is the fleet: per-worker state plus a background probe loop
// driving each worker's readyz and /metrics.
type pool struct {
	workers []*workerState
	// pickMu makes pick's choose-and-reserve atomic across the
	// concurrent RunCell calls.
	pickMu        sync.Mutex
	probeInterval time.Duration
	probeTimeout  time.Duration

	stop chan struct{}
	wg   sync.WaitGroup
}

func newPool(urls []string, mkClient func(url string) *Client, probeInterval time.Duration) *pool {
	p := &pool{
		probeInterval: probeInterval,
		probeTimeout:  2 * time.Second,
		stop:          make(chan struct{}),
	}
	for _, u := range urls {
		p.workers = append(p.workers, &workerState{url: u, client: mkClient(u)})
	}
	return p
}

// start probes the whole fleet once synchronously — so the first
// assignment pass already sees real health — then keeps probing in the
// background until close.
func (p *pool) start() {
	p.probeAll()
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		t := time.NewTicker(p.probeInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				p.probeAll()
			case <-p.stop:
				return
			}
		}
	}()
}

func (p *pool) close() {
	close(p.stop)
	p.wg.Wait()
}

// probeAll refreshes every worker concurrently: readyz decides healthy,
// /metrics refreshes the backpressure hint. A worker whose readyz fails
// (down, draining, unreachable) takes no new assignments until a later
// probe succeeds.
func (p *pool) probeAll() {
	var wg sync.WaitGroup
	for _, w := range p.workers {
		wg.Add(1)
		go func(w *workerState) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), p.probeTimeout)
			defer cancel()
			err := w.client.Ready(ctx)
			var load Load
			if err == nil {
				load, _ = w.client.ScrapeLoad(ctx) // best-effort; zero Load means no hint
			}
			w.mu.Lock()
			w.probed = time.Now()
			if err != nil {
				w.healthy = false
				w.failures++
			} else {
				w.healthy = true
				w.failures = 0
				w.load = load
			}
			w.mu.Unlock()
		}(w)
	}
	wg.Wait()
}

// healthyCount reports how many workers currently pass probes.
func (p *pool) healthyCount() int {
	n := 0
	for _, w := range p.workers {
		if h, _, _ := w.snapshot(); h {
			n++
		}
	}
	return n
}

// pick chooses the least-loaded available worker and reserves one
// inflight slot on it (freed by release): healthy, below the
// coordinator's per-worker inflight cap, with admission headroom at the
// worker's own queue (its scraped capacity minus depth, discounted by
// what this coordinator already has in flight there), excluding any
// worker in except. Returns nil when no worker qualifies.
func (p *pool) pick(maxInflight int, except map[*workerState]bool) *workerState {
	p.pickMu.Lock()
	defer p.pickMu.Unlock()
	var best *workerState
	bestInflight := 0
	for _, w := range p.workers {
		if except[w] {
			continue
		}
		w.mu.Lock()
		ok := w.healthy && w.inflight < maxInflight
		if ok && w.load.QueueCapacity > 0 {
			// Admission-aware: beyond the scraped queue headroom a POST
			// would bounce with 429 anyway; don't earn the rejection.
			ok = w.inflight < w.load.QueueCapacity
		}
		inflight := w.inflight
		w.mu.Unlock()
		if !ok {
			continue
		}
		if best == nil || inflight < bestInflight {
			best, bestInflight = w, inflight
		}
	}
	if best != nil {
		best.mu.Lock()
		best.inflight++
		best.mu.Unlock()
	}
	return best
}
