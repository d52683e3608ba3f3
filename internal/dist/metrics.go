package dist

import (
	"fmt"
	"io"
	"sync/atomic"
)

// coordMetrics are the coordinator's monotonic counters. Per-worker
// health and inflight are not counted here — they are read live off the
// pool at scrape time, so the gauges can never drift from the
// scheduler's actual view.
type coordMetrics struct {
	cellsAssigned  atomic.Int64
	cellsStolen    atomic.Int64
	cellsDuplicate atomic.Int64
}

// WriteMetrics renders the coordinator's series in Prometheus text
// exposition, matching the worker daemon's hand-rolled writer; it plugs
// into serve.Options.ExtraMetrics so the coordinator's /metrics carries
// both the serve job metrics and the dist fleet metrics.
func (c *Coordinator) WriteMetrics(w io.Writer) {
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP dist_workers_total Configured sweep workers.\n# TYPE dist_workers_total gauge\ndist_workers_total %d\n",
		len(c.pool.workers))
	fmt.Fprintf(w, "# HELP dist_workers_healthy Workers passing health probes.\n# TYPE dist_workers_healthy gauge\ndist_workers_healthy %d\n",
		c.pool.healthyCount())
	counter("dist_cells_assigned_total", "Cell dispatches to workers (re-dispatches and hedges included).", c.met.cellsAssigned.Load())
	counter("dist_cells_stolen_total", "Cell dispatches beyond a cell's first (hedged stragglers and lost workers).", c.met.cellsStolen.Load())
	counter("dist_cells_duplicate_total", "Cell completions discarded because another dispatch of the cell won.", c.met.cellsDuplicate.Load())

	fmt.Fprintf(w, "# HELP dist_worker_inflight Cells this coordinator has in flight per worker.\n# TYPE dist_worker_inflight gauge\n")
	for _, ws := range c.pool.workers {
		_, inflight, _ := ws.snapshot()
		fmt.Fprintf(w, "dist_worker_inflight{worker=%q} %d\n", ws.url, inflight)
	}
	fmt.Fprintf(w, "# HELP dist_worker_healthy Per-worker health (1 healthy, 0 not).\n# TYPE dist_worker_healthy gauge\n")
	for _, ws := range c.pool.workers {
		healthy, _, _ := ws.snapshot()
		v := 0
		if healthy {
			v = 1
		}
		fmt.Fprintf(w, "dist_worker_healthy{worker=%q} %d\n", ws.url, v)
	}
}
