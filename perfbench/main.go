// Command perfbench is the repository benchmark. It generates one of
// three seeded workloads, runs it against the simulator in-process
// (fig1, defended) or against the shipped agrsimd daemon (service),
// checks the outputs, and prints every metric with its unit and sample
// count; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with
// tracing off. With --trace 1 the run measures the workload untraced
// and then traced (spans around each layer call, a CPU profile
// attributed to anongeo/internal packages) and reports the per-layer
// metrics and the tracing overhead. --steady N runs each named
// workload N times as separate processes, one seed each, and prints
// the median, quartiles and spread of every end-to-end metric against
// its bound.
//
// Run it through run.sh from the repository root, which builds this
// program and cmd/agrsimd from source first:
//
//	bash perfbench/run.sh --workload fig1 --seed 1 --seconds 30 --trace 0
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	agrsimd  string
	workdir  string
	steady   int
}

// tracePath is where a traced run writes its spans.
func (o options) tracePath() string {
	return filepath.Join(o.workdir, "trace", fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
}

// runReport accumulates one run's outcome. Service clients update it
// concurrently.
type runReport struct {
	mu        sync.Mutex
	correct   bool
	attempted int
	failed    int
	problems  []string
	// known lists the known defects the run observed, printed with the
	// report whether or not their counts are metrics of this run.
	known []string
	// notes are measurements printed with the report that are not
	// metrics, such as the service mix's measured shares.
	notes   []string
	metrics map[string]metricValue
}

func (r *runReport) note(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// fail counts a failed operation.
func (r *runReport) fail(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failed++
	r.note(format, args...)
}

// wrong records an output that failed its check.
func (r *runReport) wrong(format string, args ...any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.correct = false
	r.note("WRONG: "+format, args...)
}

func (r *runReport) attempt(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted += n
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: fig1 | defended | service (with --steady, also all)")
	flag.Int64Var(&o.seed, "seed", 1, "seed every input is derived from")
	flag.Float64Var(&o.seconds, "seconds", 30, "how long each phase measures")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.agrsimd, "agrsimd", "", "path to the agrsimd binary (service workload)")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "directory for daemon state, traces and profiles")
	flag.IntVar(&o.steady, "steady", 0, "run each workload this many times (seeds seed..seed+N-1) and report the spread of every end-to-end metric")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	var err error
	if o.steady > 0 {
		err = steady(o)
	} else {
		err = runOnce(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("an output check failed")

func runOnce(o options) error {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep := &runReport{correct: true}
	var err error
	switch o.workload {
	case "fig1":
		err = runSimWorkload(ctx, o, fig1Cells(o.seed), rep)
	case "defended":
		err = runSimWorkload(ctx, o, defendedCells(o.seed), rep)
	case "service":
		if o.agrsimd == "" {
			return errors.New("--agrsimd is required for the service workload")
		}
		err = runServiceWorkload(ctx, o, rep)
	default:
		return fmt.Errorf("unknown workload %q (want fig1, defended or service)", o.workload)
	}
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	mismatch, err := lsReplayMismatch(o.seed)
	if err != nil {
		return err
	}
	if o.trace {
		rep.metrics["core.ls_replay_mismatch"] = metricValue{float64(mismatch), 2}
	}
	rep.known = append(rep.known, fmt.Sprintf("core.ls_replay_mismatch = %d: in-band ALS replays differ; internal/core/locoverlay.go:305/321/356 emit geocasts while ranging over maps", mismatch))

	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	out := map[string]any{}
	w := bufio.NewWriter(os.Stdout)
	fmt.Fprintf(w, "# perfbench %s seed %d, %s run\n", o.workload, o.seed, map[bool]string{false: "untraced", true: "traced"}[o.trace])
	for _, d := range defs {
		v, ok := rep.metrics[d.Name]
		if !ok {
			v = metricValue{0, 0} // the layer does no observable work here
		}
		note := d.Moves
		if !o.trace {
			note = d.Sim
			if o.workload == "service" {
				note = d.Service
			}
		}
		fmt.Fprintf(w, "%-32s %14.6g %-12s n=%-6d %s\n", d.Name, v.Value, d.Unit, v.N, note)
		out[d.Name] = map[string]any{"value": v.Value, "unit": d.Unit}
	}
	for _, k := range rep.known {
		fmt.Fprintf(w, "# known defect: %s\n", k)
	}
	for _, n := range rep.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	fmt.Fprintf(w, "# attempted %d, failed %d, error rate %.4g\n", rep.attempted, rep.failed, ratio(float64(rep.failed), float64(rep.attempted)))
	for _, p := range rep.problems {
		fmt.Fprintf(w, "# %s\n", p)
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.correct, "attempted": max(rep.attempted, 1), "failed": rep.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		return err
	}
	if !rep.correct {
		return errIncorrect
	}
	return nil
}

// steady runs each workload o.steady times in child processes, seeds
// o.seed onward, and reports each end-to-end metric's median,
// quartiles and spread ((q3-q1)/median) against its bound.
func steady(o options) error {
	names := []string{o.workload}
	if o.workload == "" || o.workload == "all" {
		names = nil
		for _, w := range workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	ok := true
	for _, name := range names {
		values := map[string][]float64{}
		for i := 0; i < o.steady; i++ {
			seed := o.seed + int64(i)
			cmd := exec.Command(self, "--workload", name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(o.seconds), "--trace", "0", "--agrsimd", o.agrsimd, "--workdir", o.workdir)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
			var res struct {
				Metrics map[string]struct{ Value float64 } `json:"metrics"`
			}
			if err := json.Unmarshal(lastLine(stdout.Bytes()), &res); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", name, seed, err)
			}
			for k, v := range res.Metrics {
				values[k] = append(values[k], v.Value)
			}
			fmt.Fprintf(os.Stderr, "steady: %s seed %d done\n", name, seed)
		}
		fmt.Printf("%s (%d runs, %gs each)\n", name, o.steady, o.seconds)
		fmt.Printf("  %-16s %12s %12s %12s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(values[d.Name])
			spread := ratio(q3-q1, q2)
			flagText := ""
			if spread > d.Bound/3 {
				flagText = "  above bound/3"
				ok = false
			}
			fmt.Printf("  %-16s %12.6g %12.6g %12.6g %8.4f %6.2f%s\n", d.Name, q1, q2, q3, spread, d.Bound, flagText)
		}
	}
	if !ok {
		return errors.New("some spreads are above a third of their bound")
	}
	return nil
}

func lastLine(b []byte) []byte {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return []byte(lines[len(lines)-1])
}
