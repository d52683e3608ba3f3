package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestGenerationIsSeeded(t *testing.T) {
	for _, gen := range []struct {
		name  string
		cells func(int64) any
	}{
		{"fig1", func(s int64) any { return fig1Cells(s) }},
		{"defended", func(s int64) any { return defendedCells(s) }},
		{"service", func(s int64) any {
			js := newJobStream(s)
			var jobs []serviceJob
			for k := 0; k < 120; k++ {
				jobs = append(jobs, js.job(k))
			}
			return jobs
		}},
	} {
		a, b := gen.cells(7), gen.cells(7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 generated two different inputs", gen.name)
		}
		if reflect.DeepEqual(a, gen.cells(8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", gen.name)
		}
	}
}

func TestSimGridsValidate(t *testing.T) {
	for _, c := range append(fig1Cells(1), defendedCells(1)...) {
		if err := c.Config.Validate(); err != nil {
			t.Errorf("%s: %v", c.Label, err)
		}
	}
	if err := canaryConfig(1).Validate(); err != nil {
		t.Errorf("canary: %v", err)
	}
}

// TestJobStreamShape checks the service mix: each block of the stream
// has jobBlock's composition, and every overlap or repost refers to an
// earlier job at least refGap back (a repost with that job's body).
func TestJobStreamShape(t *testing.T) {
	js := newJobStream(3)
	want := map[string]int{}
	for _, k := range jobBlock {
		want[k]++
	}
	const n = 10 * 20
	got := map[string]int{}
	for k := 0; k < n; k++ {
		j := js.job(k)
		got[j.Kind]++
		switch j.Kind {
		case kindRepost, kindOverlap:
			if j.Of < 0 || j.Of > k-refGap {
				t.Fatalf("job %d (%s) refers to job %d", k, j.Kind, j.Of)
			}
			ref := js.job(j.Of)
			if j.Kind == kindRepost && !bytes.Equal(j.Body, ref.Body) {
				t.Errorf("repost %d does not repeat job %d's body", k, j.Of)
			}
			if j.Kind == kindOverlap && ref.Kind != kindSweep {
				t.Errorf("overlap %d refers to a %s job", k, ref.Kind)
			}
		default:
			if j.Of != -1 {
				t.Errorf("fresh job %d refers to job %d", k, j.Of)
			}
		}
	}
	// Overlaps and reposts that find no target in the first block fall
	// back to fresh sweeps, so compare the mix with a little slack.
	for kind, per := range want {
		if d := got[kind] - per*n/len(jobBlock); d < -refGap || d > refGap {
			t.Errorf("%s: %d jobs in %d, want about %d", kind, got[kind], n, per*n/len(jobBlock))
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndUnits(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+ of at most 64", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %q: unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %q: better %q", d.Name, d.Better)
		}
	}
	var maxBound float64
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if d.Sim == "" || d.Service == "" {
			t.Errorf("%s: missing a per-workload definition", d.Name)
		}
		maxBound = math.Max(maxBound, d.Bound)
	}
	setup := endToEnd[1]
	if setup.Name != "setup_s" || setup.Unit != "s" || setup.Better != "lower" || setup.Bound != maxBound {
		t.Errorf("setup_s must be in seconds, lower-better, with the largest bound: %+v", setup)
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("%s: no end-to-end metric and workload it should move", d.Name)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric
// and workload tables in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []entry  `json:"workloads"`
		EndToEnd   []entry  `json:"end_to_end"`
		PerLayer   []entry  `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bj.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, program %+v", i, got, w)
		}
	}
	check := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s %d: BENCHMARK.json %s/%s/%s, program %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.Name, d.Unit, d.Better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s: bound in BENCHMARK.json differs from the program's %g", d.Name, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metrics have no bound", d.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	if !reflect.DeepEqual(bj.Paths, []string{"perfbench"}) {
		t.Errorf("paths = %v", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q2, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles = %g %g %g, want 1 2 4", q1, q2, q3)
	}
}

func TestModuleAttribution(t *testing.T) {
	for name, want := range map[string]string{
		"anongeo/internal/radio.(*Channel).transmit":        "radio",
		"anongeo/internal/routing/agfw.(*Router).onData":    "agfw",
		"anongeo/internal/routing.Packet.Clone":             "routing",
		"anongeo/internal/exp.(*Orchestrator[...]).runCell": "exp",
		"anongeo/internal/sim.(*Engine).Run.func1":          "sim",
		"runtime.mallocgc":                                  "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":      "runtime",
		"encoding/json.(*encodeState).marshal":              "other",
		"main.main":                                         "other",
		"type:.eq.anongeo/internal/geo.Point":               "other",
	} {
		if got := moduleOf(funcPackage(name)); got != want {
			t.Errorf("%s: module %q, want %q", name, got, want)
		}
	}
}

//go:noinline
func burn(d time.Duration) (x float64) {
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

var sink float64

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	sink = burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("no samples decoded")
	}
	found := false
	for _, s := range p.samples {
		for _, f := range s.funcs {
			if strings.HasSuffix(f, ".burn") {
				found = true
			}
		}
		if s.cpuNS <= 0 {
			t.Fatalf("sample with %d ns", s.cpuNS)
		}
	}
	if !found {
		t.Error("the burning function is on no sample's stack")
	}
	self, _ := p.shares()
	var total float64
	for _, v := range self {
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("self shares sum to %g", total)
	}
}
