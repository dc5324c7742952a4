package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"testing"
	"time"

	"meshplace/internal/scenarios"
	"meshplace/internal/server"
	"meshplace/internal/wmn"
)

func TestSupportedPercentilePicksHighestWithTenBeyond(t *testing.T) {
	cases := []struct {
		want float64
		n    int
		p    float64
		ok   bool
	}{
		{99, 1000, 99, true}, // rank 990, 10 beyond
		{99, 999, 98, true},  // p99 leaves 9 beyond
		{95, 200, 95, true},  // rank 190, 10 beyond
		{95, 199, 90, true},  // p95 leaves 9 beyond
		{99, 5000, 99, true}, // never above what was asked for
		{50, 20, 50, true},   // rank 10, 10 beyond
		{99, 19, 0, false},   // not even the median has support
		{99.9, 10000, 99.9, true},
	}
	for _, c := range cases {
		p, ok := supportedPercentile(c.want, c.n)
		if p != c.p || ok != c.ok {
			t.Errorf("supportedPercentile(%g, %d) = %g, %v; want %g, %v", c.want, c.n, p, ok, c.p, c.ok)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // unsorted on purpose
	}
	if v, p, ok := tailPercentile(xs, 99); v != 990 || p != 99 || !ok {
		t.Errorf("tailPercentile(1..1000, 99) = %g at p%g (%v), want 990 at p99", v, p, ok)
	}
	if v, p, _ := tailPercentile(xs[:999], 99); p != 98 || v == 0 {
		t.Errorf("tailPercentile over 999 samples used p%g, want p98", p)
	}
}

func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const interval = 2 * time.Millisecond
	const stall = 60 * time.Millisecond
	due := make([]time.Duration, 12)
	for i := range due {
		due[i] = time.Duration(i) * interval
	}
	timings := openLoop(now(), due, 1, func(i int) {
		if i == 2 {
			sleepUntil(now().Add(stall)) // the handler stalls once
		}
	})
	if lat := timings[1].latency(); lat > stall/2 {
		t.Fatalf("request 1 before the stall took %v", lat)
	}
	// Request 3 was due 2ms after the stalled one was sent; it could only
	// go out when the stall ended, and that wait is its latency.
	for i := 3; i < 6; i++ {
		want := stall - time.Duration(i-2)*interval
		if lat := timings[i].latency(); lat < want-5*time.Millisecond {
			t.Errorf("request %d latency %v, want at least ~%v charged from its due time", i, lat, want)
		}
		if timings[i].lateness() <= 0 {
			t.Errorf("request %d was not sent late (lateness %v)", i, timings[i].lateness())
		}
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := span{Start: 0, End: 100}
	children := []span{
		{Start: 10, End: 30},
		{Start: 20, End: 50}, // overlaps the first: union 10..50
		{Start: 60, End: 70},
		{Start: 95, End: 120},                   // clipped to the parent: 95..100
		{Start: 72, End: 90, Count: 3, Busy: 5}, // aggregate: counts its busy time
		{Start: 200, End: 300},                  // outside the parent
	}
	// 100 − (40 + 10 + 5) − 5 = 40
	if got := selfTime(parent, children); got != 40 {
		t.Fatalf("selfTime = %d, want 40", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Fatalf("selfTime without children = %d, want 100", got)
	}
}

func TestSameSeedSameSolveStream(t *testing.T) {
	a, err := buildSolveInputs("search-swap", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildSolveInputs("search-swap", 7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := buildSolveInputs("search-swap", 8)
	if err != nil {
		t.Fatal(err)
	}
	key := func(in *solveInputs) []string {
		var out []string
		for _, t := range in.epoch {
			out = append(out, in.hashes[t.inst]+"|"+t.spec.String()+"|"+strconv.FormatUint(t.seed, 10))
		}
		return out
	}
	if !reflect.DeepEqual(key(a), key(b)) {
		t.Fatal("the same seed gave two different triple streams")
	}
	if reflect.DeepEqual(key(a), key(c)) {
		t.Fatal("different seeds gave the same triple stream")
	}
	if len(a.epoch) != 14*9 {
		t.Fatalf("search-swap epoch has %d triples, want 14 instances × 9", len(a.epoch))
	}
}

func TestSameSeedSameRequestSequence(t *testing.T) {
	var instances []*wmn.Instance
	for _, sc := range scenarios.Filter(scenarios.Corpus(5), serveScales...) {
		in, err := wmn.Generate(sc.Gen)
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, in)
	}
	draw := func(seed uint64) ([]serveRequest, [][]byte) {
		g, err := newServeGen(seed, instances)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := g.schedule(400, serveRate)
		if err != nil {
			t.Fatal(err)
		}
		return reqs, g.bodies
	}
	r1, b1 := draw(5)
	r2, b2 := draw(5)
	if !reflect.DeepEqual(r1, r2) || !reflect.DeepEqual(b1, b2) {
		t.Fatal("the same seed gave two different request sequences")
	}
	if r3, _ := draw(6); reflect.DeepEqual(r1, r3) {
		t.Fatal("different seeds gave the same request sequence")
	}
	pairs := 0
	for i := 1; i < len(r1); i++ {
		if r1[i].due == r1[i-1].due {
			pairs++
			if r1[i].triple != r1[i-1].triple || r1[i].target == r1[i-1].target {
				t.Fatalf("requests %d and %d share a due time but are not a fresh pair sent to both front doors", i-1, i)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no dedup pairs in 400 slots")
	}
}

// TestTracedDriversMatchRegistry pins the traced pass to the program it
// measures: for every spec of both solve workloads, the driver run with
// the benchmark's wrappers and hooks returns what the registry returns.
func TestTracedDriversMatchRegistry(t *testing.T) {
	sc := scenarios.Filter(scenarios.Corpus(3), "base")[2]
	inst, err := wmn.Generate(sc.Gen)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := wmn.NewEvaluator(inst, wmn.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hash := wmn.HashInstance(inst)
	for _, wl := range []string{"search-swap", "evolve-perturb"} {
		for _, m := range solveMixes[wl] {
			spec, err := server.ParseSpec(m.spec)
			if err != nil {
				t.Fatal(err)
			}
			sv, err := server.NewSolver(spec)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := sv.(server.TracedSolver).SolveTraced(context.Background(), eval, 11, nil)
			if err != nil {
				t.Fatal(err)
			}
			st := &solveTrace{tr: newTracer(), item: 1, root: 1}
			sol, fit, evals, err := tracedDriver(st, eval, triple{spec: spec, seed: 11})
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			want := fingerprint(spec, 11, hash, rep.Solution, rep.Metrics.Fitness, rep.Evaluations)
			if got := fingerprint(spec, 11, hash, sol, fit, evals); got != want {
				t.Errorf("%s: traced driver fingerprint %s, registry %s", spec, got, want)
			}
			if len(st.tr.named("placement.place")) == 0 {
				t.Errorf("%s: no placement span recorded", spec)
			}
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric lists the binary
// reports and the ones BENCHMARK.json declares identical.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the binary %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), binary %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s has no runner", w.Name)
		}
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json lists workloads %v; the binary has %d", names, len(workloads))
	}
}
