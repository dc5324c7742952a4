package localsearch

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"testing"

	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// -update regenerates the golden walk digests. Run it only when a change
// to the drivers' output is intended, never to paper over a drift.
var update = flag.Bool("update", false, "rewrite the golden walk digests")

var goldenDigestsPath = filepath.Join("testdata", "walk_digests.json")

// walkHooks carries the live hooks a golden run wires into its driver.
type walkHooks struct {
	onPhase func(PhaseRecord)
	stop    func(evals int, best wmn.Metrics) bool
}

// goldenMovements builds a fresh movement per run: the swap movement and
// the flaky wrapper carry state across proposals. The flaky movement is not
// delta-aware, so it also covers the ProposeChanged diff fallback and the
// drivers' failed-proposal accounting.
var goldenMovements = []struct {
	name string
	new  func(t *testing.T) Movement
}{
	{"swap", func(*testing.T) Movement { return NewSwapMovement() }},
	{"random", func(*testing.T) Movement { return RandomMovement{} }},
	{"perturb", func(*testing.T) Movement { return PerturbMovement{} }},
	{"mixed", func(t *testing.T) Movement {
		mv, err := NewMixedMovement([]Movement{NewSwapMovement(), PerturbMovement{}}, []float64{1, 1})
		if err != nil {
			t.Fatal(err)
		}
		return mv
	}},
	{"flaky", func(*testing.T) Movement { return &flakyMovement{inner: RandomMovement{}} }},
}

// goldenDrivers covers each driver at settings no registry default
// reaches: StopOnNoImprove, one neighbor per phase, a small MaxNoImprove,
// TraceEvery of 1 and of more than Steps, tabu tenures 1 and 8, and runs
// with and without a trace.
var goldenDrivers = []struct {
	name string
	run  func(eval *wmn.Evaluator, initial wmn.Solution, mv Movement, h walkHooks, r *rng.Rand) (Result, error)
}{
	{"search/phases12-n6", func(eval *wmn.Evaluator, initial wmn.Solution, mv Movement, h walkHooks, r *rng.Rand) (Result, error) {
		return Search(eval, initial, Config{Movement: mv, MaxPhases: 12, NeighborsPerPhase: 6, RecordTrace: true, OnPhase: h.onPhase, Stop: h.stop}, r)
	}},
	{"search/stoponnoimprove", func(eval *wmn.Evaluator, initial wmn.Solution, mv Movement, h walkHooks, r *rng.Rand) (Result, error) {
		return Search(eval, initial, Config{Movement: mv, MaxPhases: 12, NeighborsPerPhase: 10, StopOnNoImprove: true, RecordTrace: true, OnPhase: h.onPhase, Stop: h.stop}, r)
	}},
	{"search/n1-notrace", func(eval *wmn.Evaluator, initial wmn.Solution, mv Movement, h walkHooks, r *rng.Rand) (Result, error) {
		return Search(eval, initial, Config{Movement: mv, MaxPhases: 40, NeighborsPerPhase: 1, OnPhase: h.onPhase, Stop: h.stop}, r)
	}},
	{"hillclimb/steps150", func(eval *wmn.Evaluator, initial wmn.Solution, mv Movement, h walkHooks, r *rng.Rand) (Result, error) {
		return HillClimb(eval, initial, HillClimbConfig{Movement: mv, MaxSteps: 150, RecordTrace: true, OnPhase: h.onPhase, Stop: h.stop}, r)
	}},
	{"hillclimb/noimprove30", func(eval *wmn.Evaluator, initial wmn.Solution, mv Movement, h walkHooks, r *rng.Rand) (Result, error) {
		return HillClimb(eval, initial, HillClimbConfig{Movement: mv, MaxSteps: 150, MaxNoImprove: 30, RecordTrace: true, OnPhase: h.onPhase, Stop: h.stop}, r)
	}},
	{"hillclimb/notrace", func(eval *wmn.Evaluator, initial wmn.Solution, mv Movement, h walkHooks, r *rng.Rand) (Result, error) {
		return HillClimb(eval, initial, HillClimbConfig{Movement: mv, MaxSteps: 60, MaxNoImprove: 20, OnPhase: h.onPhase, Stop: h.stop}, r)
	}},
	{"anneal/every1", func(eval *wmn.Evaluator, initial wmn.Solution, mv Movement, h walkHooks, r *rng.Rand) (Result, error) {
		return Anneal(eval, initial, AnnealConfig{Movement: mv, Steps: 150, TraceEvery: 1, RecordTrace: true, OnPhase: h.onPhase, Stop: h.stop}, r)
	}},
	{"anneal/every500", func(eval *wmn.Evaluator, initial wmn.Solution, mv Movement, h walkHooks, r *rng.Rand) (Result, error) {
		return Anneal(eval, initial, AnnealConfig{Movement: mv, Steps: 150, TraceEvery: 500, RecordTrace: true, OnPhase: h.onPhase, Stop: h.stop}, r)
	}},
	{"anneal/hot-every7", func(eval *wmn.Evaluator, initial wmn.Solution, mv Movement, h walkHooks, r *rng.Rand) (Result, error) {
		return Anneal(eval, initial, AnnealConfig{Movement: mv, Steps: 150, StartTemp: 0.5, EndTemp: 0.01, TraceEvery: 7, RecordTrace: true, OnPhase: h.onPhase, Stop: h.stop}, r)
	}},
	{"tabu/tenure1", func(eval *wmn.Evaluator, initial wmn.Solution, mv Movement, h walkHooks, r *rng.Rand) (Result, error) {
		return Tabu(eval, initial, TabuConfig{Movement: mv, MaxPhases: 12, NeighborsPerPhase: 6, Tenure: 1, RecordTrace: true, OnPhase: h.onPhase, Stop: h.stop}, r)
	}},
	{"tabu/tenure8", func(eval *wmn.Evaluator, initial wmn.Solution, mv Movement, h walkHooks, r *rng.Rand) (Result, error) {
		return Tabu(eval, initial, TabuConfig{Movement: mv, MaxPhases: 12, NeighborsPerPhase: 6, RecordTrace: true, OnPhase: h.onPhase, Stop: h.stop}, r)
	}},
	{"tabu/n1-notrace", func(eval *wmn.Evaluator, initial wmn.Solution, mv Movement, h walkHooks, r *rng.Rand) (Result, error) {
		return Tabu(eval, initial, TabuConfig{Movement: mv, MaxPhases: 40, NeighborsPerPhase: 1, Tenure: 2, OnPhase: h.onPhase, Stop: h.stop}, r)
	}},
}

// goldenStopAfter is the evaluation count at which the "stop" runs' Stop
// hook fires; every driver setting above runs past it unless its own
// stopping rule ends the walk first.
const goldenStopAfter = 25

// digest accumulates an FNV-64a hash over fixed-width encodings, so every
// bit of every float and the length of every sequence is pinned.
type digest struct{ h hash.Hash64 }

func (d digest) int(v int) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
	d.h.Write(b[:])
}

func (d digest) float(v float64) { d.int(int(math.Float64bits(v))) }

func (d digest) bool(v bool) {
	if v {
		d.int(1)
	} else {
		d.int(0)
	}
}

func (d digest) metrics(m wmn.Metrics) {
	d.int(m.GiantSize)
	d.int(m.Covered)
	d.int(m.Links)
	d.int(m.Components)
	d.float(m.Fitness)
}

func (d digest) records(recs []PhaseRecord) {
	d.bool(recs == nil)
	d.int(len(recs))
	for _, rec := range recs {
		d.int(rec.Phase)
		d.metrics(rec.Metrics)
		d.bool(rec.Accepted)
		d.bool(rec.Proposed)
	}
}

type stopCall struct {
	evals int
	best  wmn.Metrics
}

// walkDigest runs one (driver, movement, stop mode) cell and hashes the
// result together with the exact OnPhase and Stop argument sequences.
func walkDigest(t *testing.T, eval *wmn.Evaluator, initial wmn.Solution, driver int, movement int, withStop bool) string {
	t.Helper()
	var phases []PhaseRecord
	var stops []stopCall
	h := walkHooks{onPhase: func(rec PhaseRecord) { phases = append(phases, rec) }}
	if withStop {
		h.stop = func(evals int, best wmn.Metrics) bool {
			stops = append(stops, stopCall{evals, best})
			return evals >= goldenStopAfter
		}
	}
	res, err := goldenDrivers[driver].run(eval, initial, goldenMovements[movement].new(t), h, rng.New(uint64(1000+100*driver+10*movement)))
	if err != nil {
		t.Fatal(err)
	}
	d := digest{fnv.New64a()}
	d.int(len(res.Best.Positions))
	for _, p := range res.Best.Positions {
		d.float(p.X)
		d.float(p.Y)
	}
	d.metrics(res.BestMetrics)
	d.int(res.Phases)
	d.int(res.Evaluations)
	d.records(res.Trace)
	d.records(phases)
	d.int(len(stops))
	for _, s := range stops {
		d.int(s.evals)
		d.metrics(s.best)
	}
	return fmt.Sprintf("%016x", d.h.Sum64())
}

// TestWalkGoldenDigests pins the four drivers draw for draw across a grid
// of movements and settings: any change to which proposals are evaluated,
// which are accepted, what the trace and hooks see or when the walk stops
// shows up as a named digest drift.
func TestWalkGoldenDigests(t *testing.T) {
	in := testInstance(t)
	eval := testEvaluator(t, in)
	// A stack of routers on the area's corner makes empty-delta proposals
	// common: a perturb nudge clamped back onto the corner, or a swap of
	// two routers at the same point.
	initial := randomSolution(in, 77)
	for i := 0; i < 3; i++ {
		initial.Positions[i] = in.Area().Min
	}

	got := make(map[string]string)
	for di, drv := range goldenDrivers {
		for mi, mv := range goldenMovements {
			for _, withStop := range []bool{false, true} {
				name := drv.name + "/" + mv.name
				if withStop {
					name += "/stop"
				}
				got[name] = walkDigest(t, eval, initial, di, mi, withStop)
			}
		}
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigestsPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", goldenDigestsPath, len(got))
	}

	data, err := os.ReadFile(goldenDigestsPath)
	if err != nil {
		t.Fatalf("read golden digests (regenerate with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d digests, the grid has %d", len(want), len(got))
	}
	for name, sum := range want {
		if got[name] != sum {
			t.Errorf("%s: digest %s, golden %s", name, got[name], sum)
		}
	}
}
