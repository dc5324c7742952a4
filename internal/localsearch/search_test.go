package localsearch

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"meshplace/internal/geom"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

func testInstance(t *testing.T) *wmn.Instance {
	t.Helper()
	in, err := wmn.Generate(wmn.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func testEvaluator(t *testing.T, in *wmn.Instance) *wmn.Evaluator {
	t.Helper()
	eval, err := wmn.NewEvaluator(in, wmn.EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return eval
}

func randomSolution(in *wmn.Instance, seed uint64) wmn.Solution {
	r := rng.New(seed)
	sol := wmn.NewSolution(in.NumRouters())
	for i := range sol.Positions {
		sol.Positions[i] = geom.Pt(r.Float64()*in.Width, r.Float64()*in.Height)
	}
	return sol
}

func TestRandomMovementChangesOneRouter(t *testing.T) {
	in := testInstance(t)
	sol := randomSolution(in, 1)
	dst := wmn.NewSolution(in.NumRouters())
	r := rng.New(2)
	for trial := 0; trial < 50; trial++ {
		if !(RandomMovement{}).Propose(in, sol, dst, r) {
			t.Fatal("random movement failed to propose")
		}
		changed := 0
		for i := range sol.Positions {
			if sol.Positions[i] != dst.Positions[i] {
				changed++
			}
		}
		if changed != 1 {
			t.Fatalf("trial %d changed %d routers, want exactly 1", trial, changed)
		}
		if err := dst.Validate(in); err != nil {
			t.Fatalf("trial %d produced invalid neighbor: %v", trial, err)
		}
	}
}

func TestRandomMovementEmptySolution(t *testing.T) {
	in := testInstance(t)
	empty := wmn.Solution{}
	if (RandomMovement{}).Propose(in, empty, wmn.Solution{}, rng.New(1)) {
		t.Error("proposal on empty solution should fail")
	}
}

func TestSwapMovementPreservesRadiusMultiset(t *testing.T) {
	// The swap movement relocates and exchanges routers but never changes
	// which radii exist — positions form the same multiset of router ids.
	in := testInstance(t)
	sol := randomSolution(in, 3)
	dst := wmn.NewSolution(in.NumRouters())
	mv := NewSwapMovement()
	r := rng.New(4)
	for trial := 0; trial < 100; trial++ {
		if !mv.Propose(in, sol, dst, r) {
			continue
		}
		if err := dst.Validate(in); err != nil {
			t.Fatalf("trial %d invalid: %v", trial, err)
		}
		copy(sol.Positions, dst.Positions) // walk the chain
	}
}

func TestSwapMovementFaithfulModeSwapsPositions(t *testing.T) {
	// With VirtualSlotProb=0 a successful proposal must be a pure
	// two-router position exchange: the position multiset is unchanged.
	in := testInstance(t)
	sol := randomSolution(in, 5)
	dst := wmn.NewSolution(in.NumRouters())
	mv := &SwapMovement{VirtualSlotProb: 0}
	r := rng.New(6)
	proposals := 0
	for trial := 0; trial < 200 && proposals < 20; trial++ {
		if !mv.Propose(in, sol, dst, r) {
			continue
		}
		proposals++
		before := sortedPositions(sol)
		after := sortedPositions(dst)
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("faithful swap changed the position multiset at %d", i)
			}
		}
		changed := 0
		for i := range sol.Positions {
			if sol.Positions[i] != dst.Positions[i] {
				changed++
			}
		}
		if changed != 2 {
			t.Fatalf("faithful swap changed %d routers, want 2", changed)
		}
	}
	if proposals == 0 {
		t.Fatal("faithful swap never proposed")
	}
}

func sortedPositions(s wmn.Solution) []geom.Point {
	out := make([]geom.Point, len(s.Positions))
	copy(out, s.Positions)
	sort.Slice(out, func(i, j int) bool {
		if out[i].X != out[j].X {
			return out[i].X < out[j].X
		}
		return out[i].Y < out[j].Y
	})
	return out
}

func TestSwapMovementVirtualSlotRelocatesOneRouter(t *testing.T) {
	in := testInstance(t)
	sol := randomSolution(in, 7)
	dst := wmn.NewSolution(in.NumRouters())
	mv := &SwapMovement{VirtualSlotProb: 1} // always relocate
	r := rng.New(8)
	for trial := 0; trial < 50; trial++ {
		if !mv.Propose(in, sol, dst, r) {
			continue
		}
		changed := 0
		for i := range sol.Positions {
			if sol.Positions[i] != dst.Positions[i] {
				changed++
			}
		}
		if changed != 1 {
			t.Fatalf("virtual-slot proposal changed %d routers, want 1", changed)
		}
	}
}

func TestMixedMovementValidation(t *testing.T) {
	one := []Movement{RandomMovement{}}
	two := []Movement{RandomMovement{}, PerturbMovement{}}
	for _, tt := range []struct {
		name      string
		movements []Movement
		weights   []float64
	}{
		{"empty mixture", nil, nil},
		{"mismatched lengths", one, []float64{1, 2}},
		{"negative weight", one, []float64{-1}},
		{"zero-sum weights", one, []float64{0}},
		{"NaN weight", two, []float64{1, math.NaN()}},
		{"+Inf weight", two, []float64{math.Inf(1), 1}},
		{"-Inf weight", two, []float64{1, math.Inf(-1)}},
		{"overflowing sum", two, []float64{math.MaxFloat64, math.MaxFloat64}},
	} {
		if _, err := NewMixedMovement(tt.movements, tt.weights); err == nil {
			t.Errorf("%s accepted", tt.name)
		}
	}
	mv, err := NewMixedMovement([]Movement{RandomMovement{}, PerturbMovement{}}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if mv.Name() != "Mixed(Random+Perturb)" {
		t.Errorf("mixture name = %q", mv.Name())
	}
}

func TestPerturbMovementStaysLocal(t *testing.T) {
	in := testInstance(t)
	sol := randomSolution(in, 9)
	dst := wmn.NewSolution(in.NumRouters())
	mv := PerturbMovement{Sigma: 1}
	r := rng.New(10)
	for trial := 0; trial < 50; trial++ {
		if !mv.Propose(in, sol, dst, r) {
			t.Fatal("perturb failed to propose")
		}
		for i := range sol.Positions {
			if sol.Positions[i] == dst.Positions[i] {
				continue
			}
			if d := sol.Positions[i].Dist(dst.Positions[i]); d > 8 {
				t.Fatalf("perturb moved router %d by %g (sigma 1)", i, d)
			}
		}
	}
}

func TestSearchImprovesFitness(t *testing.T) {
	in := testInstance(t)
	eval := testEvaluator(t, in)
	initial := randomSolution(in, 11)
	initialMetrics := eval.MustEvaluate(initial)
	res, err := Search(eval, initial, Config{
		Movement:          NewSwapMovement(),
		MaxPhases:         15,
		NeighborsPerPhase: 16,
	}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMetrics.Fitness <= initialMetrics.Fitness {
		t.Errorf("search did not improve: %v -> %v", initialMetrics, res.BestMetrics)
	}
	if err := res.Best.Validate(in); err != nil {
		t.Errorf("best solution invalid: %v", err)
	}
}

func TestSearchDoesNotMutateInitial(t *testing.T) {
	in := testInstance(t)
	eval := testEvaluator(t, in)
	initial := randomSolution(in, 13)
	want := initial.Clone()
	if _, err := Search(eval, initial, Config{Movement: RandomMovement{}, MaxPhases: 5, NeighborsPerPhase: 8}, rng.New(14)); err != nil {
		t.Fatal(err)
	}
	for i := range initial.Positions {
		if initial.Positions[i] != want.Positions[i] {
			t.Fatal("Search mutated the initial solution")
		}
	}
}

func TestSearchTraceMonotoneBestSoFar(t *testing.T) {
	in := testInstance(t)
	eval := testEvaluator(t, in)
	res, err := Search(eval, randomSolution(in, 15), Config{
		Movement:          NewSwapMovement(),
		MaxPhases:         20,
		NeighborsPerPhase: 16,
		RecordTrace:       true,
	}, rng.New(16))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != res.Phases {
		t.Fatalf("trace has %d records for %d phases", len(res.Trace), res.Phases)
	}
	prev := -1.0
	for _, rec := range res.Trace {
		if rec.Metrics.Fitness < prev {
			t.Fatalf("current fitness decreased at phase %d (%g -> %g); search only accepts improvements",
				rec.Phase, prev, rec.Metrics.Fitness)
		}
		prev = rec.Metrics.Fitness
	}
}

func TestSearchStopOnNoImprove(t *testing.T) {
	in := testInstance(t)
	eval := testEvaluator(t, in)
	res, err := Search(eval, randomSolution(in, 17), Config{
		Movement:          RandomMovement{},
		MaxPhases:         1000,
		NeighborsPerPhase: 4,
		StopOnNoImprove:   true,
	}, rng.New(18))
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases == 1000 {
		t.Error("faithful Algorithm 1 never stopped on a non-improving phase")
	}
}

func TestSearchDeterministic(t *testing.T) {
	in := testInstance(t)
	eval := testEvaluator(t, in)
	run := func() wmn.Metrics {
		res, err := Search(eval, randomSolution(in, 19), Config{
			Movement:          NewSwapMovement(),
			MaxPhases:         10,
			NeighborsPerPhase: 8,
		}, rng.New(20))
		if err != nil {
			t.Fatal(err)
		}
		return res.BestMetrics
	}
	if a, b := run(), run(); a != b {
		t.Errorf("identical seeds diverged: %v vs %v", a, b)
	}
}

func TestSearchConfigValidation(t *testing.T) {
	in := testInstance(t)
	eval := testEvaluator(t, in)
	initial := randomSolution(in, 21)
	if _, err := Search(eval, initial, Config{}, rng.New(1)); err == nil {
		t.Error("config without movement accepted")
	}
	if _, err := Search(eval, initial, Config{Movement: RandomMovement{}, MaxPhases: -1}, rng.New(1)); err == nil {
		t.Error("negative phases accepted")
	}
	if _, err := Search(eval, wmn.NewSolution(3), Config{Movement: RandomMovement{}}, rng.New(1)); err == nil {
		t.Error("mismatched initial solution accepted")
	}
}

// TestSearchNeverWorsensProperty: for arbitrary seeds, the final best is at
// least the initial fitness.
func TestSearchNeverWorsensProperty(t *testing.T) {
	in := testInstance(t)
	eval := testEvaluator(t, in)
	f := func(seed uint64) bool {
		initial := randomSolution(in, seed)
		res, err := Search(eval, initial, Config{
			Movement:          RandomMovement{},
			MaxPhases:         5,
			NeighborsPerPhase: 8,
		}, rng.New(seed+1))
		if err != nil {
			return false
		}
		return res.BestMetrics.Fitness >= eval.MustEvaluate(initial).Fitness
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestSwapBeatsRandomOnBenchmark(t *testing.T) {
	// The qualitative claim of §5.2.2 at reduced scale.
	in := testInstance(t)
	eval := testEvaluator(t, in)
	initial := randomSolution(in, 23)
	runWith := func(mv Movement) int {
		res, err := Search(eval, initial, Config{
			Movement:          mv,
			MaxPhases:         25,
			NeighborsPerPhase: 32,
		}, rng.New(24))
		if err != nil {
			t.Fatal(err)
		}
		return res.BestMetrics.GiantSize
	}
	swap := runWith(NewSwapMovement())
	random := runWith(RandomMovement{})
	if swap <= random {
		t.Errorf("swap giant %d not above random giant %d after 25 phases", swap, random)
	}
}

func TestMixedMovementRespectsWeights(t *testing.T) {
	// A 3:1 mixture of Random (changes one router to a uniform position)
	// and Perturb (small nudge): classify proposals by displacement size
	// and check the mix ratio statistically.
	in := testInstance(t)
	sol := randomSolution(in, 40)
	dst := wmn.NewSolution(in.NumRouters())
	mv, err := NewMixedMovement(
		[]Movement{RandomMovement{}, PerturbMovement{Sigma: 0.1}},
		[]float64{3, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(41)
	big := 0
	const trials = 2000
	for i := 0; i < trials; i++ {
		if !mv.Propose(in, sol, dst, r) {
			t.Fatal("mixed movement failed to propose")
		}
		for j := range sol.Positions {
			if sol.Positions[j] != dst.Positions[j] {
				if sol.Positions[j].Dist(dst.Positions[j]) > 2 {
					big++
				}
				break
			}
		}
	}
	// Random relocations are "big" moves almost surely; expect ~3/4.
	frac := float64(big) / trials
	if frac < 0.68 || frac > 0.82 {
		t.Errorf("big-move fraction %.3f, want ≈0.75 for 3:1 weights", frac)
	}
}

func TestSearchEvaluationBudget(t *testing.T) {
	in := testInstance(t)
	eval := testEvaluator(t, in)
	cfg := Config{Movement: RandomMovement{}, MaxPhases: 7, NeighborsPerPhase: 11}
	res, err := Search(eval, randomSolution(in, 42), cfg, rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	if want := 7 * 11; res.Evaluations != want {
		t.Errorf("evaluations = %d, want %d", res.Evaluations, want)
	}
}
