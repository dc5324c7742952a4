package localsearch

import (
	"testing"

	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// flakyMovement fails every other proposal and is deliberately NOT
// delta-aware, so it exercises the ProposeChanged diff fallback and the
// drivers' no-proposal accounting.
type flakyMovement struct {
	inner Movement
	calls int
}

func (f *flakyMovement) Name() string { return "Flaky(" + f.inner.Name() + ")" }

func (f *flakyMovement) Propose(in *wmn.Instance, sol, dst wmn.Solution, r *rng.Rand) bool {
	f.calls++
	if f.calls%2 == 1 {
		return false
	}
	return f.inner.Propose(in, sol, dst, r)
}

// changedRouters is the reference positions diff the delta paths are
// checked against.
func changedRouters(a, b wmn.Solution) []int {
	var out []int
	for i := range a.Positions {
		if a.Positions[i] != b.Positions[i] {
			out = append(out, i)
		}
	}
	return out
}

// TestProposeDeltaMatchesPropose pins the DeltaMovement contract for every
// movement in the package: same random draws, same neighbor, and a changed
// set identical to the full positions diff.
func TestProposeDeltaMatchesPropose(t *testing.T) {
	in := testInstance(t)
	movements := []Movement{
		RandomMovement{},
		NewSwapMovement(),
		&SwapMovement{VirtualSlotProb: 0},
		&SwapMovement{VirtualSlotProb: 1},
		PerturbMovement{Sigma: 1},
		mustMixed(t),
	}
	for _, mv := range movements {
		t.Run(mv.Name(), func(t *testing.T) {
			dm, ok := mv.(DeltaMovement)
			if !ok {
				t.Fatalf("%s does not implement DeltaMovement", mv.Name())
			}
			sol := randomSolution(in, 51)
			dstDelta := wmn.NewSolution(in.NumRouters())
			dstPlain := wmn.NewSolution(in.NumRouters())
			// Two identically seeded streams: the entry points must consume
			// the same draws, or seeded runs would depend on the driver.
			rDelta, rPlain := rng.New(52), rng.New(52)
			var buf []int
			for trial := 0; trial < 200; trial++ {
				var okDelta bool
				buf, okDelta = dm.ProposeDelta(in, sol, dstDelta, rDelta, buf)
				okPlain := mv.Propose(in, sol, dstPlain, rPlain)
				if okDelta != okPlain {
					t.Fatalf("trial %d: ProposeDelta ok=%v, Propose ok=%v", trial, okDelta, okPlain)
				}
				if !okDelta {
					continue
				}
				want := changedRouters(sol, dstDelta)
				if len(buf) != len(want) {
					t.Fatalf("trial %d: delta %v, diff %v", trial, buf, want)
				}
				for i := range want {
					if buf[i] != want[i] {
						t.Fatalf("trial %d: delta %v, diff %v", trial, buf, want)
					}
				}
				for i := range dstDelta.Positions {
					if dstDelta.Positions[i] != dstPlain.Positions[i] {
						t.Fatalf("trial %d: entry points produced different neighbors at router %d", trial, i)
					}
				}
				copy(sol.Positions, dstDelta.Positions) // walk the chain
			}
		})
	}
}

func mustMixed(t *testing.T) Movement {
	t.Helper()
	mv, err := NewMixedMovement([]Movement{RandomMovement{}, PerturbMovement{Sigma: 1}}, []float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	return mv
}

// TestProposeChangedFallbackDiff drives the non-delta-aware fallback and
// checks it reports the same changed sets as the movement's own delta.
func TestProposeChangedFallbackDiff(t *testing.T) {
	in := testInstance(t)
	sol := randomSolution(in, 53)
	dst := wmn.NewSolution(in.NumRouters())
	flaky := &flakyMovement{inner: RandomMovement{}}
	r := rng.New(54)
	var buf []int
	fails, successes := 0, 0
	for trial := 0; trial < 100; trial++ {
		var ok bool
		buf, ok = ProposeChanged(flaky, in, sol, dst, r, buf)
		if !ok {
			fails++
			continue
		}
		successes++
		want := changedRouters(sol, dst)
		if len(buf) != len(want) {
			t.Fatalf("trial %d: fallback delta %v, diff %v", trial, buf, want)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("trial %d: fallback delta %v, diff %v", trial, buf, want)
			}
		}
	}
	if fails == 0 || successes == 0 {
		t.Fatalf("flaky movement produced %d failures / %d successes, want both", fails, successes)
	}
}

// TestHillClimbCountsFailedProposalSteps is the regression test for the
// Phases under-reporting bug: steps whose movement failed to propose now
// count toward Result.Phases and appear in the trace as Proposed: false,
// matching Search and Anneal accounting.
func TestHillClimbCountsFailedProposalSteps(t *testing.T) {
	in := testInstance(t)
	eval := testEvaluator(t, in)
	res, err := HillClimb(eval, randomSolution(in, 55), HillClimbConfig{
		Movement:     &flakyMovement{inner: RandomMovement{}},
		MaxSteps:     40,
		MaxNoImprove: 10000, // never the stopping reason here
		RecordTrace:  true,
	}, rng.New(56))
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases != 40 {
		t.Errorf("Phases = %d, want 40: failed-proposal steps must count", res.Phases)
	}
	if len(res.Trace) != res.Phases {
		t.Errorf("trace has %d records for %d phases", len(res.Trace), res.Phases)
	}
	noProposal := 0
	for _, rec := range res.Trace {
		if !rec.Proposed {
			noProposal++
			if rec.Accepted {
				t.Errorf("phase %d: accepted without a proposal", rec.Phase)
			}
		}
	}
	// The flaky movement fails every odd call: exactly half the steps.
	if noProposal != 20 {
		t.Errorf("%d no-proposal trace records, want 20", noProposal)
	}
}

// TestAnnealTraceRecordsRealAcceptance is the regression test for the trace
// bug that recorded Accepted: true unconditionally: rejected steps must
// show Accepted: false with the current metrics unchanged, and no-proposal
// steps must show Proposed: false.
func TestAnnealTraceRecordsRealAcceptance(t *testing.T) {
	in := testInstance(t)
	eval := testEvaluator(t, in)
	res, err := Anneal(eval, randomSolution(in, 57), AnnealConfig{
		Movement: &flakyMovement{inner: RandomMovement{}},
		Steps:    300,
		// Freezing cold from the start: worse neighbors are essentially
		// never accepted, so rejections are guaranteed.
		StartTemp:   1e-9,
		EndTemp:     1e-10,
		RecordTrace: true,
		TraceEvery:  1,
	}, rng.New(58))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 300 {
		t.Fatalf("trace has %d records, want 300", len(res.Trace))
	}
	accepted, rejected, noProposal := 0, 0, 0
	prev := res.Trace[0].Metrics
	for i, rec := range res.Trace {
		switch {
		case !rec.Proposed:
			noProposal++
			if rec.Accepted {
				t.Fatalf("step %d: accepted without a proposal", rec.Phase)
			}
		case rec.Accepted:
			accepted++
		default:
			rejected++
		}
		if i > 0 && !rec.Accepted && rec.Metrics != prev {
			t.Fatalf("step %d: metrics changed on a non-accepted step: %v -> %v", rec.Phase, prev, rec.Metrics)
		}
		prev = rec.Metrics
	}
	if rejected == 0 {
		t.Error("no rejected steps recorded — the old bug marked every record accepted")
	}
	if noProposal == 0 {
		t.Error("no no-proposal steps recorded despite the flaky movement")
	}
	if accepted == 0 {
		t.Error("no accepted steps recorded in 300 steps")
	}
}

// TestDriversConsistentWithFullEvaluator re-scores every driver's best
// solution with the full evaluator: the incremental hot path must hand back
// metrics the oracle agrees with.
func TestDriversConsistentWithFullEvaluator(t *testing.T) {
	in := testInstance(t)
	eval := testEvaluator(t, in)
	initial := randomSolution(in, 59)
	check := func(name string, res Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := eval.MustEvaluate(res.Best); got != res.BestMetrics {
			t.Errorf("%s: best metrics %v, full evaluator says %v", name, res.BestMetrics, got)
		}
	}
	res, err := Search(eval, initial, Config{Movement: NewSwapMovement(), MaxPhases: 8, NeighborsPerPhase: 8}, rng.New(60))
	check("Search", res, err)
	res, err = HillClimb(eval, initial, HillClimbConfig{Movement: NewSwapMovement(), MaxSteps: 200}, rng.New(61))
	check("HillClimb", res, err)
	res, err = Anneal(eval, initial, AnnealConfig{Movement: NewSwapMovement(), Steps: 200}, rng.New(62))
	check("Anneal", res, err)
	res, err = Tabu(eval, initial, TabuConfig{Movement: NewSwapMovement(), MaxPhases: 8, NeighborsPerPhase: 8}, rng.New(63))
	check("Tabu", res, err)
}
