package localsearch

import (
	"fmt"

	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// walk is the one propose→evaluate→accept loop behind Search, HillClimb,
// Anneal and Tabu. Each step draws up to neighbors proposals from the
// movement, evaluates them on an IncrementalEvaluator and lets the
// acceptance rule decide which one, if any, replaces the incumbent. The
// fields are the only ways the drivers differ, and each of them decides
// output bytes: a new strategy is a new set of fields, not a new loop.
type walk struct {
	movement Movement
	// steps is the step budget (phases, for the best-of-N rules).
	steps int
	// neighbors is the number of proposals per step. With more than one,
	// every neighbor is reverted after evaluation and the winner is
	// re-applied once. A lone proposal is decided while it is applied, so
	// an accepted move stays applied and costs one Apply.
	neighbors int
	// every is the trace and OnPhase cadence in steps; stop is consulted
	// after every step regardless.
	every int
	// skipEmpty drops empty-delta proposals without evaluating or
	// counting them; they still mark the step as proposed.
	skipEmpty bool
	// admit reports whether an evaluated neighbor may compete for the
	// step; nil admits every neighbor.
	admit func(changed []int, m, best wmn.Metrics, step int) bool
	// accept reports whether the step's best admitted neighbor replaces
	// the incumbent. It runs only for an evaluated neighbor, may draw from
	// the walk's stream and may record the move.
	accept func(changed []int, m, cur wmn.Metrics, step int) bool
	// endStep runs after each step's hooks with whether the step moved;
	// returning true ends the walk. nil never ends it early.
	endStep func(accepted bool) bool

	recordTrace bool
	onPhase     func(PhaseRecord)
	stop        func(evals int, best wmn.Metrics) bool
}

// improves accepts a neighbor that is strictly fitter than the incumbent:
// the rule of Algorithm 1 and of first-improvement hill climbing.
func improves(_ []int, m, cur wmn.Metrics, _ int) bool { return m.Fitness > cur.Fitness }

// run walks from initial and returns the best solution seen. It draws
// only what the movement and the rule draw from r.
func (w walk) run(eval *wmn.Evaluator, initial wmn.Solution, r *rng.Rand) (Result, error) {
	in := eval.Instance()
	if err := initial.Validate(in); err != nil {
		return Result{}, fmt.Errorf("localsearch: initial solution: %w", err)
	}
	cur := initial.Clone()
	inc, err := wmn.NewIncrementalEvaluator(eval, cur)
	if err != nil {
		return Result{}, fmt.Errorf("localsearch: %w", err)
	}
	curMetrics := inc.Metrics()
	res := Result{Best: cur.Clone(), BestMetrics: curMetrics}
	scratch := wmn.NewSolution(len(cur.Positions))
	winner := wmn.NewSolution(len(cur.Positions))
	var changed, winChanged []int

	for step := 1; step <= w.steps; step++ {
		proposed, found, accepted := false, false, false
		var win wmn.Metrics
		for k := 0; k < w.neighbors; k++ {
			var ok bool
			if changed, ok = ProposeChanged(w.movement, in, cur, scratch, r, changed); !ok {
				continue
			}
			proposed = true
			if w.skipEmpty && len(changed) == 0 {
				continue
			}
			m := inc.Apply(changed, scratch)
			res.Evaluations++
			admitted := w.admit == nil || w.admit(changed, m, res.BestMetrics, step)
			if w.neighbors == 1 {
				if accepted = admitted && w.accept(changed, m, curMetrics, step); accepted {
					copy(cur.Positions, scratch.Positions)
					curMetrics = m
				} else {
					inc.Revert()
				}
				continue
			}
			inc.Revert()
			if admitted && (!found || m.Fitness > win.Fitness) {
				found, win = true, m
				winChanged = append(winChanged[:0], changed...)
				copy(winner.Positions, scratch.Positions)
			}
		}
		if found && w.accept(winChanged, win, curMetrics, step) {
			inc.Apply(winChanged, winner)
			copy(cur.Positions, winner.Positions)
			curMetrics, accepted = win, true
		}
		if accepted && curMetrics.Fitness > res.BestMetrics.Fitness {
			res.Best = cur.Clone()
			res.BestMetrics = curMetrics
		}

		res.Phases = step
		if step%w.every == 0 {
			rec := PhaseRecord{Phase: step, Metrics: curMetrics, Accepted: accepted, Proposed: proposed}
			if w.recordTrace {
				res.Trace = append(res.Trace, rec)
			}
			if w.onPhase != nil {
				w.onPhase(rec)
			}
		}
		if w.stop != nil && w.stop(res.Evaluations, res.BestMetrics) {
			break
		}
		if w.endStep != nil && w.endStep(accepted) {
			break
		}
	}
	return res, nil
}
