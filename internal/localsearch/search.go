package localsearch

import (
	"errors"
	"fmt"

	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// Config drives the neighborhood search of Algorithms 1 and 2.
type Config struct {
	// Movement defines the neighborhood structure (Algorithm 1, step 3).
	Movement Movement
	// MaxPhases bounds the outer repeat loop. Default 64 (Figure 4 plots
	// phases 1..61).
	MaxPhases int
	// NeighborsPerPhase is the "pre-fixed number of movements" Algorithm 2
	// generates and examines per phase. Default 32.
	NeighborsPerPhase int
	// StopOnNoImprove reproduces Algorithm 1 literally: the search returns
	// as soon as the best neighbor does not improve the current solution.
	// When false (the default, used for Figure 4), non-improving phases
	// keep the current solution and the search continues until MaxPhases,
	// which lets slow movements (Random) keep trying.
	StopOnNoImprove bool
	// RecordTrace captures per-phase metrics for figure generation.
	RecordTrace bool
	// OnPhase, when non-nil, receives the same per-phase record a trace
	// would collect, as the search runs — the hook live progress consumers
	// (the serving layer's SSE streams) attach to. It is called from the
	// search goroutine; slow consumers must buffer, not block.
	OnPhase func(PhaseRecord)
	// Stop, when non-nil, is consulted after every phase with the
	// cumulative evaluation count and the best metrics so far. Returning
	// true ends the search at that phase boundary: the incumbent best is
	// returned as a normal result, never an error. Deadline-bounded
	// serving and the portfolio meta-solver drive cancellation and
	// evaluation budgets through this hook; it draws from no random
	// stream, so a run that is never stopped is byte-identical to one
	// without the hook.
	Stop func(evals int, best wmn.Metrics) bool
}

func (c Config) withDefaults() Config {
	if c.MaxPhases == 0 {
		c.MaxPhases = 64
	}
	if c.NeighborsPerPhase == 0 {
		c.NeighborsPerPhase = 32
	}
	return c
}

// Validate rejects unusable configs.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Movement == nil {
		return errors.New("localsearch: config has no movement")
	}
	if c.MaxPhases < 1 {
		return fmt.Errorf("localsearch: MaxPhases %d < 1", c.MaxPhases)
	}
	if c.NeighborsPerPhase < 1 {
		return fmt.Errorf("localsearch: NeighborsPerPhase %d < 1", c.NeighborsPerPhase)
	}
	return nil
}

// PhaseRecord is one point of a search trace: the solution quality after
// the given phase of neighborhood exploration.
type PhaseRecord struct {
	Phase   int         `json:"phase"`
	Metrics wmn.Metrics `json:"metrics"`
	// Accepted reports whether the phase's winning proposal actually
	// replaced the current solution (improvement for Search/HillClimb,
	// Metropolis acceptance for Anneal, best non-tabu neighbor for Tabu).
	Accepted bool `json:"accepted"`
	// Proposed reports whether the phase generated at least one neighbor;
	// it distinguishes a rejected proposal from a step where the movement
	// could not propose at all.
	Proposed bool `json:"proposed"`
}

// Result is the outcome of a search run.
type Result struct {
	// Best is the best solution found, with its metrics.
	Best        wmn.Solution
	BestMetrics wmn.Metrics
	// Phases is the number of phases executed.
	Phases int
	// Evaluations counts fitness evaluations (neighbors examined).
	Evaluations int
	// Trace holds one record per phase when Config.RecordTrace is set.
	Trace []PhaseRecord
}

// Search runs the neighborhood search of Algorithm 1 from the initial
// solution: per phase it generates Config.NeighborsPerPhase movements,
// evaluates each resulting neighbor (Algorithm 2), and moves to the best
// neighbor when it improves the current fitness.
func Search(eval *wmn.Evaluator, initial wmn.Solution, cfg Config, r *rng.Rand) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return walk{
		movement:    cfg.Movement,
		steps:       cfg.MaxPhases,
		neighbors:   cfg.NeighborsPerPhase,
		every:       1,
		accept:      improves,
		endStep:     func(accepted bool) bool { return cfg.StopOnNoImprove && !accepted },
		recordTrace: cfg.RecordTrace,
		onPhase:     cfg.OnPhase,
		stop:        cfg.Stop,
	}.run(eval, initial, r)
}
