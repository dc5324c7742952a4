package localsearch

import (
	"errors"
	"fmt"
	"math"

	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// This file carries the paper's stated future work (§6: "We are currently
// implementing full featured local search methods for the mesh router nodes
// placement"): a first-improvement hill climber, simulated annealing and
// tabu search, all built on the same Movement abstraction as the
// neighborhood search of §4.

// HillClimbConfig drives HillClimb.
type HillClimbConfig struct {
	Movement Movement
	// MaxSteps bounds the number of accepted or rejected proposals.
	// Default 2048.
	MaxSteps int
	// MaxNoImprove stops the climb after this many consecutive rejected
	// proposals. Default 256.
	MaxNoImprove int
	RecordTrace  bool
	// OnPhase, when non-nil, receives each step's record live (see
	// Config.OnPhase).
	OnPhase func(PhaseRecord)
	// Stop, when non-nil, is consulted after every step; returning true
	// ends the climb there with the incumbent best (see Config.Stop).
	Stop func(evals int, best wmn.Metrics) bool
}

func (c HillClimbConfig) withDefaults() HillClimbConfig {
	if c.MaxSteps == 0 {
		c.MaxSteps = 2048
	}
	if c.MaxNoImprove == 0 {
		c.MaxNoImprove = 256
	}
	return c
}

// Validate rejects unusable configs. Zero fields are valid (they select
// the documented defaults); negative bounds are not.
func (c HillClimbConfig) Validate() error {
	c = c.withDefaults()
	if c.Movement == nil {
		return errors.New("localsearch: hill climb has no movement")
	}
	if c.MaxSteps < 1 {
		return fmt.Errorf("localsearch: MaxSteps %d < 1", c.MaxSteps)
	}
	if c.MaxNoImprove < 1 {
		return fmt.Errorf("localsearch: MaxNoImprove %d < 1", c.MaxNoImprove)
	}
	return nil
}

// HillClimb runs a first-improvement hill climber: each proposal is
// accepted immediately when it improves fitness, which trades the
// best-neighbor scan of Algorithm 2 for many cheap steps.
func HillClimb(eval *wmn.Evaluator, initial wmn.Solution, cfg HillClimbConfig, r *rng.Rand) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	noImprove := 0
	return walk{
		movement:  cfg.Movement,
		steps:     cfg.MaxSteps,
		neighbors: 1,
		every:     1,
		accept:    improves,
		// A step whose movement failed to propose counts toward
		// MaxNoImprove like a rejected one.
		endStep: func(accepted bool) bool {
			if accepted {
				noImprove = 0
			} else {
				noImprove++
			}
			return noImprove >= cfg.MaxNoImprove
		},
		recordTrace: cfg.RecordTrace,
		onPhase:     cfg.OnPhase,
		stop:        cfg.Stop,
	}.run(eval, initial, r)
}

// AnnealConfig drives Anneal.
type AnnealConfig struct {
	Movement Movement
	// Steps is the total number of proposals. Default 4096.
	Steps int
	// StartTemp and EndTemp bound the geometric cooling schedule, in
	// fitness units. Defaults 0.05 and 0.0005 (fitness spans [0,1]).
	StartTemp, EndTemp float64
	RecordTrace        bool
	// TraceEvery records a trace point every that many steps. Default 64.
	TraceEvery int
	// OnPhase, when non-nil, receives a record at TraceEvery cadence live
	// (see Config.OnPhase).
	OnPhase func(PhaseRecord)
	// Stop, when non-nil, is consulted after every step (not just at
	// TraceEvery cadence); returning true ends the anneal there with the
	// incumbent best (see Config.Stop).
	Stop func(evals int, best wmn.Metrics) bool
}

func (c AnnealConfig) withDefaults() AnnealConfig {
	if c.Steps == 0 {
		c.Steps = 4096
	}
	if c.StartTemp == 0 {
		c.StartTemp = 0.05
	}
	if c.EndTemp == 0 {
		c.EndTemp = 0.0005
	}
	if c.TraceEvery == 0 {
		c.TraceEvery = 64
	}
	return c
}

// Validate rejects unusable configs. Zero fields are valid (they select
// the documented defaults); negative or inverted parameters are not.
func (c AnnealConfig) Validate() error {
	c = c.withDefaults()
	if c.Movement == nil {
		return errors.New("localsearch: anneal has no movement")
	}
	if c.Steps < 1 {
		return fmt.Errorf("localsearch: Steps %d < 1", c.Steps)
	}
	// Stated as what must hold, so a NaN temperature fails it; the +Inf
	// check on StartTemp bounds EndTemp too.
	if !(c.EndTemp > 0 && c.EndTemp <= c.StartTemp) || math.IsInf(c.StartTemp, 1) {
		return fmt.Errorf("localsearch: invalid temperature range [%g,%g]", c.EndTemp, c.StartTemp)
	}
	if c.TraceEvery < 1 {
		return fmt.Errorf("localsearch: TraceEvery %d < 1", c.TraceEvery)
	}
	return nil
}

// Anneal runs simulated annealing: worse neighbors are accepted with
// probability exp(Δf/T) under a geometric cooling schedule from StartTemp
// to EndTemp.
func Anneal(eval *wmn.Evaluator, initial wmn.Solution, cfg AnnealConfig, r *rng.Rand) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	cooling := math.Pow(cfg.EndTemp/cfg.StartTemp, 1/float64(cfg.Steps))
	temp := cfg.StartTemp
	return walk{
		movement:  cfg.Movement,
		steps:     cfg.Steps,
		neighbors: 1,
		every:     cfg.TraceEvery,
		// The Metropolis test draws from r only for a worsening neighbor.
		accept: func(_ []int, m, cur wmn.Metrics, _ int) bool {
			delta := m.Fitness - cur.Fitness
			return delta >= 0 || r.Float64() < math.Exp(delta/temp)
		},
		endStep: func(bool) bool {
			temp *= cooling
			return false
		},
		recordTrace: cfg.RecordTrace,
		onPhase:     cfg.OnPhase,
		stop:        cfg.Stop,
	}.run(eval, initial, r)
}

// TabuConfig drives Tabu.
type TabuConfig struct {
	Movement Movement
	// MaxPhases and NeighborsPerPhase mirror the neighborhood search
	// (best-neighbor per phase). Defaults 64 and 32.
	MaxPhases         int
	NeighborsPerPhase int
	// Tenure is the number of phases a changed router stays tabu.
	// Default 8.
	Tenure      int
	RecordTrace bool
	// OnPhase, when non-nil, receives each phase's record live (see
	// Config.OnPhase).
	OnPhase func(PhaseRecord)
	// Stop, when non-nil, is consulted after every phase; returning true
	// ends the search there with the incumbent best (see Config.Stop).
	Stop func(evals int, best wmn.Metrics) bool
}

func (c TabuConfig) withDefaults() TabuConfig {
	if c.MaxPhases == 0 {
		c.MaxPhases = 64
	}
	if c.NeighborsPerPhase == 0 {
		c.NeighborsPerPhase = 32
	}
	if c.Tenure == 0 {
		c.Tenure = 8
	}
	return c
}

// Validate rejects unusable configs. Zero fields are valid (they select
// the documented defaults); negative parameters are not.
func (c TabuConfig) Validate() error {
	c = c.withDefaults()
	if c.Movement == nil {
		return errors.New("localsearch: tabu has no movement")
	}
	if c.MaxPhases < 1 {
		return fmt.Errorf("localsearch: MaxPhases %d < 1", c.MaxPhases)
	}
	if c.NeighborsPerPhase < 1 {
		return fmt.Errorf("localsearch: NeighborsPerPhase %d < 1", c.NeighborsPerPhase)
	}
	if c.Tenure < 1 {
		return fmt.Errorf("localsearch: Tenure %d < 1", c.Tenure)
	}
	return nil
}

// Tabu runs a tabu search: per phase the best non-tabu neighbor is accepted
// even when it worsens fitness (escaping local optima), routers changed by
// an accepted move become tabu for Tenure phases, and a tabu move is still
// allowed when it beats the best solution seen (aspiration).
func Tabu(eval *wmn.Evaluator, initial wmn.Solution, cfg TabuConfig, r *rng.Rand) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	tabuUntil := make([]int, len(initial.Positions))
	return walk{
		movement:  cfg.Movement,
		steps:     cfg.MaxPhases,
		neighbors: cfg.NeighborsPerPhase,
		every:     1,
		skipEmpty: true,
		admit: func(changed []int, m, best wmn.Metrics, step int) bool {
			return !(isTabu(changed, tabuUntil, step) && m.Fitness <= best.Fitness)
		},
		// The best admitted neighbor is taken even when it is worse; the
		// routers it moves become tabu.
		accept: func(changed []int, _, _ wmn.Metrics, step int) bool {
			for _, i := range changed {
				tabuUntil[i] = step + cfg.Tenure
			}
			return true
		},
		recordTrace: cfg.RecordTrace,
		onPhase:     cfg.OnPhase,
		stop:        cfg.Stop,
	}.run(eval, initial, r)
}

func isTabu(changed []int, tabuUntil []int, phase int) bool {
	for _, i := range changed {
		if tabuUntil[i] >= phase {
			return true
		}
	}
	return false
}
