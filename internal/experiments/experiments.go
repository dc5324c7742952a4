// Package experiments reproduces the paper's evaluation (§5): Tables 1–3
// (ad hoc methods stand-alone and as GA initializers, one table per client
// distribution), Figures 1–3 (evolution of the giant component under the
// GA, one figure per distribution) and Figure 4 (neighborhood search, swap
// vs random movement).
//
// A Study bundles one distribution's table and figure, because both come
// from the same seven GA runs. Runners embed the paper's reported values so
// rendered output shows paper-vs-measured side by side, and every run is
// deterministic in the configured seed.
package experiments

import (
	"fmt"
	"sort"

	"meshplace/internal/dist"
	"meshplace/internal/ga"
	"meshplace/internal/localsearch"
	"meshplace/internal/placement"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// Config parameterizes every experiment runner. The zero value is not
// runnable; start from Default or Quick.
type Config struct {
	// Gen describes the benchmark instance. The client distribution field
	// is overridden per experiment.
	Gen wmn.GenConfig
	// Eval configures the objective (link model, coverage rule, weights).
	Eval wmn.EvalOptions
	// Placement configures the ad hoc methods.
	Placement placement.Options
	// GA configures the evolutionary runs of Tables 1–3 / Figures 1–3.
	GA ga.Config
	// SearchPhases and SearchNeighbors configure Figure 4's neighborhood
	// search (the paper plots phases 1..61).
	SearchPhases    int
	SearchNeighbors int
	// Reps is the number of repetitions per measurement; tables and
	// figures report the median repetition (by final giant component).
	// The paper reports single runs; medians make the reproduced shapes
	// stable across seeds. Default (0) means 1.
	Reps int
	// Seed drives all randomness. Sub-streams are derived per experiment,
	// per method and per repetition, so runs are reproducible and
	// order-independent.
	Seed uint64
	// Parallel fans the independent (method × repetition) runs across a
	// worker pool. Determinism is preserved because every run draws from
	// its own derived stream and results are merged by run index, so
	// output is byte-identical regardless of worker count.
	Parallel bool
	// Workers bounds the worker pool when Parallel is set. 0 selects one
	// worker per available CPU (runtime.GOMAXPROCS).
	Workers int
}

// Default returns the full paper-scale configuration: the 128×128 instance
// with 64 routers and 192 clients, 800 GA generations, 61 search phases.
func Default() Config {
	return Config{
		Gen:             wmn.DefaultGenConfig(),
		GA:              ga.DefaultConfig(),
		SearchPhases:    61,
		SearchNeighbors: 16,
		Reps:            3,
		Seed:            1,
		Parallel:        true,
	}
}

// Quick returns a reduced configuration for tests and smoke benches:
// same instance, 60 GA generations, 20 search phases. The qualitative
// shapes (orderings) already emerge at this scale; absolute values do not.
func Quick() Config {
	cfg := Default()
	cfg.GA.Generations = 60
	cfg.GA.RecordEvery = 5
	cfg.SearchPhases = 20
	cfg.Reps = 1
	return cfg
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if err := c.Gen.Validate(); err != nil {
		return err
	}
	if err := c.GA.Validate(); err != nil {
		return err
	}
	if err := c.Placement.Validate(); err != nil {
		return err
	}
	if c.SearchPhases < 1 {
		return fmt.Errorf("experiments: SearchPhases %d < 1", c.SearchPhases)
	}
	if c.SearchNeighbors < 1 {
		return fmt.Errorf("experiments: SearchNeighbors %d < 1", c.SearchNeighbors)
	}
	if c.Reps < 0 {
		return fmt.Errorf("experiments: Reps %d < 0", c.Reps)
	}
	if c.Workers < 0 {
		return fmt.Errorf("experiments: Workers %d < 0", c.Workers)
	}
	return nil
}

// StudyID names one of the three distribution studies.
type StudyID string

// The three studies of §5.2.1 and their paper artifacts.
const (
	StudyNormal      StudyID = "normal"      // Table 1, Figure 1
	StudyExponential StudyID = "exponential" // Table 2, Figure 2
	StudyWeibull     StudyID = "weibull"     // Table 3, Figure 3
)

// StudyIDs returns the studies in paper order.
func StudyIDs() []StudyID {
	return []StudyID{StudyNormal, StudyExponential, StudyWeibull}
}

// DistributionFor returns the client distribution each study uses on the
// 128×128 benchmark area. Table 1's caption fixes Normal(μ=64, σ=128/10);
// the Exponential and Weibull parameters are not reported by the paper and
// are calibrated to produce comparable hotspot layouts.
func DistributionFor(id StudyID) (dist.Spec, error) {
	switch id {
	case StudyNormal:
		return dist.NormalSpec(64, 64, 12.8), nil
	case StudyExponential:
		return dist.ExponentialSpec(32), nil
	case StudyWeibull:
		return dist.WeibullSpec(1.8, 36), nil
	default:
		return dist.Spec{}, fmt.Errorf("experiments: unknown study %q", id)
	}
}

// MethodResult holds everything measured for one ad hoc method within a
// study: the stand-alone placement metrics and the GA run it initialized.
type MethodResult struct {
	Method     placement.Method `json:"method"`
	StandAlone wmn.Metrics      `json:"standAlone"`
	GABest     wmn.Metrics      `json:"gaBest"`
	GAHistory  []ga.GenRecord   `json:"gaHistory"`
}

// Study is the complete result of one distribution's experiment: the data
// behind one table and one figure.
type Study struct {
	ID       StudyID        `json:"id"`
	Dist     dist.Spec      `json:"dist"`
	Instance *wmn.Instance  `json:"-"`
	Results  []MethodResult `json:"results"`
}

// RunStudy executes the seven stand-alone placements and seven GA runs for
// one distribution.
func RunStudy(id StudyID, cfg Config) (*Study, error) {
	studies, err := RunStudies([]StudyID{id}, cfg)
	if err != nil {
		return nil, err
	}
	return studies[0], nil
}

// RunStudies executes several distribution studies over one shared worker
// pool: every (study × method × repetition) triple is an independent unit
// of work fanned across cfg's workers, so `experiment all` saturates the
// pool instead of draining it between studies. Each unit derives the same
// rng stream RunStudy would give it and results are merged by run index,
// so every returned study is byte-identical to its stand-alone RunStudy at
// any worker count.
func RunStudies(ids []StudyID, cfg Config) ([]*Study, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Per-study setup (instance generation, evaluator, placers) is cheap
	// and runs sequentially; only the runs fan out.
	type prepared struct {
		id      StudyID
		spec    dist.Spec
		in      *wmn.Instance
		eval    *wmn.Evaluator
		placers []placement.Placer
		offset  int // first run index of this study in the flat run slice
	}
	reps := cfg.Reps
	if reps == 0 {
		reps = 1
	}
	preps := make([]prepared, len(ids))
	total := 0
	for si, id := range ids {
		spec, err := DistributionFor(id)
		if err != nil {
			return nil, err
		}
		gen := cfg.Gen
		gen.ClientDist = spec
		gen.Name = fmt.Sprintf("%s-%s", gen.Name, id)
		in, err := wmn.Generate(gen)
		if err != nil {
			return nil, err
		}
		eval, err := wmn.NewEvaluator(in, cfg.Eval)
		if err != nil {
			return nil, err
		}
		// Placers are per study: some carry per-instance scratch state.
		placers, err := placement.All(cfg.Placement)
		if err != nil {
			return nil, err
		}
		preps[si] = prepared{id: id, spec: spec, in: in, eval: eval, placers: placers, offset: total}
		total += len(placers) * reps
	}

	// Every (study × method × repetition) triple is an independent unit of
	// work: stand-alone placement plus the GA run it initializes, each
	// drawing from its own derived rng stream keyed by study, method and
	// repetition. The pool fans the units across workers and the merge
	// below reads them back by run index, so each study is identical for
	// any worker count and any batching of studies.
	type methodRun struct {
		stand wmn.Metrics
		ga    ga.Result
	}
	runs := make([]methodRun, total)
	err := ForEachIndexed(total, cfg.workerCount(), func(t int) error {
		si := len(preps) - 1
		for preps[si].offset > t {
			si--
		}
		pr := preps[si]
		local := t - pr.offset
		slot, rep := local/reps, local%reps
		p := pr.placers[slot]
		label := fmt.Sprintf("%s/%s", pr.id, p.Method())

		sol, err := p.Place(pr.in, rng.DeriveString(cfg.Seed, fmt.Sprintf("%s/standalone/%d", label, rep)))
		if err != nil {
			return fmt.Errorf("experiments: %s stand-alone: %w", label, err)
		}
		stand, err := pr.eval.Evaluate(sol)
		if err != nil {
			return fmt.Errorf("experiments: %s stand-alone: %w", label, err)
		}

		gaRes, err := ga.Run(pr.eval, ga.PlacerInitializer{Placer: p}, cfg.GA,
			rng.DeriveString(cfg.Seed, fmt.Sprintf("%s/ga/%d", label, rep)))
		if err != nil {
			return fmt.Errorf("experiments: %s GA: %w", label, err)
		}
		runs[t] = methodRun{stand: stand, ga: gaRes}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Merge: per method, the median repetition by giant component — the
	// GA's history becomes the figure series.
	studies := make([]*Study, len(preps))
	for si, pr := range preps {
		study := &Study{ID: pr.id, Dist: pr.spec, Instance: pr.in, Results: make([]MethodResult, len(pr.placers))}
		for slot, p := range pr.placers {
			standRuns := make([]wmn.Metrics, reps)
			gaRuns := make([]ga.Result, reps)
			for rep := 0; rep < reps; rep++ {
				standRuns[rep] = runs[pr.offset+slot*reps+rep].stand
				gaRuns[rep] = runs[pr.offset+slot*reps+rep].ga
			}
			medianGA := medianBy(gaRuns, func(r ga.Result) int { return r.BestMetrics.GiantSize })
			study.Results[slot] = MethodResult{
				Method:     p.Method(),
				StandAlone: medianBy(standRuns, func(m wmn.Metrics) int { return m.GiantSize }),
				GABest:     medianGA.BestMetrics,
				GAHistory:  medianGA.History,
			}
		}
		studies[si] = study
	}
	return studies, nil
}

// SearchComparison is the data behind Figure 4: the giant-component
// trajectory of the neighborhood search per movement type.
type SearchComparison struct {
	Dist   dist.Spec                            `json:"dist"`
	Traces map[string][]localsearch.PhaseRecord `json:"traces"`
	Order  []string                             `json:"order"`
}

// RunSearchComparison executes the Figure 4 experiment: from one shared
// Random initial placement on the Normal-distribution instance, run the
// neighborhood search once with the swap movement and once with the random
// movement, recording the giant component per phase.
func RunSearchComparison(cfg Config) (*SearchComparison, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec, err := DistributionFor(StudyNormal)
	if err != nil {
		return nil, err
	}
	gen := cfg.Gen
	gen.ClientDist = spec
	gen.Name = fmt.Sprintf("%s-fig4", gen.Name)
	in, err := wmn.Generate(gen)
	if err != nil {
		return nil, err
	}
	eval, err := wmn.NewEvaluator(in, cfg.Eval)
	if err != nil {
		return nil, err
	}
	randomPlacer, err := placement.New(placement.Random, cfg.Placement)
	if err != nil {
		return nil, err
	}
	initial, err := randomPlacer.Place(in, rng.DeriveString(cfg.Seed, "fig4/initial"))
	if err != nil {
		return nil, err
	}

	reps := cfg.Reps
	if reps == 0 {
		reps = 1
	}
	movements := []func() localsearch.Movement{
		func() localsearch.Movement { return localsearch.RandomMovement{} },
		func() localsearch.Movement { return localsearch.NewSwapMovement() },
	}

	// Every (movement × repetition) search is independent — each task
	// builds its own Movement value (movements may carry scratch state)
	// and derives its own rng stream — so the pool can fan them out and
	// the merge below reads them back by run index.
	runs := make([]localsearch.Result, len(movements)*reps)
	err = ForEachIndexed(len(runs), cfg.workerCount(), func(t int) error {
		mi, rep := t/reps, t%reps
		mv := movements[mi]()
		res, err := localsearch.Search(eval, initial, localsearch.Config{
			Movement:          mv,
			MaxPhases:         cfg.SearchPhases,
			NeighborsPerPhase: cfg.SearchNeighbors,
			RecordTrace:       true,
		}, rng.DeriveString(cfg.Seed, fmt.Sprintf("fig4/%s/%d", mv.Name(), rep)))
		if err != nil {
			return fmt.Errorf("experiments: fig4 %s: %w", mv.Name(), err)
		}
		runs[t] = res
		return nil
	})
	if err != nil {
		return nil, err
	}

	cmp := &SearchComparison{
		Dist:   spec,
		Traces: make(map[string][]localsearch.PhaseRecord, len(movements)),
	}
	for mi, newMovement := range movements {
		name := newMovement().Name()
		median := medianBy(runs[mi*reps:(mi+1)*reps], func(r localsearch.Result) int { return r.BestMetrics.GiantSize })
		cmp.Traces[name] = median.Trace
		cmp.Order = append(cmp.Order, name)
	}
	return cmp, nil
}

// medianBy returns the element whose key is the median of the slice's keys
// (lower median for even lengths). The slice must be non-empty.
func medianBy[T any](items []T, key func(T) int) T {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return key(items[order[a]]) < key(items[order[b]]) })
	return items[order[(len(items)-1)/2]]
}
