// Package ga implements the generational genetic algorithm the paper uses
// to study ad hoc methods as population initializers (§5). A chromosome is
// a vector of router positions (the router radii are fixed by the
// instance); fitness is the weighted connectivity/coverage scalar of the
// wmn evaluator.
//
// The study's central observation — that the initializing method's quality
// and diversity decide how far the GA gets — is reproduced by keeping the
// operators deliberately standard: tournament (or roulette) selection,
// uniform (or one-point or rectangular-region) position crossover, per-gene
// uniform-reset (or Gaussian) mutation, and a small elite.
package ga

import (
	"errors"
	"fmt"
	"sort"

	"meshplace/internal/geom"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// SelectionKind selects the parent-selection operator.
type SelectionKind int

// Supported selection operators.
const (
	Tournament SelectionKind = iota + 1
	Roulette
)

// String implements fmt.Stringer.
func (k SelectionKind) String() string {
	switch k {
	case Tournament:
		return "tournament"
	case Roulette:
		return "roulette"
	default:
		return fmt.Sprintf("SelectionKind(%d)", int(k))
	}
}

// CrossoverKind selects the recombination operator.
type CrossoverKind int

// Supported crossover operators.
const (
	// UniformCrossover takes each router position from a uniformly random
	// parent.
	UniformCrossover CrossoverKind = iota + 1
	// OnePointCrossover splits the router index range at a random point.
	OnePointCrossover
	// RegionCrossover exchanges the routers inside a random rectangle of
	// the area: the child inherits parent A's routers inside the
	// rectangle and parent B's outside. A spatial operator that respects
	// placement locality.
	RegionCrossover
)

// String implements fmt.Stringer.
func (k CrossoverKind) String() string {
	switch k {
	case UniformCrossover:
		return "uniform"
	case OnePointCrossover:
		return "one-point"
	case RegionCrossover:
		return "region"
	default:
		return fmt.Sprintf("CrossoverKind(%d)", int(k))
	}
}

// MutationKind selects the mutation operator.
type MutationKind int

// Supported mutation operators.
const (
	// ResetMutation re-draws a mutated position uniformly over the area.
	ResetMutation MutationKind = iota + 1
	// GaussianMutation perturbs a mutated position with Gaussian noise
	// (sigma = Config.MutationSigma), clamped to the area.
	GaussianMutation
)

// String implements fmt.Stringer.
func (k MutationKind) String() string {
	switch k {
	case ResetMutation:
		return "reset"
	case GaussianMutation:
		return "gaussian"
	default:
		return fmt.Sprintf("MutationKind(%d)", int(k))
	}
}

// Config holds the GA parameters. Zero fields take the defaults listed on
// each field; DefaultConfig returns the configuration used by the paper
// experiments (population 64, 800 generations, recorded every 5 to match
// the figures' x-axis).
type Config struct {
	// PopSize is the population size. Default 64.
	PopSize int
	// Generations is the number of generations to run. Default 800.
	Generations int
	// CrossoverRate is the probability a child is produced by crossover
	// rather than cloning a parent. Default 0.8.
	CrossoverRate float64
	// MutationRate is the per-gene mutation probability. Default 0.005.
	MutationRate float64
	// MutationSigma is the Gaussian mutation spread. Default 1.
	MutationSigma float64
	// TournamentK is the tournament size. Default 3.
	TournamentK int
	// Elitism is the number of top individuals copied unchanged into the
	// next generation. Default 2.
	Elitism int
	// Selection, Crossover, Mutation choose the operators. Defaults:
	// Tournament, UniformCrossover, GaussianMutation. Gaussian mutation
	// only perturbs positions locally, which keeps the search bound to the
	// genetic material the initializer provided — the property the paper's
	// initializer study hinges on (§5: population diversity "is a crucial
	// factor to avoid premature convergence"). ResetMutation keeps
	// injecting uniform positions and washes the initializers out; the
	// operator ablation bench quantifies the difference.
	Selection SelectionKind
	Crossover CrossoverKind
	Mutation  MutationKind
	// RecordEvery records a history point every that many generations
	// (plus the final generation). Default 5.
	RecordEvery int
	// OnGeneration, when non-nil, is called at the same cadence history
	// records are taken (every RecordEvery generations plus the final one)
	// with the generation number and the best metrics so far — the hook
	// live progress consumers (the serving layer's SSE streams) attach to.
	// It runs on the evolving goroutine; slow consumers must buffer, not
	// block. Under RunIslands every island shares this Config, so the hook
	// fires concurrently from every island's goroutine — use
	// IslandConfig.OnBarrier for serialized, monotonic progress instead.
	// It does not touch any RNG stream, so wiring it never perturbs the
	// run's results.
	OnGeneration func(gen int, best wmn.Metrics)
	// Stop, when non-nil, is consulted after every generation with the
	// run's cumulative evaluation count and best metrics so far. Returning
	// true ends the run at that generation: the incumbent best is returned
	// as a normal result, never an error. Deadline-bounded serving and the
	// portfolio meta-solver drive cancellation and evaluation budgets
	// through this hook; it draws from no random stream, so a run that is
	// never stopped is byte-identical to one without the hook. Under
	// RunIslands the hook is not consulted per island generation — the
	// coordinator clears it and consults it at migration barriers instead,
	// with evaluations summed across islands.
	Stop func(evals int, best wmn.Metrics) bool
}

// DefaultConfig returns the configuration the paper-scale experiments run:
// population 64, 800 generations, tournament selection (k=3), uniform
// crossover at rate 0.8, Gaussian mutation (rate 0.005, sigma 1) and two
// elites.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.PopSize == 0 {
		c.PopSize = 64
	}
	if c.Generations == 0 {
		c.Generations = 800
	}
	if c.CrossoverRate == 0 {
		c.CrossoverRate = 0.8
	}
	if c.MutationRate == 0 {
		c.MutationRate = 0.005
	}
	if c.MutationSigma == 0 {
		c.MutationSigma = 1
	}
	if c.TournamentK == 0 {
		c.TournamentK = 3
	}
	if c.Elitism == 0 {
		c.Elitism = 2
	}
	if c.Selection == 0 {
		c.Selection = Tournament
	}
	if c.Crossover == 0 {
		c.Crossover = UniformCrossover
	}
	if c.Mutation == 0 {
		c.Mutation = GaussianMutation
	}
	if c.RecordEvery == 0 {
		c.RecordEvery = 5
	}
	return c
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.PopSize < 2 {
		return fmt.Errorf("ga: population size %d < 2", c.PopSize)
	}
	if c.Generations < 1 {
		return fmt.Errorf("ga: generations %d < 1", c.Generations)
	}
	if c.CrossoverRate < 0 || c.CrossoverRate > 1 {
		return fmt.Errorf("ga: crossover rate %g outside [0,1]", c.CrossoverRate)
	}
	if c.MutationRate < 0 || c.MutationRate > 1 {
		return fmt.Errorf("ga: mutation rate %g outside [0,1]", c.MutationRate)
	}
	if c.TournamentK < 1 {
		return fmt.Errorf("ga: tournament size %d < 1", c.TournamentK)
	}
	if c.Elitism < 0 || c.Elitism >= c.PopSize {
		return fmt.Errorf("ga: elitism %d outside [0,%d)", c.Elitism, c.PopSize)
	}
	if c.RecordEvery < 1 {
		return fmt.Errorf("ga: record interval %d < 1", c.RecordEvery)
	}
	return nil
}

// Initializer produces the initial population. The paper's experiment
// plugs each ad hoc placement method in here.
type Initializer interface {
	// InitPopulation returns popSize solutions for the instance.
	InitPopulation(in *wmn.Instance, popSize int, r *rng.Rand) ([]wmn.Solution, error)
}

// InitializerFunc adapts a function to the Initializer interface.
type InitializerFunc func(in *wmn.Instance, popSize int, r *rng.Rand) ([]wmn.Solution, error)

// InitPopulation implements Initializer.
func (f InitializerFunc) InitPopulation(in *wmn.Instance, popSize int, r *rng.Rand) ([]wmn.Solution, error) {
	return f(in, popSize, r)
}

// GenRecord is one point of the evolution history.
type GenRecord struct {
	Generation  int     `json:"generation"`
	BestFitness float64 `json:"bestFitness"`
	// BestGiant is the largest giant component reached by any
	// generation's best individual so far; it is monotone by
	// construction, matching the non-decreasing curves of the paper's
	// Figures 1–3.
	BestGiant   int     `json:"bestGiant"`
	BestCovered int     `json:"bestCovered"`
	MeanFitness float64 `json:"meanFitness"`
}

// Result is the outcome of a GA run.
type Result struct {
	Best        wmn.Solution
	BestMetrics wmn.Metrics
	// History holds records at Config.RecordEvery intervals; the last
	// entry is always the final generation.
	History []GenRecord
	// Evaluations counts fitness evaluations across the run.
	Evaluations int
}

type individual struct {
	sol     wmn.Solution
	metrics wmn.Metrics
}

// Run executes the GA on the instance behind eval, with the initial
// population drawn from init.
func Run(eval *wmn.Evaluator, init Initializer, cfg Config, r *rng.Rand) (Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if init == nil {
		return Result{}, errors.New("ga: nil initializer")
	}
	ru, err := newRun(eval, init, cfg, r)
	if err != nil {
		return Result{}, err
	}
	ru.evolve(1, cfg.Generations)
	return ru.res, nil
}

// run is the GA engine behind Run and RunIslands: the population state of
// one evolving stream, advanced in generation chunks so the island model
// can pause every population at a migration barrier, exchange individuals
// and resume — with exactly the RNG draws a straight Run would make.
type run struct {
	cfg       Config
	in        *wmn.Instance
	inc       *wmn.IncrementalEvaluator
	r         *rng.Rand
	pop, next []individual
	bestGiant int
	// stopped latches Config.Stop returning true: further evolve calls are
	// no-ops and the incumbent res stands.
	stopped bool
	res     Result
}

// newRun draws and scores the initial population. cfg must already be
// validated with defaults applied.
func newRun(eval *wmn.Evaluator, init Initializer, cfg Config, r *rng.Rand) (*run, error) {
	in := eval.Instance()
	sols, err := init.InitPopulation(in, cfg.PopSize, r)
	if err != nil {
		return nil, fmt.Errorf("ga: init population: %w", err)
	}
	if len(sols) != cfg.PopSize {
		return nil, fmt.Errorf("ga: initializer produced %d individuals, want %d", len(sols), cfg.PopSize)
	}

	ru := &run{cfg: cfg, in: in, r: r, pop: make([]individual, cfg.PopSize)}
	for i, s := range sols {
		if err := s.Validate(in); err != nil {
			return nil, fmt.Errorf("ga: initial individual %d: %w", i, err)
		}
		ru.pop[i] = individual{sol: s, metrics: eval.MustEvaluate(s)}
		ru.res.Evaluations++
	}
	// Offspring are scored on the incremental path: the evaluator rebases
	// from child to child, paying only for the genes that differ. Random
	// early populations rebase almost everything; as the population
	// converges the diffs — and the evaluation cost — shrink.
	inc, err := wmn.NewIncrementalEvaluator(eval, ru.pop[0].sol)
	if err != nil {
		return nil, fmt.Errorf("ga: incremental evaluator: %w", err)
	}
	ru.inc = inc
	sortByFitness(ru.pop)
	ru.res.Best = ru.pop[0].sol.Clone()
	ru.res.BestMetrics = ru.pop[0].metrics
	ru.bestGiant = ru.pop[0].metrics.GiantSize

	ru.next = make([]individual, cfg.PopSize)
	for i := range ru.next {
		ru.next[i].sol = wmn.NewSolution(in.NumRouters())
	}
	return ru, nil
}

// evolve advances the population from generation `from` through `to`
// (inclusive). History records land every cfg.RecordEvery generations plus
// at cfg.Generations — the run's final generation, not the chunk's — so
// chunked evolution records exactly what one evolve(1, Generations) would.
func (ru *run) evolve(from, to int) {
	if ru.stopped {
		return
	}
	cfg, r := ru.cfg, ru.r
	for gen := from; gen <= to; gen++ {
		// Elites survive unchanged.
		for e := 0; e < cfg.Elitism; e++ {
			copy(ru.next[e].sol.Positions, ru.pop[e].sol.Positions)
			ru.next[e].metrics = ru.pop[e].metrics
		}
		// Offspring fill the rest.
		for i := cfg.Elitism; i < cfg.PopSize; i++ {
			child := ru.next[i].sol
			a := selectParent(ru.pop, cfg, r)
			if r.Float64() < cfg.CrossoverRate {
				b := selectParent(ru.pop, cfg, r)
				crossover(ru.in, a.sol, b.sol, child, cfg, r)
			} else {
				copy(child.Positions, a.sol.Positions)
			}
			mutate(ru.in, child, cfg, r)
			ru.next[i].metrics = ru.inc.Rebase(child)
			ru.res.Evaluations++
		}
		ru.pop, ru.next = ru.next, ru.pop
		sortByFitness(ru.pop)

		if ru.pop[0].metrics.Fitness > ru.res.BestMetrics.Fitness {
			ru.res.Best = ru.pop[0].sol.Clone()
			ru.res.BestMetrics = ru.pop[0].metrics
		}
		if ru.pop[0].metrics.GiantSize > ru.bestGiant {
			ru.bestGiant = ru.pop[0].metrics.GiantSize
		}
		if gen%cfg.RecordEvery == 0 || gen == cfg.Generations {
			ru.res.History = append(ru.res.History, record(gen, ru.pop, ru.res.BestMetrics, ru.bestGiant))
			if cfg.OnGeneration != nil {
				cfg.OnGeneration(gen, ru.res.BestMetrics)
			}
		}
		if cfg.Stop != nil && cfg.Stop(ru.res.Evaluations, ru.res.BestMetrics) {
			ru.stopped = true
			return
		}
	}
}

func record(gen int, pop []individual, best wmn.Metrics, bestGiant int) GenRecord {
	mean := 0.0
	for _, ind := range pop {
		mean += ind.metrics.Fitness
	}
	mean /= float64(len(pop))
	return GenRecord{
		Generation:  gen,
		BestFitness: best.Fitness,
		BestGiant:   bestGiant,
		BestCovered: best.Covered,
		MeanFitness: mean,
	}
}

// sortByFitness orders descending by fitness; ties break by giant size then
// coverage so ordering is deterministic for equal fitness.
func sortByFitness(pop []individual) {
	sort.SliceStable(pop, func(i, j int) bool {
		a, b := pop[i].metrics, pop[j].metrics
		if a.Fitness != b.Fitness {
			return a.Fitness > b.Fitness
		}
		return wmn.BetterLex(a, b)
	})
}

func selectParent(pop []individual, cfg Config, r *rng.Rand) individual {
	switch cfg.Selection {
	case Roulette:
		return rouletteSelect(pop, r)
	default:
		return tournamentSelect(pop, cfg.TournamentK, r)
	}
}

func tournamentSelect(pop []individual, k int, r *rng.Rand) individual {
	best := pop[r.IntN(len(pop))]
	for i := 1; i < k; i++ {
		cand := pop[r.IntN(len(pop))]
		if cand.metrics.Fitness > best.metrics.Fitness {
			best = cand
		}
	}
	return best
}

func rouletteSelect(pop []individual, r *rng.Rand) individual {
	total := 0.0
	for _, ind := range pop {
		total += ind.metrics.Fitness
	}
	if total <= 0 {
		return pop[r.IntN(len(pop))]
	}
	pick := r.Float64() * total
	for _, ind := range pop {
		pick -= ind.metrics.Fitness
		if pick <= 0 {
			return ind
		}
	}
	return pop[len(pop)-1]
}

func crossover(in *wmn.Instance, a, b, child wmn.Solution, cfg Config, r *rng.Rand) {
	n := len(child.Positions)
	switch cfg.Crossover {
	case OnePointCrossover:
		cut := r.IntN(n + 1)
		copy(child.Positions[:cut], a.Positions[:cut])
		copy(child.Positions[cut:], b.Positions[cut:])
	case RegionCrossover:
		area := in.Area()
		p1 := geom.Pt(area.Min.X+r.Float64()*area.Width(), area.Min.Y+r.Float64()*area.Height())
		p2 := geom.Pt(area.Min.X+r.Float64()*area.Width(), area.Min.Y+r.Float64()*area.Height())
		region := geom.NewRect(p1, p2)
		for i := 0; i < n; i++ {
			if region.Contains(a.Positions[i]) {
				child.Positions[i] = a.Positions[i]
			} else {
				child.Positions[i] = b.Positions[i]
			}
		}
	default: // UniformCrossover
		for i := 0; i < n; i++ {
			if r.Float64() < 0.5 {
				child.Positions[i] = a.Positions[i]
			} else {
				child.Positions[i] = b.Positions[i]
			}
		}
	}
}

func mutate(in *wmn.Instance, child wmn.Solution, cfg Config, r *rng.Rand) {
	area := in.Area()
	for i := range child.Positions {
		if r.Float64() >= cfg.MutationRate {
			continue
		}
		switch cfg.Mutation {
		case GaussianMutation:
			child.Positions[i] = area.Clamp(geom.Point{
				X: child.Positions[i].X + r.NormFloat64()*cfg.MutationSigma,
				Y: child.Positions[i].Y + r.NormFloat64()*cfg.MutationSigma,
			})
		default: // ResetMutation
			child.Positions[i] = geom.Point{
				X: area.Min.X + r.Float64()*area.Width(),
				Y: area.Min.Y + r.Float64()*area.Height(),
			}
		}
	}
}
