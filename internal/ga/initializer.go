package ga

import (
	"fmt"

	"meshplace/internal/placement"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// PlacerInitializer seeds a GA population from an ad hoc placement method:
// every individual is an independent run of the placer, so the population
// inherits both the method's pattern and its internal randomness — exactly
// the §5 experiment ("ad hoc methods are used for generating the initial
// population of GA").
type PlacerInitializer struct {
	Placer placement.Placer
}

var _ Initializer = PlacerInitializer{}

// NewPlacerInitializer builds the initializer for a placement method.
func NewPlacerInitializer(m placement.Method, opts placement.Options) (PlacerInitializer, error) {
	p, err := placement.New(m, opts)
	if err != nil {
		return PlacerInitializer{}, err
	}
	return PlacerInitializer{Placer: p}, nil
}

// InitPopulation implements Initializer.
func (pi PlacerInitializer) InitPopulation(in *wmn.Instance, popSize int, r *rng.Rand) ([]wmn.Solution, error) {
	if pi.Placer == nil {
		return nil, fmt.Errorf("ga: placer initializer has no placer")
	}
	place := placement.Prepare(pi.Placer, in)
	pop := make([]wmn.Solution, popSize)
	for i := range pop {
		sol, err := place(r)
		if err != nil {
			return nil, fmt.Errorf("ga: %v initializer, individual %d: %w", pi.Placer.Method(), i, err)
		}
		pop[i] = sol
	}
	return pop, nil
}

// SolutionsInitializer seeds the population with fixed solutions, cycling
// when popSize exceeds the provided set. Useful for warm-starting a GA from
// neighborhood-search results.
type SolutionsInitializer struct {
	Solutions []wmn.Solution
}

var _ Initializer = SolutionsInitializer{}

// InitPopulation implements Initializer.
func (si SolutionsInitializer) InitPopulation(in *wmn.Instance, popSize int, r *rng.Rand) ([]wmn.Solution, error) {
	if len(si.Solutions) == 0 {
		return nil, fmt.Errorf("ga: solutions initializer is empty")
	}
	pop := make([]wmn.Solution, popSize)
	for i := range pop {
		pop[i] = si.Solutions[i%len(si.Solutions)].Clone()
	}
	return pop, nil
}
