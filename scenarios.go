package meshplace

import (
	"meshplace/internal/scenarios"
	"meshplace/internal/server"
)

// Scenario-corpus types (see the scenarios documentation for full
// semantics). The corpus is a named, versioned set of placement scenarios
// spanning every client layout across the benchmark-family scales; the
// suite sweeps solver specs over it and reports per-(scenario, solver)
// connectivity, coverage and runtime with a determinism fingerprint.
type (
	// Scenario is one corpus entry: a named, seeded generation config.
	Scenario = scenarios.Scenario
	// ScenarioInfo is the catalog view of one scenario (GET /v1/scenarios).
	ScenarioInfo = scenarios.Info
	// SuiteConfig parameterizes RunScenarioSuite (seed, workers,
	// evaluation options, runtime clock).
	SuiteConfig = scenarios.SuiteConfig
	// SuiteReport is a suite run's result grid; Fingerprint() pins its
	// deterministic columns and Render() prints the table.
	SuiteReport = scenarios.Report
	// SuiteResult is one (scenario, solver) cell of a suite report.
	SuiteResult = scenarios.Result
)

// ScenarioCorpusVersion names the corpus generation this build ships.
const ScenarioCorpusVersion = scenarios.Version

// ScenarioCorpus returns the full scenario corpus for a generation seed:
// every client layout (uniform, normal, exponential, weibull, hotspots,
// ring, trace) at every benchmark-family scale.
func ScenarioCorpus(seed uint64) []Scenario { return scenarios.Corpus(seed) }

// ScenarioCatalog describes the corpus independently of any seed — the
// data behind GET /v1/scenarios.
func ScenarioCatalog() []ScenarioInfo { return scenarios.Describe() }

// GenerateScenarioCorpus generates every corpus instance, fanning the work
// across at most workers goroutines (0 = one per CPU). Output is
// byte-identical at any worker count.
func GenerateScenarioCorpus(seed uint64, workers int) ([]*Instance, error) {
	return scenarios.GenerateCorpus(seed, workers)
}

// RunScenarioSuite sweeps solver specs over the scenarios. An empty spec
// list selects every registered solver kind's default spec; a nil scenario
// list selects the full corpus for the config's seed.
func RunScenarioSuite(specs []SolverSpec, scs []Scenario, cfg SuiteConfig) (*SuiteReport, error) {
	if scs == nil {
		scs = scenarios.Corpus(cfg.Seed)
	}
	return server.RunSuite(specs, scs, cfg)
}
