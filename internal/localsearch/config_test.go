package localsearch

import (
	"math"
	"testing"

	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

func TestConfigValidateTable(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr bool
	}{
		{name: "zero value", cfg: Config{}, wantErr: true}, // nil movement
		{name: "nil movement with explicit budgets", cfg: Config{MaxPhases: 5, NeighborsPerPhase: 4}, wantErr: true},
		{name: "zero MaxPhases defaults to 64", cfg: Config{Movement: RandomMovement{}}},
		{name: "negative MaxPhases", cfg: Config{Movement: RandomMovement{}, MaxPhases: -1}, wantErr: true},
		{name: "zero NeighborsPerPhase defaults to 32", cfg: Config{Movement: RandomMovement{}, MaxPhases: 5}},
		{name: "negative NeighborsPerPhase", cfg: Config{Movement: RandomMovement{}, NeighborsPerPhase: -2}, wantErr: true},
		{name: "fully specified", cfg: Config{Movement: NewSwapMovement(), MaxPhases: 3, NeighborsPerPhase: 2, StopOnNoImprove: true}},
		{name: "trace only", cfg: Config{Movement: PerturbMovement{}, RecordTrace: true}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// stuckMovement never proposes a neighbor, so no phase can ever improve —
// the degenerate case that must trip StopOnNoImprove immediately.
type stuckMovement struct{}

func (stuckMovement) Name() string { return "Stuck" }

func (stuckMovement) Propose(_ *wmn.Instance, _, _ wmn.Solution, _ *rng.Rand) bool { return false }

func TestSearchStopOnNoImproveEarlyExit(t *testing.T) {
	in := testInstance(t)
	eval := testEvaluator(t, in)
	initial := randomSolution(in, 31)

	// With StopOnNoImprove, the very first non-improving phase ends the
	// search: one phase, zero evaluations.
	res, err := Search(eval, initial, Config{
		Movement:          stuckMovement{},
		MaxPhases:         50,
		NeighborsPerPhase: 8,
		StopOnNoImprove:   true,
	}, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases != 1 {
		t.Errorf("early exit after %d phases, want 1", res.Phases)
	}
	if res.Evaluations != 0 {
		t.Errorf("%d evaluations for a movement that never proposes", res.Evaluations)
	}

	// Without StopOnNoImprove the same dead movement still runs the full
	// phase budget (the Figure 4 behavior).
	res, err = Search(eval, initial, Config{
		Movement:          stuckMovement{},
		MaxPhases:         50,
		NeighborsPerPhase: 8,
	}, rng.New(33))
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases != 50 {
		t.Errorf("full run stopped at %d phases, want 50", res.Phases)
	}
	if res.BestMetrics != eval.MustEvaluate(initial) {
		t.Error("best metrics drifted from the initial solution without any proposals")
	}
}

func TestHillClimbConfigValidateTable(t *testing.T) {
	tests := []struct {
		name    string
		cfg     HillClimbConfig
		wantErr bool
	}{
		{name: "zero value", cfg: HillClimbConfig{}, wantErr: true}, // nil movement
		{name: "movement only defaults the budgets", cfg: HillClimbConfig{Movement: RandomMovement{}}},
		{name: "negative MaxSteps", cfg: HillClimbConfig{Movement: RandomMovement{}, MaxSteps: -1}, wantErr: true},
		{name: "negative MaxNoImprove", cfg: HillClimbConfig{Movement: RandomMovement{}, MaxNoImprove: -4}, wantErr: true},
		{name: "fully specified", cfg: HillClimbConfig{Movement: PerturbMovement{}, MaxSteps: 16, MaxNoImprove: 4}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestAnnealConfigValidateTable(t *testing.T) {
	tests := []struct {
		name    string
		cfg     AnnealConfig
		wantErr bool
	}{
		{name: "zero value", cfg: AnnealConfig{}, wantErr: true}, // nil movement
		{name: "movement only defaults the schedule", cfg: AnnealConfig{Movement: PerturbMovement{}}},
		{name: "negative Steps", cfg: AnnealConfig{Movement: PerturbMovement{}, Steps: -1}, wantErr: true},
		{name: "negative StartTemp", cfg: AnnealConfig{Movement: PerturbMovement{}, StartTemp: -0.1, EndTemp: 0.001}, wantErr: true},
		{name: "inverted temperatures", cfg: AnnealConfig{Movement: PerturbMovement{}, StartTemp: 0.001, EndTemp: 0.1}, wantErr: true},
		{name: "negative TraceEvery", cfg: AnnealConfig{Movement: PerturbMovement{}, TraceEvery: -8}, wantErr: true},
		{name: "NaN StartTemp", cfg: AnnealConfig{Movement: PerturbMovement{}, StartTemp: math.NaN(), EndTemp: 0.001}, wantErr: true},
		{name: "NaN EndTemp", cfg: AnnealConfig{Movement: PerturbMovement{}, StartTemp: 0.1, EndTemp: math.NaN()}, wantErr: true},
		{name: "infinite StartTemp", cfg: AnnealConfig{Movement: PerturbMovement{}, StartTemp: math.Inf(1), EndTemp: 0.001}, wantErr: true},
		{name: "infinite both temperatures", cfg: AnnealConfig{Movement: PerturbMovement{}, StartTemp: math.Inf(1), EndTemp: math.Inf(1)}, wantErr: true},
		{name: "fully specified", cfg: AnnealConfig{Movement: PerturbMovement{}, Steps: 32, StartTemp: 0.1, EndTemp: 0.01, TraceEvery: 4}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestTabuConfigValidateTable(t *testing.T) {
	tests := []struct {
		name    string
		cfg     TabuConfig
		wantErr bool
	}{
		{name: "zero value", cfg: TabuConfig{}, wantErr: true}, // nil movement
		{name: "movement only defaults the budgets", cfg: TabuConfig{Movement: NewSwapMovement()}},
		{name: "negative MaxPhases", cfg: TabuConfig{Movement: RandomMovement{}, MaxPhases: -1}, wantErr: true},
		{name: "negative NeighborsPerPhase", cfg: TabuConfig{Movement: RandomMovement{}, NeighborsPerPhase: -2}, wantErr: true},
		{name: "negative Tenure", cfg: TabuConfig{Movement: RandomMovement{}, Tenure: -3}, wantErr: true},
		{name: "fully specified", cfg: TabuConfig{Movement: NewSwapMovement(), MaxPhases: 4, NeighborsPerPhase: 4, Tenure: 2}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

// TestExtensionRunnersRejectInvalidConfigs pins the wiring: the runners
// report config errors through Validate instead of silently mis-running.
func TestExtensionRunnersRejectInvalidConfigs(t *testing.T) {
	in := testInstance(t)
	eval := testEvaluator(t, in)
	initial := randomSolution(in, 7)

	if _, err := HillClimb(eval, initial, HillClimbConfig{Movement: RandomMovement{}, MaxSteps: -5}, rng.New(1)); err == nil {
		t.Error("HillClimb accepted a negative MaxSteps")
	}
	if _, err := Anneal(eval, initial, AnnealConfig{Movement: PerturbMovement{}, Steps: -5}, rng.New(1)); err == nil {
		t.Error("Anneal accepted a negative Steps")
	}
	if _, err := Tabu(eval, initial, TabuConfig{Movement: RandomMovement{}, Tenure: -5}, rng.New(1)); err == nil {
		t.Error("Tabu accepted a negative Tenure")
	}
}
