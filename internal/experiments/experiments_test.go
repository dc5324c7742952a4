package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"meshplace/internal/dist"
	"meshplace/internal/ga"
	"meshplace/internal/placement"
	"meshplace/internal/wmn"
)

func TestDistributionFor(t *testing.T) {
	// The studies' checked-in results pin these exact parameters.
	want := map[StudyID]dist.Spec{
		StudyNormal:      dist.NormalSpec(64, 64, 12.8),
		StudyExponential: dist.ExponentialSpec(32),
		StudyWeibull:     dist.WeibullSpec(1.8, 36),
	}
	for _, id := range StudyIDs() {
		spec, err := DistributionFor(id)
		if err != nil {
			t.Fatalf("DistributionFor(%s): %v", id, err)
		}
		if spec != want[id] {
			t.Errorf("DistributionFor(%s) = %v, want %v", id, spec, want[id])
		}
		if _, err := spec.Build(quickStudy(t).Instance.Area()); err != nil {
			t.Fatalf("spec %v does not build: %v", spec, err)
		}
	}
	for _, id := range []StudyID{"pareto", "uniform"} {
		if _, err := DistributionFor(id); err == nil {
			t.Errorf("unknown study %q accepted", id)
		}
	}
}

func TestPaperTablesComplete(t *testing.T) {
	for _, id := range StudyIDs() {
		rows := PaperTable(id)
		if len(rows) != 7 {
			t.Fatalf("%s: %d paper rows, want 7", id, len(rows))
		}
		seen := make(map[placement.Method]bool)
		for _, row := range rows {
			seen[row.Method] = true
		}
		for _, m := range placement.Methods() {
			if !seen[m] {
				t.Errorf("%s: paper table missing %v", id, m)
			}
		}
	}
	if PaperTable("bogus") != nil {
		t.Error("unknown study should have no paper rows")
	}
}

func TestPaperHeadlineValues(t *testing.T) {
	// Spot-check transcription against the paper: HotSpot's GA giants are
	// 64, 64, 63 and Table 1's Cross row is 54/74/13/19.
	wantHotSpot := map[StudyID]int{StudyNormal: 64, StudyExponential: 64, StudyWeibull: 63}
	for id, want := range wantHotSpot {
		for _, row := range PaperTable(id) {
			if row.Method == placement.HotSpot && row.GAGiant != want {
				t.Errorf("%s: paper HotSpot GA giant %d, want %d", id, row.GAGiant, want)
			}
		}
	}
	for _, row := range PaperTable(StudyNormal) {
		if row.Method == placement.Cross {
			if row.GAGiant != 54 || row.GACoverage != 74 || row.StandGiant != 13 || row.StandCoverage != 19 {
				t.Errorf("table 1 Cross row = %+v", row)
			}
		}
	}
}

func TestTableAndFigureNumbers(t *testing.T) {
	if TableNumber(StudyNormal) != 1 || TableNumber(StudyExponential) != 2 || TableNumber(StudyWeibull) != 3 {
		t.Error("table numbers wrong")
	}
	if TableNumber("bogus") != 0 {
		t.Error("unknown study should map to 0")
	}
	if FigureNumber(StudyWeibull) != 3 {
		t.Error("figure numbers wrong")
	}
}

var cachedQuickStudy *Study

// quickStudy runs (once) the Normal study at Quick scale.
func quickStudy(t *testing.T) *Study {
	t.Helper()
	if cachedQuickStudy != nil {
		return cachedQuickStudy
	}
	s, err := RunStudy(StudyNormal, Quick())
	if err != nil {
		t.Fatal(err)
	}
	cachedQuickStudy = s
	return s
}

func TestRunStudyQuickStructure(t *testing.T) {
	s := quickStudy(t)
	if len(s.Results) != 7 {
		t.Fatalf("%d results, want 7", len(s.Results))
	}
	wantGens := Quick().GA.Generations
	for i, res := range s.Results {
		if res.Method != placement.Methods()[i] {
			t.Errorf("result %d is %v, want paper order", i, res.Method)
		}
		if len(res.GAHistory) == 0 {
			t.Fatalf("%v: empty GA history", res.Method)
		}
		last := res.GAHistory[len(res.GAHistory)-1]
		if last.Generation != wantGens {
			t.Errorf("%v: history ends at generation %d, want %d", res.Method, last.Generation, wantGens)
		}
		if res.GABest.GiantSize < 1 || res.GABest.GiantSize > s.Instance.NumRouters() {
			t.Errorf("%v: GA giant %d out of range", res.Method, res.GABest.GiantSize)
		}
	}
}

func TestRunStudyQuickShapes(t *testing.T) {
	// At Quick scale only the robust subset of the paper's shapes is
	// asserted: the GA never hurts, and the evolution curves are monotone.
	s := quickStudy(t)
	for _, res := range s.Results {
		if res.GABest.GiantSize < res.StandAlone.GiantSize {
			t.Errorf("%v: GA giant %d below stand-alone %d",
				res.Method, res.GABest.GiantSize, res.StandAlone.GiantSize)
		}
		prev := -1
		for _, rec := range res.GAHistory {
			if rec.BestGiant < prev {
				t.Errorf("%v: history giant decreased", res.Method)
				break
			}
			prev = rec.BestGiant
		}
	}
}

func TestRunStudyParallelMatchesSequential(t *testing.T) {
	cfg := Quick()
	cfg.GA.Generations = 15
	cfg.Workers = 1
	seq, err := RunStudy(StudyExponential, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := RunStudy(StudyExponential, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Results {
		a, b := seq.Results[i], par.Results[i]
		if a.GABest != b.GABest || a.StandAlone != b.StandAlone {
			t.Errorf("%v: parallel run diverged from sequential", a.Method)
		}
	}
}

func TestRunStudyDeterministic(t *testing.T) {
	cfg := Quick()
	cfg.GA.Generations = 15
	a, err := RunStudy(StudyWeibull, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunStudy(StudyWeibull, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Results {
		if a.Results[i].GABest != b.Results[i].GABest {
			t.Errorf("%v: results differ across identical runs", a.Results[i].Method)
		}
	}
}

func TestRunSearchComparisonQuick(t *testing.T) {
	cmp, err := RunSearchComparison(Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Order) != 2 {
		t.Fatalf("order = %v", cmp.Order)
	}
	for _, name := range []string{"Swap", "Random"} {
		trace := cmp.Traces[name]
		if len(trace) != Quick().SearchPhases {
			t.Errorf("%s trace has %d phases, want %d", name, len(trace), Quick().SearchPhases)
		}
	}
	// Even at Quick scale the swap search must not lose to random.
	swapFinal := cmp.Traces["Swap"][len(cmp.Traces["Swap"])-1].Metrics.GiantSize
	randomFinal := cmp.Traces["Random"][len(cmp.Traces["Random"])-1].Metrics.GiantSize
	if swapFinal < randomFinal {
		t.Errorf("swap final %d below random final %d", swapFinal, randomFinal)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := Default()
	cfg.SearchPhases = 0
	cfg.SearchPhases = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative phases accepted")
	}
	cfg = Default()
	cfg.Reps = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative reps accepted")
	}
	cfg = Default()
	cfg.Gen.NumRouters = 0
	if err := cfg.Validate(); err == nil {
		t.Error("bad gen config accepted")
	}
	if err := Default().Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestRenderTable(t *testing.T) {
	s := quickStudy(t)
	var buf bytes.Buffer
	if err := s.RenderTable(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, m := range placement.Methods() {
		if !strings.Contains(out, m.String()) {
			t.Errorf("rendered table missing %v", m)
		}
	}
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "paper") {
		t.Errorf("rendered table missing header elements:\n%s", out)
	}
}

func TestWriteTableCSV(t *testing.T) {
	s := quickStudy(t)
	var buf bytes.Buffer
	if err := s.WriteTableCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 8 { // header + 7 methods
		t.Fatalf("CSV has %d lines, want 8", len(lines))
	}
	if got := len(strings.Split(lines[0], ",")); got != 9 {
		t.Errorf("CSV header has %d fields, want 9", got)
	}
	for _, line := range lines[1:] {
		if got := len(strings.Split(line, ",")); got != 9 {
			t.Errorf("CSV row %q has %d fields, want 9", line, got)
		}
	}
}

func TestRenderFigure(t *testing.T) {
	s := quickStudy(t)
	var buf bytes.Buffer
	if err := s.RenderFigure(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "HotSpot") {
		t.Errorf("rendered figure missing elements:\n%s", out[:200])
	}
	lines := strings.Count(out, "\n")
	if lines < len(s.Results[0].GAHistory) {
		t.Errorf("figure has %d lines for %d history records", lines, len(s.Results[0].GAHistory))
	}
}

func TestWriteFigureCSV(t *testing.T) {
	s := quickStudy(t)
	var buf bytes.Buffer
	if err := s.WriteFigureCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(s.Results[0].GAHistory)+1 {
		t.Errorf("figure CSV has %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[0], "generation,Random,") {
		t.Errorf("figure CSV header = %q", lines[0])
	}
}

func TestSearchComparisonRenderAndCSV(t *testing.T) {
	cmp, err := RunSearchComparison(Quick())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cmp.RenderFigure(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 4") {
		t.Error("rendered figure 4 missing title")
	}
	buf.Reset()
	if err := cmp.WriteFigureCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != Quick().SearchPhases+1 {
		t.Errorf("figure 4 CSV has %d lines, want %d", len(lines), Quick().SearchPhases+1)
	}
}

func TestCheckShapeDetectsViolations(t *testing.T) {
	// Corrupt a study and verify the checks fire.
	s, err := RunStudy(StudyNormal, func() Config { c := Quick(); c.GA.Generations = 10; return c }())
	if err != nil {
		t.Fatal(err)
	}
	// Force HotSpot below another method.
	for i := range s.Results {
		if s.Results[i].Method == placement.HotSpot {
			s.Results[i].GABest.GiantSize = 1
			s.Results[i].StandAlone.GiantSize = 0
		}
	}
	if v := s.CheckTableShape(); len(v) == 0 {
		t.Error("corrupted study passed the table shape check")
	}
}

// TestShapeViolationsFollowResultsOrder pins the order of the shape
// checks' violation lists: several claims fail at once on this study, and
// every call must list them identically, in s.Results order, so the
// printed SHAPE VIOLATION lines never depend on map iteration.
func TestShapeViolationsFollowResultsOrder(t *testing.T) {
	s := &Study{ID: StudyWeibull, Instance: &wmn.Instance{Radii: make([]float64, 64)}}
	for i, m := range placement.Methods() {
		giant := 10 + i
		switch m {
		case placement.HotSpot:
			giant = 5 // every other method beats it
		case placement.Corners:
			giant = 30 // every other method falls below it
		}
		s.Results = append(s.Results, MethodResult{
			Method:    m,
			GABest:    wmn.Metrics{GiantSize: giant},
			GAHistory: []ga.GenRecord{{BestGiant: giant}},
		})
	}
	var wantFigure []string
	for _, res := range s.Results {
		if res.Method != placement.HotSpot {
			wantFigure = append(wantFigure, fmt.Sprintf("figure: HotSpot final giant 5 below %s's %d", res.Method, res.GABest.GiantSize))
		}
	}
	table := s.CheckTableShape()
	if len(table) < 2 {
		t.Fatalf("want several table violations, got %q", table)
	}
	for call := 0; call < 50; call++ {
		if got := s.CheckTableShape(); !reflect.DeepEqual(got, table) {
			t.Fatalf("call %d: table violations %q, first call gave %q", call, got, table)
		}
		if got := s.CheckFigureShape(); !reflect.DeepEqual(got, wantFigure) {
			t.Fatalf("call %d: figure violations %q, want %q", call, got, wantFigure)
		}
	}
	var notBest []string
	for _, v := range table {
		if strings.HasPrefix(v, "HotSpot not best") {
			notBest = append(notBest, v)
		}
	}
	var wantNotBest []string
	for _, res := range s.Results {
		if res.Method != placement.HotSpot {
			wantNotBest = append(wantNotBest, fmt.Sprintf("HotSpot not best GA initializer: %s reached %d > 5", res.Method, res.GABest.GiantSize))
		}
	}
	if !reflect.DeepEqual(notBest, wantNotBest) {
		t.Errorf("HotSpot violations %q, want %q", notBest, wantNotBest)
	}
}
