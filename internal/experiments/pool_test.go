package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForEachIndexedFillsAllSlots(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 100
			out := make([]int, n)
			err := ForEachIndexed(n, workers, func(i int) error {
				out[i] = i * i
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out {
				if v != i*i {
					t.Fatalf("slot %d = %d, want %d", i, v, i*i)
				}
			}
		})
	}
}

func TestForEachIndexedReturnsLowestIndexError(t *testing.T) {
	failAt := map[int]bool{10: true, 37: true}
	for _, workers := range []int{1, 8} {
		err := ForEachIndexed(50, workers, func(i int) error {
			if failAt[i] {
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "task 10 failed" {
			t.Errorf("workers=%d: err = %v, want the index-10 error", workers, err)
		}
	}
}

func TestForEachIndexedEdgeCases(t *testing.T) {
	if err := ForEachIndexed(0, 4, func(int) error { return errors.New("never") }); err != nil {
		t.Errorf("n=0: %v", err)
	}
	// More workers than tasks must not deadlock or skip tasks.
	out := make([]bool, 2)
	if err := ForEachIndexed(2, 64, func(i int) error { out[i] = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !out[0] || !out[1] {
		t.Errorf("tasks skipped: %v", out)
	}
}

func TestConfigValidateRejectsNegativeWorkers(t *testing.T) {
	cfg := Default()
	cfg.Workers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative Workers accepted")
	}
}

// workersInvariantConfig is small enough for -race CI but still fans out
// 7 methods × 2 reps = 14 independent study tasks.
func workersInvariantConfig(workers int) Config {
	cfg := Quick()
	cfg.GA.Generations = 10
	cfg.GA.RecordEvery = 2
	cfg.SearchPhases = 8
	cfg.Reps = 2
	cfg.Workers = workers
	return cfg
}

// renderStudy captures every rendered artifact of a study as one byte
// stream, so equality means byte-identical user-visible output.
func renderStudy(t *testing.T, s *Study) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, render := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return s.RenderTable(b) },
		func(b *bytes.Buffer) error { return s.RenderFigure(b) },
		func(b *bytes.Buffer) error { return s.WriteTableCSV(b) },
		func(b *bytes.Buffer) error { return s.WriteFigureCSV(b) },
	} {
		if err := render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestRunStudyOutputIdenticalAcrossWorkerCounts(t *testing.T) {
	one, err := RunStudy(StudyNormal, workersInvariantConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := RunStudy(StudyNormal, workersInvariantConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Results, eight.Results) {
		t.Error("study results differ between 1 and 8 workers")
	}
	if !bytes.Equal(renderStudy(t, one), renderStudy(t, eight)) {
		t.Error("rendered study output not byte-identical between 1 and 8 workers")
	}
}

func TestRunSearchComparisonOutputIdenticalAcrossWorkerCounts(t *testing.T) {
	one, err := RunSearchComparison(workersInvariantConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	eight, err := RunSearchComparison(workersInvariantConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Traces, eight.Traces) || !reflect.DeepEqual(one.Order, eight.Order) {
		t.Error("search comparison differs between 1 and 8 workers")
	}
	var a, b bytes.Buffer
	if err := one.WriteFigureCSV(&a); err != nil {
		t.Fatal(err)
	}
	if err := eight.WriteFigureCSV(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("figure 4 CSV not byte-identical between 1 and 8 workers")
	}
}

// BenchmarkRunStudy measures the study hot loop at several worker counts;
// the 1-vs-GOMAXPROCS ratio is the speedup the pool buys.
func BenchmarkRunStudy(b *testing.B) {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := Quick()
			cfg.Reps = 3
			cfg.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RunStudy(StudyNormal, cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestPoolRunsAllTasks(t *testing.T) {
	p := NewPool(4)
	var count atomic.Int64
	for i := 0; i < 100; i++ {
		if !p.Submit(func() { count.Add(1) }) {
			t.Fatalf("submit %d rejected on an open pool", i)
		}
	}
	p.Wait()
	if got := count.Load(); got != 100 {
		t.Errorf("ran %d tasks after Wait, want 100", got)
	}
	p.Close()
	if p.Submit(func() { count.Add(1) }) {
		t.Error("submit accepted on a closed pool")
	}
	if got := count.Load(); got != 100 {
		t.Errorf("closed pool ran a task: count %d, want 100", got)
	}
}

func TestPoolCloseDrainsQueue(t *testing.T) {
	// One worker, many queued tasks: Close must run them all before
	// returning, not drop the backlog.
	p := NewPool(1)
	var count atomic.Int64
	for i := 0; i < 50; i++ {
		p.Submit(func() { count.Add(1) })
	}
	p.Close()
	if got := count.Load(); got != 50 {
		t.Errorf("Close drained %d tasks, want 50", got)
	}
}

func TestPoolDefaultsWorkersToGOMAXPROCS(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	if got := p.Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("NewPool(0).Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
}

// TestRunStudiesMatchesRunStudy pins the study-level fan-out contract:
// batching studies over the shared pool leaves every per-study artifact
// byte-identical to its stand-alone run.
func TestRunStudiesMatchesRunStudy(t *testing.T) {
	cfg := workersInvariantConfig(8)
	ids := []StudyID{StudyNormal, StudyExponential}
	batch, err := RunStudies(ids, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(ids) {
		t.Fatalf("RunStudies returned %d studies, want %d", len(batch), len(ids))
	}
	for i, id := range ids {
		solo, err := RunStudy(id, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(solo.Results, batch[i].Results) {
			t.Errorf("study %s: batched results differ from stand-alone run", id)
		}
		if !bytes.Equal(renderStudy(t, solo), renderStudy(t, batch[i])) {
			t.Errorf("study %s: batched rendering not byte-identical to stand-alone run", id)
		}
	}
}
