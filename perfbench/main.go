// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the placement library for a fixed time, checks
// every output against an independent solve, and prints every metric by
// name with its unit; the last line of standard output is one JSON object
// with the verdict and the metrics. See DESIGN.md for the workloads, the
// metrics and which layer metric is predicted to move which end-to-end
// metric on which workload.
//
// Usage (run.sh builds the binary and runs it from the checkout's root):
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics; --trace 1 repeats the timed
// run and adds a separate traced pass, reporting the per-layer metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
)

// defaultSeed is the workload seed whose solve-workload fingerprints are
// pinned in golden.json.
const defaultSeed = 1

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	scratch  string // directory for journals, temp files and span files, relative to the checkout's root
	golden   string // when set, write the solve workloads' golden file here
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is what a workload run hands back: the verdict counts, every
// end-to-end metric, the per-layer metrics when traced, and notes for the
// human-readable table (sample counts, percentiles actually used).
type report struct {
	attempted, failed int
	endToEnd          map[string]float64
	perLayer          map[string]float64
	notes             []string
}

func newReport() *report {
	return &report{endToEnd: map[string]float64{}, perLayer: map[string]float64{}}
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (*report, error){
	"search-swap":    runSolveWorkload,
	"evolve-perturb": runSolveWorkload,
	"serve-cluster":  runServeWorkload,
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload: search-swap, evolve-perturb or serve-cluster")
	flag.Uint64Var(&cfg.seed, "seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 adds the traced pass and reports per-layer metrics")
	flag.StringVar(&cfg.golden, "write-golden", "", "write the golden fingerprints of this run to the given file (solve workloads, default seed)")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.scratch = ".bench_build"

	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes the workload and renders the table; it returns the result
// line's contents.
func run(cfg config, out io.Writer) (*result, error) {
	runner, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want search-swap, evolve-perturb or serve-cluster)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	rep, err := runner(cfg)
	if err != nil {
		return nil, err
	}
	res := &result{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(out, "workload %s  seed %d  %ds  trace %v\n", cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	fmt.Fprintf(out, "%-34s %14s  %s\n", "error_ratio", fmt.Sprintf("%.6g", ratio(float64(rep.failed), float64(rep.attempted))),
		fmt.Sprintf("failed or mismatched ÷ attempted (%d / %d)", rep.failed, rep.attempted))
	// A timed run must report every end-to-end metric and a traced run
	// every per-layer one; a traced run shows whichever end-to-end
	// metrics its timed pass produced (it skips the capacity ladder).
	emit := func(cat []metricDef, vals map[string]float64, required bool) error {
		for _, d := range cat {
			v, ok := vals[d.name]
			if !ok && !required {
				continue
			}
			if !ok {
				return fmt.Errorf("workload %s did not report %s", cfg.workload, d.name)
			}
			res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
			fmt.Fprintf(out, "%-34s %14.6g  %s\n", d.name, v, d.unit)
		}
		return nil
	}
	fmt.Fprintln(out, "-- end to end")
	if err := emit(endToEnd, rep.endToEnd, !cfg.trace); err != nil {
		return nil, err
	}
	if cfg.trace {
		fmt.Fprintln(out, "-- per layer (traced pass)")
		if err := emit(perLayer, rep.perLayer, true); err != nil {
			return nil, err
		}
		// The result line carries the per-layer metrics only.
		for _, d := range endToEnd {
			delete(res.Metrics, d.name)
		}
	}
	for _, n := range rep.notes {
		fmt.Fprintln(out, "note:", n)
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// memSample is a point-in-time reading of the Go runtime's allocation and
// GC counters; two of them bracket a measured pass.
type memSample struct {
	at      time.Time
	alloc   uint64
	gcs     uint32
	pauseNs uint64
}

func readMem() memSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSample{at: now(), alloc: ms.TotalAlloc, gcs: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// goLayer fills the go.* per-layer metrics for ops operations between two
// samples.
func goLayer(rep *report, from, to memSample, ops int) {
	secs := to.at.Sub(from.at).Seconds()
	rep.perLayer["go.alloc_bytes_per_op"] = ratio(float64(to.alloc-from.alloc), float64(ops))
	rep.perLayer["go.gc_cycles_per_s"] = ratio(float64(to.gcs-from.gcs), secs)
	rep.perLayer["go.gc_pause_share"] = ratio(float64(to.pauseNs-from.pauseNs)/1e9, secs)
}

// tempDir makes a fresh directory under the scratch directory.
func tempDir(cfg config, pattern string) (string, error) {
	dir := filepath.Join(cfg.scratch, "tmp")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, pattern)
}
