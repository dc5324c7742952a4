package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"meshplace"
	"meshplace/internal/experiments"
	"meshplace/internal/ga"
	"meshplace/internal/localsearch"
	"meshplace/internal/placement"
	"meshplace/internal/rng"
	"meshplace/internal/scenarios"
	"meshplace/internal/server"
	"meshplace/internal/wmn"
)

// specMix is one spec of a solve workload and how many solve seeds each
// instance gets with it per epoch.
type specMix struct {
	spec string
	reps int
}

// solveMixes are the solve workloads' spec mixes. Both run on the v1
// corpus layouts at base and double scale.
var solveMixes = map[string][]specMix{
	// The swap-movement local-search kinds at registry defaults.
	"search-swap": {{"search", 3}, {"tabu", 3}, {"hillclimb:movement=swap", 3}},
	// The same instances with no swap proposal anywhere: GA (single
	// population and islands), annealing and hill climbing with the
	// default perturb movement. The cheap kinds get three seeds to the
	// GAs' one so a run holds enough solves for its tail percentile;
	// the GAs still take most of the time.
	"evolve-perturb": {{"ga:generations=100", 1}, {"ga:islands=2,generations=50", 1}, {"anneal", 3}, {"hillclimb", 3}},
}

var solveScales = []string{"base", "double"}

// corpusSeed selects the instances: the v1 corpus as pinned by its golden
// hashes. The workload seed draws everything else — solve seeds, order,
// the request mix — so runs at different seeds differ in those and not in
// instance content, which would add its own spread across seeds.
const corpusSeed = 1

// solveSetupReps is how many times a run builds its inputs; setup_s is
// the median.
const solveSetupReps = 51

// solveWarmup is how many triples the caller solves before the timed loop
// starts, so the heap and caches have settled when timing begins.
const solveWarmup = 4

// triple is one (instance, spec, seed) solve of a stream.
type triple struct {
	id   int
	inst int
	spec server.Spec
	seed uint64
}

// solveInputs is a solve workload's set-up: the instances, their
// evaluators and one epoch of the triple stream.
type solveInputs struct {
	instances []*wmn.Instance
	hashes    []string
	evals     []*wmn.Evaluator
	epoch     []triple
	genNs     []float64 // per wmn.Generate call
	evalNs    []float64 // per wmn.NewEvaluator call
}

// buildSolveInputs generates the corpus instances, builds one evaluator
// per instance and draws the epoch for the seed: every instance paired
// with every spec of the mix for its number of seeds, in a seeded order.
func buildSolveInputs(workload string, seed uint64) (*solveInputs, error) {
	mix, ok := solveMixes[workload]
	if !ok {
		return nil, fmt.Errorf("no spec mix for %q", workload)
	}
	specs := make([]server.Spec, len(mix))
	for i, m := range mix {
		s, err := server.ParseSpec(m.spec)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	in := &solveInputs{}
	for _, sc := range scenarios.Filter(scenarios.Corpus(corpusSeed), solveScales...) {
		t0 := now()
		inst, err := wmn.Generate(sc.Gen)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", sc.Name, err)
		}
		t1 := now()
		ev, err := wmn.NewEvaluator(inst, wmn.EvalOptions{})
		if err != nil {
			return nil, fmt.Errorf("evaluator %s: %w", sc.Name, err)
		}
		t2 := now()
		in.genNs = append(in.genNs, float64(t1.Sub(t0).Nanoseconds()))
		in.evalNs = append(in.evalNs, float64(t2.Sub(t1).Nanoseconds()))
		in.instances = append(in.instances, inst)
		in.hashes = append(in.hashes, wmn.HashInstance(inst))
		in.evals = append(in.evals, ev)
	}
	r := rng.DeriveString(seed, "perfbench/"+workload)
	for i := range in.instances {
		for j, m := range mix {
			for k := 0; k < m.reps; k++ {
				in.epoch = append(in.epoch, triple{inst: i, spec: specs[j], seed: r.Uint64()})
			}
		}
	}
	rng.Shuffle(r, in.epoch)
	for i := range in.epoch {
		in.epoch[i].id = i
	}
	return in, nil
}

// fingerprint digests everything a solve returns that must not change:
// spec, seed, instance hash, fitness bits, evaluation count and every
// router position.
func fingerprint(spec server.Spec, seed uint64, instHash string, sol wmn.Solution, fitness float64, evals int) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s|%016x|%d|", spec, seed, instHash, math.Float64bits(fitness), evals)
	var buf [16]byte
	for _, p := range sol.Positions {
		putBits(buf[:8], math.Float64bits(p.X))
		putBits(buf[8:], math.Float64bits(p.Y))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func putBits(b []byte, v uint64) {
	for i := range 8 {
		b[i] = byte(v >> (8 * i))
	}
}

// solveObs is one measured solve.
type solveObs struct {
	triple  int
	reqNs   float64 // due time to completion: NewSolver, solve, fingerprint
	solveNs float64 // the SolveTraced call alone
	evals   int
	fitness float64
	fp      string
	err     error
}

// measureSolves is the closed loop: one caller solves the epoch's triples
// in stream order, epoch after epoch, until the run time is up and at
// least one whole epoch has been solved. Each solve goes through the
// registry exactly as a library user's would: NewSolver, then the traced
// solve entry point without a hook.
func measureSolves(in *solveInputs, d time.Duration) (obs []solveObs, elapsed time.Duration) {
	ctx := context.Background()
	for _, t := range in.epoch[:min(solveWarmup, len(in.epoch))] {
		if sv, err := server.NewSolver(t.spec); err == nil {
			_, _ = sv.(server.TracedSolver).SolveTraced(ctx, in.evals[t.inst], t.seed, nil) // warm-up only; the timed loop checks every result
		}
	}
	start := now()
	deadline := start.Add(d)
	due := start
	for k := 0; ; k++ {
		if k >= len(in.epoch) && !now().Before(deadline) {
			break
		}
		t := in.epoch[k%len(in.epoch)]
		o := solveObs{triple: t.id}
		sv, err := server.NewSolver(t.spec)
		if err == nil {
			s0 := now()
			var rep server.SolveReport
			rep, err = sv.(server.TracedSolver).SolveTraced(ctx, in.evals[t.inst], t.seed, nil)
			o.solveNs = float64(now().Sub(s0).Nanoseconds())
			if err == nil {
				o.evals, o.fitness = rep.Evaluations, rep.Metrics.Fitness
				o.fp = fingerprint(t.spec, t.seed, in.hashes[t.inst], rep.Solution, rep.Metrics.Fitness, rep.Evaluations)
			}
		}
		o.err = err
		done := now()
		o.reqNs = float64(done.Sub(due).Nanoseconds())
		due = done
		obs = append(obs, o)
	}
	return obs, now().Sub(start)
}

//go:embed golden.json
var goldenJSON []byte

// goldenFile pins, per solve workload, the fingerprint of every triple of
// the default seed's epoch.
type goldenFile map[string]goldenEntry

type goldenEntry struct {
	Seed         uint64   `json:"seed"`
	Fingerprints []string `json:"fingerprints"`
}

// references returns the expected fingerprint of every epoch triple: the
// golden file's for the default seed, otherwise a cold solve through the
// library facade (fresh solver, fresh evaluator) on two workers.
func references(cfg config, in *solveInputs) ([]string, string, error) {
	if cfg.seed == defaultSeed && cfg.golden == "" {
		var g goldenFile
		if err := json.Unmarshal(goldenJSON, &g); err != nil {
			return nil, "", fmt.Errorf("golden.json: %w", err)
		}
		if e, ok := g[cfg.workload]; ok && e.Seed == cfg.seed && len(e.Fingerprints) == len(in.epoch) {
			return e.Fingerprints, "golden fingerprints", nil
		}
		return nil, "", fmt.Errorf("golden.json holds no %d-triple epoch for %s seed %d; regenerate it with -write-golden", len(in.epoch), cfg.workload, cfg.seed)
	}
	ctx := context.Background()
	refs := make([]string, len(in.epoch))
	err := experiments.ForEachIndexed(len(in.epoch), 2, func(i int) error {
		t := in.epoch[i]
		rep, err := meshplace.SolveContext(ctx, t.spec, in.instances[t.inst], t.seed)
		if err != nil {
			return fmt.Errorf("cold solve %s seed %d: %w", t.spec, t.seed, err)
		}
		refs[i] = fingerprint(t.spec, t.seed, in.hashes[t.inst], rep.Solution, rep.Metrics.Fitness, rep.Evaluations)
		return nil
	})
	return refs, "cold facade solves", err
}

// writeGolden stores the epoch's fingerprints as the workload's golden
// entry, keeping the other workloads' entries.
func writeGolden(cfg config, fps []string) error {
	g := goldenFile{}
	if b, err := os.ReadFile(cfg.golden); err == nil {
		if err := json.Unmarshal(b, &g); err != nil {
			return fmt.Errorf("%s: %w", cfg.golden, err)
		}
	}
	g[cfg.workload] = goldenEntry{Seed: cfg.seed, Fingerprints: fps}
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(cfg.golden, append(b, '\n'), 0o644)
}

func runSolveWorkload(cfg config) (*report, error) {
	rep := newReport()

	// Set-up, several times; the last build is the one measured.
	var in *solveInputs
	var setups []float64
	for range solveSetupReps {
		runtime.GC() // each build starts from a collected heap
		t0 := now()
		var err error
		if in, err = buildSolveInputs(cfg.workload, cfg.seed); err != nil {
			return nil, err
		}
		setups = append(setups, now().Sub(t0).Seconds())
	}
	rep.endToEnd["setup_s"] = median(setups)

	// The timed run.
	m0 := readMem()
	obs, elapsed := measureSolves(in, time.Duration(cfg.seconds)*time.Second)
	m1 := readMem()
	rep.endToEnd["peak_rss_mb"] = peakRSSMB()

	// Check every output: each occurrence of a triple against the
	// reference fingerprint of that triple.
	refs, source, err := references(cfg, in)
	if err != nil {
		return nil, err
	}
	firstFP := make([]string, len(in.epoch))
	var reqMs, solveMs []float64
	timesOf := make([][]float64, len(in.epoch))
	evalsOf := make([]float64, len(in.epoch))
	for _, o := range obs {
		rep.attempted++
		if o.err != nil || o.fp != refs[o.triple] {
			rep.failed++
			if o.err != nil {
				rep.note("triple %d failed: %v", o.triple, o.err)
			} else {
				rep.note("triple %d: fingerprint %s, want %s", o.triple, o.fp, refs[o.triple])
			}
			continue
		}
		if firstFP[o.triple] == "" {
			firstFP[o.triple] = o.fp
		}
		reqMs = append(reqMs, o.reqNs/1e6)
		solveMs = append(solveMs, o.solveNs/1e6)
		timesOf[o.triple] = append(timesOf[o.triple], o.reqNs)
		evalsOf[o.triple] = float64(o.evals)
	}
	// Throughput is one epoch's work over one epoch's busy time, each
	// triple timed at the median of its occurrences: a burst of
	// interference on one occurrence does not move it.
	var busyNs, evals, solved float64
	for t, times := range timesOf {
		if len(times) > 0 {
			busyNs += median(times)
			evals += evalsOf[t]
			solved++
		}
	}
	rep.note("%d solves (%d epochs of %d triples) in %.2fs, checked against %s", len(obs),
		(len(obs)+len(in.epoch)-1)/len(in.epoch), len(in.epoch), elapsed.Seconds(), source)

	// Fitness is averaged over the first epoch, which every run solves
	// whole, so it is a pure function of the seed.
	fit := make([]float64, len(in.epoch))
	for _, o := range obs[:len(in.epoch)] {
		fit[o.triple] = o.fitness
	}
	rep.endToEnd["solves_per_s"] = ratio(solved, busyNs/1e9)
	rep.endToEnd["evals_per_s"] = ratio(evals, busyNs/1e9)
	rep.endToEnd["mean_fitness"] = mean(fit)
	rep.endToEnd["goodput_rps"] = ratio(float64(len(reqMs)), elapsed.Seconds())
	// One closed-loop caller is always saturated: the highest rate it
	// sustains is the rate it completes at.
	rep.endToEnd["capacity_rps"] = ratio(float64(len(obs)), elapsed.Seconds())
	percentiles(rep, "solve", solveMs, 50, 95)
	percentiles(rep, "req", reqMs, 50, 95)

	if cfg.golden != "" {
		if rep.failed > 0 {
			return nil, fmt.Errorf("not writing %s: %d outputs failed their check", cfg.golden, rep.failed)
		}
		if err := writeGolden(cfg, firstFP); err != nil {
			return nil, err
		}
		rep.note("wrote %d golden fingerprints to %s", len(firstFP), cfg.golden)
	}

	if cfg.trace {
		goLayer(rep, m0, m1, len(obs))
		rep.perLayer["wmn.generate_ms"] = mean(in.genNs) / 1e6
		rep.perLayer["wmn.evaluator_build_us"] = mean(in.evalNs) / 1e3
		if err := tracedSolves(cfg, rep, in, firstFP); err != nil {
			return nil, err
		}
	}
	zeroLayers(rep)
	return rep, nil
}

// percentiles reports <prefix>_p<lo>_ms and <prefix>_p<hi>_ms, the tail at
// the highest percentile up to hi that the sample supports.
func percentiles(rep *report, prefix string, ms []float64, lo, hi float64) {
	rep.endToEnd[fmt.Sprintf("%s_p%g_ms", prefix, lo)] = median(ms)
	v, p, _ := tailPercentile(ms, hi)
	rep.endToEnd[fmt.Sprintf("%s_p%g_ms", prefix, hi)] = v
	rep.note("%s_p%g_ms is p%g over %d samples", prefix, hi, p, len(ms))
}

// solveTrace records one traced solve's spans: the solve span, placement
// calls, per-phase folded propose calls and GA generation intervals, plus
// the phase counts the hooks report.
type solveTrace struct {
	tr   *tracer
	item int
	root int // the solve span's ID
	t0   time.Time

	mu sync.Mutex // placement calls run concurrently under the island fan-out

	// The propose calls of the current phase, folded into one span.
	pFirst, pLast time.Time
	pCount, pBusy int64

	phases, proposedPhases, acceptedPhases int
	lastGen                                int
	lastHook                               time.Time
	genHooks                               []genHook
}

// genHook is one GA progress hook: the generation reached and when.
type genHook struct {
	gen int
	at  time.Time
}

func (st *solveTrace) place(fn func() error) error {
	t0 := now()
	err := fn()
	t1 := now()
	st.mu.Lock()
	st.tr.interval(st.root, "placement.place", st.item, t0, t1)
	st.mu.Unlock()
	return err
}

// flushPropose closes the current phase's folded propose span.
func (st *solveTrace) flushPropose() {
	if st.pCount == 0 {
		return
	}
	st.tr.add(span{Parent: st.root, Name: "localsearch.propose", Item: st.item,
		Start: st.tr.at(st.pFirst), End: st.tr.at(st.pLast), Count: st.pCount, Busy: st.pBusy})
	st.pCount, st.pBusy = 0, 0
}

func (st *solveTrace) onPhase(rec localsearch.PhaseRecord) {
	st.flushPropose()
	st.phases++
	if rec.Proposed {
		st.proposedPhases++
	}
	if rec.Accepted {
		st.acceptedPhases++
	}
}

func (st *solveTrace) onGeneration(gen int, _ wmn.Metrics) {
	at := now()
	if len(st.genHooks) > 0 {
		prev := st.genHooks[len(st.genHooks)-1]
		st.tr.add(span{Parent: st.root, Name: "ga.generations", Item: st.item,
			Start: st.tr.at(prev.at), End: st.tr.at(at), Count: int64(gen - prev.gen), Busy: at.Sub(prev.at).Nanoseconds()})
	}
	st.genHooks = append(st.genHooks, genHook{gen: gen, at: at})
}

// timedMovement forwards to the registry's movement, timing each
// ProposeDelta call. It draws nothing itself, so the search it drives is
// the one the registry runs.
type timedMovement struct {
	inner localsearch.DeltaMovement
	st    *solveTrace
}

func (m *timedMovement) Name() string { return m.inner.Name() }

func (m *timedMovement) Propose(in *wmn.Instance, sol, dst wmn.Solution, r *rng.Rand) bool {
	_, ok := m.ProposeDelta(in, sol, dst, r, nil)
	return ok
}

func (m *timedMovement) ProposeDelta(in *wmn.Instance, sol, dst wmn.Solution, r *rng.Rand, buf []int) ([]int, bool) {
	t0 := now()
	out, ok := m.inner.ProposeDelta(in, sol, dst, r, buf)
	t1 := now()
	st := m.st
	if st.pCount == 0 {
		st.pFirst = t0
	}
	st.pLast = t1
	st.pCount++
	st.pBusy += t1.Sub(t0).Nanoseconds()
	return out, ok
}

// timedInitializer forwards to the GA's placement initializer, recording
// each population draw as a placement span.
type timedInitializer struct {
	inner ga.Initializer
	st    *solveTrace
}

func (ti timedInitializer) InitPopulation(in *wmn.Instance, n int, r *rng.Rand) ([]wmn.Solution, error) {
	var sols []wmn.Solution
	err := ti.st.place(func() error {
		var err error
		sols, err = ti.inner.InitPopulation(in, n, r)
		return err
	})
	return sols, err
}

// movementNamed mirrors the registry's movement construction.
func movementNamed(name string) (localsearch.DeltaMovement, error) {
	switch name {
	case "swap":
		return localsearch.NewSwapMovement(), nil
	case "random":
		return localsearch.RandomMovement{}, nil
	case "perturb":
		return localsearch.PerturbMovement{}, nil
	}
	return nil, fmt.Errorf("unknown movement %q", name)
}

func intParam(spec server.Spec, key string) (int, error) {
	v, err := strconv.Atoi(spec.Param(key))
	if err != nil {
		return 0, fmt.Errorf("%s: param %s: %w", spec, key, err)
	}
	return v, nil
}

func floatParam(spec server.Spec, key string) (float64, error) {
	v, err := strconv.ParseFloat(spec.Param(key), 64)
	if err != nil {
		return 0, fmt.Errorf("%s: param %s: %w", spec, key, err)
	}
	return v, nil
}

// tracedDriver runs the triple's driver directly, with the registry's
// defaults and seed derivations and the benchmark's wrappers and hooks in
// place, returning the best solution, its fitness and the evaluation
// count.
func tracedDriver(st *solveTrace, eval *wmn.Evaluator, t triple) (wmn.Solution, float64, int, error) {
	spec, seed := t.spec, t.seed
	kind := spec.Kind()
	if kind == "ga" {
		return tracedGA(st, eval, spec, seed)
	}
	var initial wmn.Solution
	err := st.place(func() error {
		m, err := placement.MethodFromName(spec.Param("init"))
		if err != nil {
			return err
		}
		p, err := placement.New(m, placement.Options{})
		if err != nil {
			return err
		}
		initial, err = p.Place(eval.Instance(), rng.DeriveString(seed, "solve/init"))
		return err
	})
	if err != nil {
		return wmn.Solution{}, 0, 0, err
	}
	inner, err := movementNamed(spec.Param("movement"))
	if err != nil {
		return wmn.Solution{}, 0, 0, err
	}
	mv := &timedMovement{inner: inner, st: st}
	r := rng.DeriveString(seed, "solve/"+kind)
	var res localsearch.Result
	switch kind {
	case "search":
		phases, err1 := intParam(spec, "phases")
		neighbors, err2 := intParam(spec, "neighbors")
		if err := firstErr(err1, err2); err != nil {
			return wmn.Solution{}, 0, 0, err
		}
		res, err = localsearch.Search(eval, initial, localsearch.Config{
			Movement: mv, MaxPhases: phases, NeighborsPerPhase: neighbors, OnPhase: st.onPhase,
		}, r)
	case "tabu":
		phases, err1 := intParam(spec, "phases")
		neighbors, err2 := intParam(spec, "neighbors")
		tenure, err3 := intParam(spec, "tenure")
		if err := firstErr(err1, err2, err3); err != nil {
			return wmn.Solution{}, 0, 0, err
		}
		res, err = localsearch.Tabu(eval, initial, localsearch.TabuConfig{
			Movement: mv, MaxPhases: phases, NeighborsPerPhase: neighbors, Tenure: tenure, OnPhase: st.onPhase,
		}, r)
	case "hillclimb":
		steps, err1 := intParam(spec, "steps")
		noImprove, err2 := intParam(spec, "noimprove")
		if err := firstErr(err1, err2); err != nil {
			return wmn.Solution{}, 0, 0, err
		}
		res, err = localsearch.HillClimb(eval, initial, localsearch.HillClimbConfig{
			Movement: mv, MaxSteps: steps, MaxNoImprove: noImprove, OnPhase: st.onPhase,
		}, r)
	case "anneal":
		steps, err1 := intParam(spec, "steps")
		start, err2 := floatParam(spec, "starttemp")
		end, err3 := floatParam(spec, "endtemp")
		if err := firstErr(err1, err2, err3); err != nil {
			return wmn.Solution{}, 0, 0, err
		}
		res, err = localsearch.Anneal(eval, initial, localsearch.AnnealConfig{
			Movement: mv, Steps: steps, StartTemp: start, EndTemp: end, OnPhase: st.onPhase,
		}, r)
	default:
		return wmn.Solution{}, 0, 0, fmt.Errorf("no traced driver for %s", spec)
	}
	st.flushPropose()
	if err != nil {
		return wmn.Solution{}, 0, 0, err
	}
	return res.Best, res.BestMetrics.Fitness, res.Evaluations, nil
}

func tracedGA(st *solveTrace, eval *wmn.Evaluator, spec server.Spec, seed uint64) (wmn.Solution, float64, int, error) {
	m, err := placement.MethodFromName(spec.Param("init"))
	if err != nil {
		return wmn.Solution{}, 0, 0, err
	}
	pinit, err := ga.NewPlacerInitializer(m, placement.Options{})
	if err != nil {
		return wmn.Solution{}, 0, 0, err
	}
	init := timedInitializer{inner: pinit, st: st}
	gens, err1 := intParam(spec, "generations")
	pop, err2 := intParam(spec, "pop")
	islands, err3 := intParam(spec, "islands")
	if err := firstErr(err1, err2, err3); err != nil {
		return wmn.Solution{}, 0, 0, err
	}
	cfg := ga.DefaultConfig()
	cfg.Generations, cfg.PopSize = gens, pop
	if islands <= 1 {
		cfg.OnGeneration = st.onGeneration
		res, err := ga.Run(eval, init, cfg, rng.DeriveString(seed, "solve/ga"))
		return res.Best, res.BestMetrics.Fitness, res.Evaluations, err
	}
	every, err1 := intParam(spec, "migrateevery")
	migrants, err2 := intParam(spec, "migrants")
	topo, err3 := ga.ParseTopology(spec.Param("topology"))
	if err := firstErr(err1, err2, err3); err != nil {
		return wmn.Solution{}, 0, 0, err
	}
	res, err := ga.RunIslands(eval, init, ga.IslandConfig{
		Config: cfg, Islands: islands, MigrateEvery: every, Migrants: migrants, Topology: topo,
		FanOut: func(n int, fn func(i int) error) error {
			return experiments.ForEachIndexed(n, runtime.GOMAXPROCS(0), fn)
		},
		OnBarrier: st.onGeneration,
	}, seed)
	return res.Best, res.BestMetrics.Fitness, res.Evaluations, err
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// tracedSolves is the traced pass: every triple of the first epoch solved
// once more through its driver with the wrappers and hooks attached. Its
// results must equal the timed run's registry solves; its spans give the
// per-layer metrics. Each traced solve follows a registry solve of the
// same triple, timed whole; the two times give the tracing overhead.
func tracedSolves(cfg config, rep *report, in *solveInputs, want []string) error {
	ctx := context.Background()
	tr := newTracer()
	var untracedNs float64
	var solveSpans []span
	var evalsTotal float64
	var phases, proposed, accepted int
	var gaInitNs []float64
	for _, t := range in.epoch {
		sv, err := server.NewSolver(t.spec)
		if err != nil {
			return err
		}
		u0 := now()
		if _, err := sv.(server.TracedSolver).SolveTraced(ctx, in.evals[t.inst], t.seed, nil); err != nil {
			return err
		}
		untracedNs += float64(now().Sub(u0).Nanoseconds())

		st := &solveTrace{tr: tr, item: t.id, root: tr.reserve()}
		t0 := now()
		sol, fitness, evals, err := tracedDriver(st, in.evals[t.inst], t)
		t1 := now()
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.note("traced triple %d failed: %v", t.id, err)
			continue
		}
		if fp := fingerprint(t.spec, t.seed, in.hashes[t.inst], sol, fitness, evals); fp != want[t.id] {
			rep.failed++
			rep.note("traced triple %d: fingerprint %s, untraced %s", t.id, fp, want[t.id])
			continue
		}
		s := span{ID: st.root, Name: "solve", Item: t.id, Start: tr.at(t0), End: tr.at(t1)}
		tr.add(s)
		solveSpans = append(solveSpans, s)
		evalsTotal += float64(evals)
		phases += st.phases
		proposed += st.proposedPhases
		accepted += st.acceptedPhases
		if h := st.genHooks; len(h) >= 2 {
			// Generations before the first hook ran at the pace of the
			// ones after it; the rest of the time to the first hook is
			// drawing and scoring the initial population.
			last := h[len(h)-1]
			perGen := float64(last.at.Sub(h[0].at).Nanoseconds()) / float64(last.gen-h[0].gen)
			gaInitNs = append(gaInitNs, math.Max(float64(h[0].at.Sub(t0).Nanoseconds())-float64(h[0].gen)*perGen, 0))
		}
	}

	kids := tr.children()
	var solveNs, selfNs float64
	for _, s := range solveSpans {
		solveNs += float64(s.dur())
		// Driver self time: the solve minus its placement and propose
		// spans (GA generation spans are driver time, not children).
		var inner []span
		for _, c := range kids[s.ID] {
			if c.Name != "ga.generations" {
				inner = append(inner, c)
			}
		}
		selfNs += float64(selfTime(s, inner))
	}
	var proposeBusy, proposeCount float64
	for _, s := range tr.named("localsearch.propose") {
		proposeBusy += float64(s.Busy)
		proposeCount += float64(s.Count)
	}
	var placeNs []float64
	for _, s := range tr.named("placement.place") {
		placeNs = append(placeNs, float64(s.dur()))
	}
	var genBusy, gens float64
	for _, s := range tr.named("ga.generations") {
		genBusy += float64(s.Busy)
		gens += float64(s.Count)
	}

	rep.perLayer["wmn.step_ns"] = ratio(selfNs, evalsTotal)
	rep.perLayer["placement.place_us"] = mean(placeNs) / 1e3
	rep.perLayer["localsearch.proposals"] = proposeCount
	rep.perLayer["localsearch.phases"] = float64(phases)
	rep.perLayer["localsearch.propose_ns"] = ratio(proposeBusy, proposeCount)
	rep.perLayer["localsearch.propose_share"] = ratio(proposeBusy, solveNs)
	rep.perLayer["localsearch.accept_ratio"] = ratio(float64(accepted), float64(proposed))
	rep.perLayer["ga.generations"] = gens
	rep.perLayer["ga.gen_us"] = ratio(genBusy, gens) / 1e3
	rep.perLayer["ga.init_ms"] = mean(gaInitNs) / 1e6
	// Untraced ÷ traced solves per second over the same triples, minus 1.
	// A failed traced triple leaves its untraced time in; the run fails
	// anyway.
	rep.perLayer["harness.trace_overhead"] = ratio(solveNs, untracedNs) - 1
	rep.note("traced pass: %d triples, results equal to the untraced registry solves unless noted", len(solveSpans))

	path := filepath.Join(cfg.scratch, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.note("spans written to %s", path)
	return nil
}
