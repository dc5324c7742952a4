package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"meshplace/internal/cluster"
	"meshplace/internal/rng"
	"meshplace/internal/scenarios"
	"meshplace/internal/server"
	"meshplace/internal/wmn"
)

// The serve-cluster workload's shape. DESIGN.md gives the reasons.
const (
	// serveRate is the offered rate of the fixed-rate phase, in requests
	// per second, well under capacity.
	serveRate = 250.0
	// serveMainShare is the share of the run the fixed-rate phase takes;
	// the capacity ladder gets the rest, in probes of serveProbe each.
	serveMainShare = 0.6
	serveProbe     = time.Second
	// servePool is the number of repeatable triples the skewed mix draws
	// from; serveZipf is the skew (weight of rank k ∝ 1/k^serveZipf).
	servePool = 240
	serveZipf = 1.0
	// serveCache is each replica's LRU capacity, well under the ~120
	// pool triples each replica owns, so evicted triples come back from
	// the journal (store hits).
	serveCache = 32
	// Per schedule slot: the share of never-seen seeds sent once (misses
	// and journal appends) and sent as a same-due-time pair (a miss and a
	// dedup wait). The rest draw from the pool.
	serveFreshShare = 0.08
	servePairShare  = 0.04
	// serveConns is the number of load workers, each with one request in
	// flight.
	serveConns = 2
	// serveLimit is the latency limit the capacity ladder holds p99 to.
	serveLimit = 50 * time.Millisecond
	// serveSetupReps is how many times a run builds its inputs and
	// starts the replicas; setup_s is the median.
	serveSetupReps = 15
)

// serveSpecs are the cheap specs of the mix, and serveSpecCycle the order
// triples take them in: three small searches to one ad hoc placement.
// Triples are assigned instances and specs in a fixed rotation, not by
// draw, so every seed serves the same composition and only the seeds and
// the order of the draws vary.
var (
	serveSpecs     = []string{"search:phases=8,neighbors=4", "adhoc"}
	serveSpecCycle = []int{0, 0, 0, 1}
)

var serveScales = []string{"half", "base"}

// serveTriple is one distinct (instance, spec, seed) request body.
type serveTriple struct {
	inst, spec int
	seed       uint64
}

// serveRequest is one scheduled request.
type serveRequest struct {
	triple int // index into serveGen.triples
	due    time.Duration
	target int // replica whose front door receives it
}

// serveGen draws the seeded request sequence. The same seed gives the
// same triples, bodies, due times and targets.
type serveGen struct {
	r         *rng.Rand
	instances []*wmn.Instance
	specs     []server.Spec
	triples   []serveTriple
	bodies    [][]byte
	cdf       []float64 // cumulative pool weights, rank order
	fresh     uint64    // seeds of never-seen triples count up from here
	sent      int       // requests drawn so far, for round-robin targets
}

func newServeGen(seed uint64, instances []*wmn.Instance) (*serveGen, error) {
	g := &serveGen{r: rng.DeriveString(seed, "perfbench/serve-cluster"), instances: instances, fresh: 1 << 40}
	for _, s := range serveSpecs {
		sp, err := server.ParseSpec(s)
		if err != nil {
			return nil, err
		}
		g.specs = append(g.specs, sp)
	}
	total := 0.0
	for k := 0; k < servePool; k++ {
		// Pool seeds lie below the never-seen range.
		if _, err := g.add(g.rotation(k, g.r.Uint64()%(1<<40))); err != nil {
			return nil, err
		}
		total += 1 / math.Pow(float64(k+1), serveZipf)
		g.cdf = append(g.cdf, total)
	}
	for k := range g.cdf {
		g.cdf[k] /= total
	}
	return g, nil
}

// rotation is the k-th triple of the fixed instance/spec rotation.
func (g *serveGen) rotation(k int, seed uint64) serveTriple {
	n := len(g.instances)
	return serveTriple{inst: k % n, spec: serveSpecCycle[(k/n)%len(serveSpecCycle)], seed: seed}
}

// add registers a distinct triple and its request body.
func (g *serveGen) add(t serveTriple) (int, error) {
	body, err := json.Marshal(server.SolveRequest{
		Solver: g.specs[t.spec], Seed: t.seed, Instance: g.instances[t.inst], Mode: "sync",
	})
	if err != nil {
		return 0, err
	}
	g.triples = append(g.triples, t)
	g.bodies = append(g.bodies, body)
	return len(g.triples) - 1, nil
}

func (g *serveGen) freshTriple() (int, error) {
	g.fresh++
	return g.add(g.rotation(int(g.fresh), g.fresh))
}

// schedule draws the requests of slots schedule slots at rate per second.
// A slot holds one request, or two identical fresh ones due together.
func (g *serveGen) schedule(slots int, rate float64) ([]serveRequest, error) {
	var out []serveRequest
	push := func(triple int, due time.Duration) {
		out = append(out, serveRequest{triple: triple, due: due, target: g.sent % 2})
		g.sent++
	}
	for s := 0; s < slots; s++ {
		due := time.Duration(float64(s) / rate * float64(time.Second))
		u := g.r.Float64()
		switch {
		case u < serveFreshShare:
			t, err := g.freshTriple()
			if err != nil {
				return nil, err
			}
			push(t, due)
		case u < serveFreshShare+servePairShare:
			t, err := g.freshTriple()
			if err != nil {
				return nil, err
			}
			push(t, due)
			push(t, due)
		default:
			v := g.r.Float64()
			k := 0
			for k < len(g.cdf)-1 && g.cdf[k] < v {
				k++
			}
			push(k, due)
		}
	}
	return out, nil
}

// replicas is the two-node cluster on loopback.
type replicas struct {
	nodes   []*cluster.Node
	servers []*httptest.Server
	urls    []string
	dir     string
	client  *http.Client
}

func startReplicas(cfg config) (*replicas, error) {
	dir, err := tempDir(cfg, "serve-")
	if err != nil {
		return nil, err
	}
	rs := &replicas{dir: dir}
	var lns []net.Listener
	for range 2 {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns {
				l.Close()
			}
			os.RemoveAll(dir)
			return nil, err
		}
		lns = append(lns, ln)
		rs.urls = append(rs.urls, "http://"+ln.Addr().String())
	}
	for i, ln := range lns {
		node, err := cluster.New(cluster.Config{
			SelfURL:     rs.urls[i],
			Peers:       rs.urls,
			JournalPath: filepath.Join(dir, fmt.Sprintf("node%d.journal", i)),
			Server:      server.Config{CacheSize: serveCache},
		})
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			rs.close()
			return nil, err
		}
		ts := &httptest.Server{Listener: ln, Config: &http.Server{Handler: node}}
		ts.Start()
		rs.nodes = append(rs.nodes, node)
		rs.servers = append(rs.servers, ts)
	}
	rs.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: serveConns, MaxConnsPerHost: serveConns},
		Timeout:   30 * time.Second,
	}
	return rs, nil
}

// close stops both replicas, waiting for their connections, and removes
// their journals.
func (rs *replicas) close() {
	if rs.client != nil {
		rs.client.CloseIdleConnections()
	}
	for _, ts := range rs.servers {
		ts.Close()
	}
	for _, n := range rs.nodes {
		n.Close()
	}
	os.RemoveAll(rs.dir)
}

// reqObs is one answered (or failed) request.
type reqObs struct {
	req       serveRequest
	timing    sendTiming
	path      string
	forwarded bool
	metrics   server.RequestMetrics
	result    []byte
	err       error
}

// post sends one request to its target replica.
func (rs *replicas) post(body []byte, target int) reqObs {
	var o reqObs
	resp, err := rs.client.Post(rs.urls[target]+"/v1/solve", "application/json", bytes.NewReader(body))
	if err != nil {
		o.err = err
		return o
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		o.err = err
		return o
	}
	if resp.StatusCode != http.StatusOK {
		o.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
		return o
	}
	var env server.SolveResponse
	if err := json.Unmarshal(data, &env); err != nil {
		o.err = err
		return o
	}
	o.result = env.Result
	o.metrics = env.RequestMetrics
	o.path = env.RequestMetrics.CachePath
	o.forwarded = resp.Header.Get("X-Served-By") != ""
	return o
}

// drive runs one open-loop phase of requests against the replicas.
func (rs *replicas) drive(g *serveGen, reqs []serveRequest) []reqObs {
	due := make([]time.Duration, len(reqs))
	for i, r := range reqs {
		due[i] = r.due
	}
	obs := make([]reqObs, len(reqs))
	timings := openLoop(now(), due, serveConns, func(i int) {
		obs[i] = rs.post(g.bodies[reqs[i].triple], reqs[i].target)
	})
	for i := range obs {
		obs[i].req = reqs[i]
		obs[i].timing = timings[i]
	}
	return obs
}

// serveChecker holds the reference payload of every triple, from a local
// server that has never seen the triple, solved on demand.
type serveChecker struct {
	local *server.Server
	g     *serveGen
	refs  map[int][]byte
}

func newServeChecker(g *serveGen) *serveChecker {
	return &serveChecker{
		local: server.New(server.Config{CacheSize: 0, DisableBatching: true, Workers: 1}),
		g:     g,
		refs:  map[int][]byte{},
	}
}

func (c *serveChecker) close() { c.local.Close() }

// check compares every answered request's result byte for byte with the
// reference payload of its triple, solving the references not yet held.
// It returns the number of failed or mismatched requests.
func (c *serveChecker) check(rep *report, obs []reqObs) (int, error) {
	var todo []int
	seen := map[int]bool{}
	for _, o := range obs {
		if _, ok := c.refs[o.req.triple]; !ok && !seen[o.req.triple] {
			seen[o.req.triple] = true
			todo = append(todo, o.req.triple)
		}
	}
	for _, t := range todo {
		rec := httptest.NewRecorder()
		c.local.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(c.g.bodies[t])))
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("local cold solve of triple %d: status %d: %s", t, rec.Code, rec.Body.Bytes())
		}
		var env server.SolveResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			return 0, fmt.Errorf("local cold solve of triple %d: %w", t, err)
		}
		c.refs[t] = env.Result
	}
	failed := 0
	for i, o := range obs {
		switch {
		case o.err != nil:
			failed++
			rep.note("request %d failed: %v", i, o.err)
		case !bytes.Equal(o.result, c.refs[o.req.triple]):
			failed++
			rep.note("request %d: payload differs from the local cold solve of triple %d", i, o.req.triple)
		}
	}
	return failed, nil
}

// payloadFacts are the fields of a result payload the metrics use.
type payloadFacts struct {
	Evaluations int `json:"evaluations"`
	Metrics     struct {
		Fitness float64 `json:"fitness"`
	} `json:"metrics"`
}

func facts(payload []byte) payloadFacts {
	var f payloadFacts
	_ = json.Unmarshal(payload, &f) // checked payloads always decode
	return f
}

// serveInputs is serve-cluster's set-up: instances, the request generator
// with the fixed-rate phase drawn, and running replicas.
type serveInputs struct {
	g      *serveGen
	main   []serveRequest
	rs     *replicas
	genNs  []float64
	evalNs []float64
}

func buildServeInputs(cfg config) (*serveInputs, error) {
	in := &serveInputs{}
	var instances []*wmn.Instance
	for _, sc := range scenarios.Filter(scenarios.Corpus(corpusSeed), serveScales...) {
		t0 := now()
		inst, err := wmn.Generate(sc.Gen)
		if err != nil {
			return nil, fmt.Errorf("generate %s: %w", sc.Name, err)
		}
		t1 := now()
		// The replicas build their own evaluators; this build only times
		// the layer and validates the instance.
		if _, err := wmn.NewEvaluator(inst, wmn.EvalOptions{}); err != nil {
			return nil, fmt.Errorf("evaluator %s: %w", sc.Name, err)
		}
		t2 := now()
		in.genNs = append(in.genNs, float64(t1.Sub(t0).Nanoseconds()))
		in.evalNs = append(in.evalNs, float64(t2.Sub(t1).Nanoseconds()))
		instances = append(instances, inst)
	}
	g, err := newServeGen(cfg.seed, instances)
	if err != nil {
		return nil, err
	}
	in.g = g
	mainSecs := serveMainShare * float64(cfg.seconds)
	if in.main, err = g.schedule(int(mainSecs*serveRate), serveRate); err != nil {
		return nil, err
	}
	if in.rs, err = startReplicas(cfg); err != nil {
		return nil, err
	}
	return in, nil
}

func runServeWorkload(cfg config) (*report, error) {
	rep := newReport()
	var in *serveInputs
	var setups []float64
	for range serveSetupReps {
		if in != nil {
			in.rs.close()
		}
		runtime.GC() // each build starts from a collected heap
		t0 := now()
		var err error
		if in, err = buildServeInputs(cfg); err != nil {
			return nil, err
		}
		setups = append(setups, now().Sub(t0).Seconds())
	}
	defer func() { in.rs.close() }()
	rep.endToEnd["setup_s"] = median(setups)

	checker := newServeChecker(in.g)
	defer checker.close()

	// The fixed-rate phase.
	m0 := readMem()
	obs := in.rs.drive(in.g, in.main)
	m1 := readMem()
	rep.endToEnd["peak_rss_mb"] = peakRSSMB()
	failed, err := checker.check(rep, obs)
	if err != nil {
		return nil, err
	}
	rep.attempted += len(obs)
	rep.failed += failed
	serveEndToEnd(rep, obs, checker)

	if cfg.trace {
		goLayer(rep, m0, m1, len(obs))
		rep.perLayer["wmn.generate_ms"] = mean(in.genNs) / 1e6
		rep.perLayer["wmn.evaluator_build_us"] = mean(in.evalNs) / 1e3
		if err := tracedServe(cfg, rep, in, checker, obs); err != nil {
			return nil, err
		}
	} else {
		capacity, err := capacityLadder(cfg, rep, in, checker, connectionBound(obs))
		if err != nil {
			return nil, err
		}
		rep.endToEnd["capacity_rps"] = capacity
	}
	zeroLayers(rep)
	return rep, nil
}

// connectionBound estimates capacity from the fixed-rate phase: the
// connections divided by the mean time a request holds one.
func connectionBound(obs []reqObs) float64 {
	var inFlight []float64
	for _, o := range obs {
		if o.err == nil {
			inFlight = append(inFlight, o.timing.done.Sub(o.timing.sent).Seconds())
		}
	}
	return ratio(serveConns, mean(inFlight))
}

// serveEndToEnd fills the end-to-end metrics of the fixed-rate phase.
func serveEndToEnd(rep *report, obs []reqObs, c *serveChecker) {
	var lat, solveMs []float64
	var evals float64
	ok := 0
	first, last := obs[0].timing.due, obs[0].timing.done
	for _, o := range obs {
		if o.timing.done.After(last) {
			last = o.timing.done
		}
		if o.err != nil || !bytes.Equal(o.result, c.refs[o.req.triple]) {
			continue
		}
		ok++
		lat = append(lat, float64(o.timing.latency().Nanoseconds())/1e6)
		if o.path == server.CacheMiss {
			solveMs = append(solveMs, float64(o.metrics.SolveNs)/1e6)
			evals += float64(facts(o.result).Evaluations)
		}
	}
	// Fitness over the phase's distinct triples: the sequence is fixed by
	// the seed, so this is too.
	seen := map[int]bool{}
	var fit []float64
	for _, o := range obs {
		if !seen[o.req.triple] {
			seen[o.req.triple] = true
			fit = append(fit, facts(c.refs[o.req.triple]).Metrics.Fitness)
		}
	}
	// The cluster's solver throughput at the offered rate: fresh
	// computations, and the evaluations they made, per second of the
	// phase. Solver speed on this path shows in solve_p50_ms/solve_p95_ms.
	secs := last.Sub(first).Seconds()
	rep.endToEnd["solves_per_s"] = ratio(float64(len(solveMs)), secs)
	rep.endToEnd["evals_per_s"] = ratio(evals, secs)
	rep.endToEnd["mean_fitness"] = mean(fit)
	rep.endToEnd["goodput_rps"] = ratio(float64(ok), secs)
	percentiles(rep, "solve", solveMs, 50, 95)
	percentiles(rep, "req", lat, 50, 95)
	// p99 from the due time is printed but not bounded: on a virtual
	// machine whose CPUs are shared, its run-to-run spread exceeds any
	// bound the benchmark may set.
	p99, p, _ := tailPercentile(lat, 99)
	rep.note("req p%g (unbounded) %.4g ms over %d samples", p, p99, len(lat))
	rep.note("fixed-rate phase: %d requests at %.0f req/s, %d distinct triples, %d computed on a miss", len(obs), serveRate, len(fit), len(solveMs))
}

// ladderRung is the offered rate of rung k of the capacity ladder: 50
// req/s times ladderStep^k.
func ladderRung(k int) float64 { return 50 * math.Pow(ladderStep, float64(k)) }

const (
	ladderStep  = 1.04
	ladderRungs = 120 // up to ~5500 req/s
	// ladderStart scales the connection-bound estimate to the first
	// probe's rate; the estimate ignores queueing, so it runs high.
	ladderStart = 0.9
	// ladderMinPeaks is how many highest-passing rungs the staircase
	// collects before it may stop, even past its time budget.
	ladderMinPeaks  = 3
	ladderMaxProbes = 20
)

// probe offers rate for serveProbe and reports whether p99 latency from
// the due time met serveLimit with no growing backlog (the last tenth of
// the sends no later than the limit).
func probe(rep *report, in *serveInputs, c *serveChecker, rate float64) (bool, error) {
	reqs, err := in.g.schedule(int(math.Max(serveProbe.Seconds()*rate, 50)), rate)
	if err != nil {
		return false, err
	}
	obs := in.rs.drive(in.g, reqs)
	failed, err := c.check(rep, obs)
	if err != nil {
		return false, err
	}
	rep.attempted += len(obs)
	rep.failed += failed
	lat := make([]float64, 0, len(obs))
	for _, o := range obs {
		if o.err != nil {
			// A failed request misses any latency limit.
			lat = append(lat, math.Inf(1))
			continue
		}
		lat = append(lat, float64(o.timing.latency().Nanoseconds()))
	}
	p99, _, _ := tailPercentile(lat, 99)
	backlog := time.Duration(0)
	for _, o := range obs[len(obs)*9/10:] {
		backlog = max(backlog, o.timing.lateness())
	}
	return failed == 0 && time.Duration(p99) <= serveLimit && backlog <= serveLimit, nil
}

// capacityLadder finds the highest rung that meets the limit with an
// up-down staircase: after a passing probe it offers the next rung up,
// after a failing one the next rung down (two rungs at a time until the
// first failure). Each pass followed by a failure is one observation of
// the highest passing rung; the capacity is their median, which a single
// unlucky probe does not move. It probes for the rest of the run's
// budget, and until it has ladderMinPeaks observations.
func capacityLadder(cfg config, rep *report, in *serveInputs, c *serveChecker, estimate float64) (float64, error) {
	deadline := now().Add(time.Duration((1 - serveMainShare) * float64(cfg.seconds) * float64(time.Second)))
	k := int(math.Floor(math.Log(math.Max(ladderStart*estimate, 50)/50) / math.Log(ladderStep)))
	k = min(k, ladderRungs-1)
	step := 2
	var peaks []float64
	passedAny := false
	probes := 0
	for ; probes < ladderMaxProbes && (now().Before(deadline) || len(peaks) < ladderMinPeaks); probes++ {
		pass, err := probe(rep, in, c, ladderRung(k))
		if err != nil {
			return 0, err
		}
		switch {
		case pass && k == ladderRungs-1:
			peaks = append(peaks, ladderRung(k)) // the ladder's top
		case pass:
			passedAny = true
			k += step
		default:
			if passedAny && probes > 0 {
				peaks = append(peaks, ladderRung(k-step))
			}
			step = 1
			passedAny = false
			if k == 0 {
				return 0, fmt.Errorf("capacity ladder: not even %.0f req/s meets the %v p99 limit", ladderRung(0), serveLimit)
			}
			k = max(k-step, 0)
		}
	}
	if len(peaks) == 0 {
		return 0, fmt.Errorf("capacity ladder: no passing rung found in %d probes", probes)
	}
	capacity := median(peaks)
	rep.note("capacity ladder: estimate %.0f req/s, %d probes, highest passing rungs %.0f, median %.1f req/s (p99 limit %v)", estimate, probes, peaks, capacity, serveLimit)
	return capacity, nil
}

// tracedServe replays the fixed-rate phase on fresh replicas with the
// client recording spans, and reads the layers' counters from the
// responses' RequestMetrics, GET /v1/metrics and the journals.
func tracedServe(cfg config, rep *report, in *serveInputs, c *serveChecker, untraced []reqObs) error {
	rs, err := startReplicas(cfg)
	if err != nil {
		return err
	}
	defer rs.close()
	due := make([]time.Duration, len(in.main))
	for i, r := range in.main {
		due[i] = r.due
	}
	obs := make([]reqObs, len(in.main))
	timings := openLoop(now(), due, serveConns, func(i int) {
		obs[i] = rs.post(in.g.bodies[in.main[i].triple], in.main[i].target)
	})
	tr := newTracer()
	for i := range obs {
		obs[i].req = in.main[i]
		obs[i].timing = timings[i]
		// The client span, with the server's phases placed at its end:
		// the server reports durations, not clock readings.
		m := obs[i].metrics
		end := tr.at(timings[i].done)
		root := tr.add(span{Name: "client", Item: i, Start: tr.at(timings[i].sent), End: end})
		if obs[i].err != nil {
			continue
		}
		at := end - m.TotalNs
		srv := tr.add(span{Parent: root, Name: "server.total", Item: i, Start: at, End: end})
		for _, ph := range []struct {
			name string
			ns   int64
		}{{"server.queue_wait", m.QueueWaitNs}, {"server.batch_build", m.BatchBuildNs}, {"server.solve", m.SolveNs}} {
			if ph.ns > 0 {
				tr.add(span{Parent: srv, Name: ph.name, Item: i, Start: at, End: at + ph.ns})
				at += ph.ns
			}
		}
	}

	failed, err := c.check(rep, obs)
	if err != nil {
		return err
	}
	rep.attempted += len(obs)
	rep.failed += failed

	var snaps []server.MetricsSnapshot
	for _, u := range rs.urls {
		resp, err := rs.client.Get(u + "/v1/metrics")
		if err != nil {
			return fmt.Errorf("GET /v1/metrics: %w", err)
		}
		var snap server.MetricsSnapshot
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("GET /v1/metrics: %w", err)
		}
		snaps = append(snaps, snap)
	}
	serveLayers(rep, obs, snaps, rs)

	// Untraced ÷ traced throughput − 1, with throughput the inverse of the
	// median request latency.
	untracedP50 := median(latenciesMs(untraced))
	rep.perLayer["harness.trace_overhead"] = ratio(median(latenciesMs(obs)), untracedP50) - 1

	path := filepath.Join(cfg.scratch, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.note("spans written to %s", path)
	return nil
}

func latenciesMs(obs []reqObs) []float64 {
	out := make([]float64, 0, len(obs))
	for _, o := range obs {
		if o.err == nil {
			out = append(out, float64(o.timing.latency().Nanoseconds())/1e6)
		}
	}
	return out
}

// serveLayers fills the server, cluster and harness per-layer metrics
// from the traced phase.
func serveLayers(rep *report, obs []reqObs, snaps []server.MetricsSnapshot, rs *replicas) {
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	count := map[string]float64{}
	total := map[string][]float64{}
	var qw, bb, sv, batch, outside, storeHit, lag []float64
	local, fwd := map[string][]float64{}, map[string][]float64{}
	forwarded := 0
	for _, o := range obs {
		lag = append(lag, float64(o.timing.lateness().Nanoseconds())/1e6)
		if o.err != nil {
			continue
		}
		m := o.metrics
		count[o.path]++
		total[o.path] = append(total[o.path], us(m.TotalNs))
		sentToDone := us(o.timing.done.Sub(o.timing.sent).Nanoseconds())
		if o.forwarded {
			forwarded++
			fwd[o.path] = append(fwd[o.path], sentToDone)
		} else {
			local[o.path] = append(local[o.path], sentToDone)
			if o.path == server.CacheHit {
				outside = append(outside, sentToDone-us(m.TotalNs))
			}
		}
		switch o.path {
		case server.CacheMiss:
			qw = append(qw, us(m.QueueWaitNs))
			bb = append(bb, us(m.BatchBuildNs))
			sv = append(sv, us(m.SolveNs))
			batch = append(batch, float64(m.BatchSize))
		case server.CacheDedupWait:
			batch = append(batch, float64(m.BatchSize))
		case server.CacheStoreHit:
			storeHit = append(storeHit, sentToDone)
		}
	}
	n := float64(len(obs))
	var computations, batches, timeouts, fails float64
	for _, s := range snaps {
		computations += float64(s.Computations)
		batches += float64(s.Batches)
		timeouts += float64(s.BatchFlushTimeout)
		fails += float64(s.ForwardFails)
	}
	var appends, journalBytes float64
	for i, node := range rs.nodes {
		appends += float64(node.Journal().Stats().Appended)
		if fi, err := os.Stat(filepath.Join(rs.dir, fmt.Sprintf("node%d.journal", i))); err == nil {
			journalBytes += float64(fi.Size())
		}
	}

	l := rep.perLayer
	l["server.hit"] = count[server.CacheHit]
	l["server.store_hit"] = count[server.CacheStoreHit]
	l["server.dedup_wait"] = count[server.CacheDedupWait]
	l["server.miss"] = count[server.CacheMiss]
	l["server.hit_ratio"] = ratio(count[server.CacheHit], n)
	l["server.computations_per_request"] = ratio(computations, n)
	l["server.queue_wait_us.p50"] = median(qw)
	l["server.queue_wait_us.p99"], _, _ = tailPercentile(qw, 99)
	l["server.batch_build_us"] = median(bb)
	l["server.solve_us"] = median(sv)
	l["server.total_us.hit"] = median(total[server.CacheHit])
	l["server.total_us.store_hit"] = median(total[server.CacheStoreHit])
	l["server.total_us.dedup_wait"] = median(total[server.CacheDedupWait])
	l["server.total_us.miss"] = median(total[server.CacheMiss])
	l["server.outside_us"] = median(outside)
	l["server.batch_size_mean"] = mean(batch)
	l["server.flush_timeout_ratio"] = ratio(timeouts, batches)
	l["cluster.forwarded_ratio"] = ratio(float64(forwarded), n)
	l["cluster.forward_fails"] = fails
	l["cluster.forward_extra_us"] = median(fwd[server.CacheHit]) - median(local[server.CacheHit])
	l["cluster.journal_appends"] = appends
	l["cluster.journal_bytes"] = journalBytes
	l["cluster.store_hit_us"] = median(storeHit)
	l["harness.gen_lag_ms"], _, _ = tailPercentile(lag, 99)
	rep.note("traced phase paths: %.0f hit / %.0f store-hit / %.0f dedup-wait / %.0f miss; %d forwarded; hit local %d / forwarded %d",
		count[server.CacheHit], count[server.CacheStoreHit], count[server.CacheDedupWait], count[server.CacheMiss],
		forwarded, len(local[server.CacheHit]), len(fwd[server.CacheHit]))
}
