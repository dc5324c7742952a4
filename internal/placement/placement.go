// Package placement implements the paper's seven ad hoc methods for mesh
// router placement (§3): Random, ColLeft, Diag, Cross, Near, Corners and
// HotSpot. Each method explores a fixed topological pattern; per the paper,
// "most of the node placements follow the pattern" — the PatternFraction
// option controls how many routers are placed on-pattern, with the
// remainder placed uniformly at random.
//
// Ad hoc methods serve two roles (§3): producing fast stand-alone
// placements, and initializing populations for evolutionary algorithms.
package placement

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"meshplace/internal/geom"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// Method identifies one ad hoc placement method.
type Method int

// The seven methods of §3, in the paper's order.
const (
	Random Method = iota + 1
	ColLeft
	Diag
	Cross
	Near
	Corners
	HotSpot
)

var methodNames = [...]string{
	Random:  "Random",
	ColLeft: "ColLeft",
	Diag:    "Diag",
	Cross:   "Cross",
	Near:    "Near",
	Corners: "Corners",
	HotSpot: "HotSpot",
}

// Methods returns all seven methods in the paper's order.
func Methods() []Method {
	return []Method{Random, ColLeft, Diag, Cross, Near, Corners, HotSpot}
}

// String implements fmt.Stringer.
func (m Method) String() string {
	if m >= Random && m <= HotSpot {
		return methodNames[m]
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// MethodFromName parses a method name, case-insensitively.
func MethodFromName(name string) (Method, error) {
	for _, m := range Methods() {
		if strings.EqualFold(m.String(), name) {
			return m, nil
		}
	}
	return 0, fmt.Errorf("placement: unknown method %q", name)
}

// Options tunes the patterned methods. The zero value selects the defaults
// below; all fractions are relative to the area dimensions.
type Options struct {
	// PatternFraction is the fraction of routers placed on-pattern; the
	// rest are uniform random ("most of the node placements follow the
	// pattern", §3). Default 0.85.
	PatternFraction float64
	// Jitter is the standard deviation of the Gaussian noise added to
	// on-pattern positions of the line-based methods (Diag, Cross,
	// ColLeft). Default 1.5.
	Jitter float64
	// ColFraction is the width of ColLeft's left strip as a fraction of
	// the area width. Default 0.15.
	ColFraction float64
	// NearFraction is the half-width of Near's central rectangle as a
	// fraction of each dimension ("minimum and maximum values ... trace a
	// rectangle in the central part", §3). Default 0.24.
	NearFraction float64
	// CornerFraction is the side of each Corners box as a fraction of the
	// smaller area dimension ("areas in the corners are fixed by user
	// specified parameter values", §3). Default 0.15.
	CornerFraction float64
	// HotSpotCell is the side length of the density-grid cells HotSpot
	// ranks ("most dense zone in terms of client nodes", §3). Default 5.
	HotSpotCell float64
	// DiagTolerance is the maximum relative width/height mismatch for
	// which Diag and Cross are considered applicable (the paper uses 10%).
	// Placement still succeeds outside the tolerance; Applicable reports
	// it. Default 0.10.
	DiagTolerance float64
}

func (o Options) withDefaults() Options {
	if o.PatternFraction == 0 {
		o.PatternFraction = 0.85
	}
	if o.Jitter == 0 {
		o.Jitter = 1.5
	}
	if o.ColFraction == 0 {
		o.ColFraction = 0.15
	}
	if o.NearFraction == 0 {
		o.NearFraction = 0.24
	}
	if o.CornerFraction == 0 {
		o.CornerFraction = 0.15
	}
	if o.HotSpotCell == 0 {
		o.HotSpotCell = 5
	}
	if o.DiagTolerance == 0 {
		o.DiagTolerance = 0.10
	}
	return o
}

// Validate rejects out-of-range options.
func (o Options) Validate() error {
	o = o.withDefaults()
	if o.PatternFraction < 0 || o.PatternFraction > 1 {
		return fmt.Errorf("placement: PatternFraction %g outside [0,1]", o.PatternFraction)
	}
	if o.Jitter < 0 {
		return fmt.Errorf("placement: negative Jitter %g", o.Jitter)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"ColFraction", o.ColFraction},
		{"NearFraction", o.NearFraction},
		{"CornerFraction", o.CornerFraction},
	} {
		if f.v <= 0 || f.v > 0.5 {
			return fmt.Errorf("placement: %s %g outside (0,0.5]", f.name, f.v)
		}
	}
	if o.HotSpotCell <= 0 {
		return fmt.Errorf("placement: non-positive HotSpotCell %g", o.HotSpotCell)
	}
	return nil
}

// Placer produces a solution for an instance. Implementations are
// stateless; all randomness comes from the supplied generator, so a placer
// can be reused across instances and goroutines.
type Placer interface {
	// Method identifies the placer.
	Method() Method
	// Place computes router positions for the instance.
	Place(in *wmn.Instance, r *rng.Rand) (wmn.Solution, error)
}

// New constructs the placer for a method.
func New(m Method, opts Options) (Placer, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	switch m {
	case Random:
		return &randomPlacer{}, nil
	case ColLeft:
		return &colLeftPlacer{opts: opts}, nil
	case Diag:
		return &diagPlacer{opts: opts, cross: false}, nil
	case Cross:
		return &diagPlacer{opts: opts, cross: true}, nil
	case Near:
		return &nearPlacer{opts: opts}, nil
	case Corners:
		return &cornersPlacer{opts: opts}, nil
	case HotSpot:
		return &hotSpotPlacer{opts: opts}, nil
	default:
		return nil, fmt.Errorf("placement: unknown method %v", m)
	}
}

// Prepare binds a placer to one instance for repeated placements: each
// call of the returned function draws exactly what p.Place(in, r) would.
// Set-up that reads only the instance — HotSpot's density grid, zone
// ranking and router order — is done once here instead of per placement,
// so drawing a GA population of HotSpot individuals does not rebuild the
// grid for every individual. The instance must not change while the
// function is in use.
func Prepare(p Placer, in *wmn.Instance) func(r *rng.Rand) (wmn.Solution, error) {
	if pp, ok := p.(interface {
		prepare(*wmn.Instance) func(*rng.Rand) (wmn.Solution, error)
	}); ok {
		return pp.prepare(in)
	}
	return func(r *rng.Rand) (wmn.Solution, error) { return p.Place(in, r) }
}

// All constructs placers for all seven methods in the paper's order.
func All(opts Options) ([]Placer, error) {
	out := make([]Placer, 0, len(Methods()))
	for _, m := range Methods() {
		p, err := New(m, opts)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// uniformIn draws a point uniformly inside rect.
func uniformIn(rect geom.Rect, r *rng.Rand) geom.Point {
	return geom.Point{
		X: rect.Min.X + r.Float64()*rect.Width(),
		Y: rect.Min.Y + r.Float64()*rect.Height(),
	}
}

// jitterInto adds Gaussian noise to p and clamps the result into area.
func jitterInto(p geom.Point, sigma float64, area geom.Rect, r *rng.Rand) geom.Point {
	if sigma > 0 {
		p.X += r.NormFloat64() * sigma
		p.Y += r.NormFloat64() * sigma
	}
	return area.Clamp(p)
}

// scatterSlot returns a deterministic pseudo-random position for
// off-pattern slot k of the deterministic methods (ColLeft, Near, Corners).
// §3 notes that "most of the node placements follow the pattern" — a few
// routers sit elsewhere — but for these methods the stray positions must
// not vary between runs, or the strays would hand the GA fresh genetic
// material and the methods would stop behaving as the paper's degenerate
// initializers. The additive Weyl sequence below scatters slots across the
// area deterministically.
func scatterSlot(k int, area geom.Rect) geom.Point {
	const (
		alphaX = 0.7548776662466927 // 1/φ₂ of the plastic number
		alphaY = 0.5698402909980532 // 1/φ₂²
	)
	fx := math.Mod(0.5+alphaX*float64(k+1), 1)
	fy := math.Mod(0.5+alphaY*float64(k+1), 1)
	return geom.Pt(area.Min.X+fx*area.Width(), area.Min.Y+fy*area.Height())
}

// patternSplit returns how many of n routers follow the pattern, and a
// shuffled index order so the off-pattern routers are not always the
// highest indices (indices carry radii, and radii must not correlate with
// the pattern assignment).
func patternSplit(n int, fraction float64, r *rng.Rand) (onPattern int, order []int) {
	return patternCount(n, fraction), rng.Perm(r, n)
}

// patternSplitFixed is patternSplit with the identity order. The
// deterministic methods (ColLeft, Near) use it so that repeated placements
// produce near-identical solutions: every router keeps the same pattern
// slot. This is what makes their GA populations degenerate — the paper's
// §5 point that low initial diversity limits the evolutionary search.
func patternSplitFixed(n int, fraction float64) (onPattern int, order []int) {
	order = make([]int, n)
	for i := range order {
		order[i] = i
	}
	return patternCount(n, fraction), order
}

func patternCount(n int, fraction float64) int {
	onPattern := int(float64(n)*fraction + 0.5)
	if onPattern > n {
		onPattern = n
	}
	return onPattern
}

// --- Random ------------------------------------------------------------

type randomPlacer struct{}

func (*randomPlacer) Method() Method { return Random }

// Place distributes all routers uniformly at random over the area (§3,
// "Random placement").
func (*randomPlacer) Place(in *wmn.Instance, r *rng.Rand) (wmn.Solution, error) {
	if err := in.Validate(); err != nil {
		return wmn.Solution{}, err
	}
	sol := wmn.NewSolution(in.NumRouters())
	area := in.Area()
	for i := range sol.Positions {
		sol.Positions[i] = uniformIn(area, r)
	}
	return sol, nil
}

// --- ColLeft -------------------------------------------------------------

type colLeftPlacer struct {
	opts Options
}

func (*colLeftPlacer) Method() Method { return ColLeft }

// Place puts the on-pattern routers in a column at the left side of the
// area, evenly spaced vertically with a little jitter; the remainder are
// uniform random (§3, "ColLeft placement": "places almost all mesh routers
// at the left side of the grid area. Some mesh routers could be placed at
// other parts"). The column layout is deterministic — router k always gets
// the k-th slot — so repeated placements are near-identical.
func (p *colLeftPlacer) Place(in *wmn.Instance, r *rng.Rand) (wmn.Solution, error) {
	if err := in.Validate(); err != nil {
		return wmn.Solution{}, err
	}
	sol := wmn.NewSolution(in.NumRouters())
	area := in.Area()
	stripW := p.opts.ColFraction * in.Width
	// §3 says ColLeft "places almost all mesh routers at the left side";
	// only a third of the usual off-pattern share strays elsewhere.
	fraction := 1 - (1-p.opts.PatternFraction)/3
	onPattern, order := patternSplitFixed(in.NumRouters(), fraction)
	// Stray routers go to "other parts of the grid area" (§3) — the right
	// half, away from the column, so they never bridge the column's bands.
	rightHalf := geom.Rect{Min: geom.Pt(area.Min.X+in.Width/2, area.Min.Y), Max: area.Max}
	for k, idx := range order {
		if k >= onPattern {
			sol.Positions[idx] = jitterInto(scatterSlot(k, rightHalf), p.opts.Jitter/2, area, r)
			continue
		}
		// Two sub-columns at the strip edges; the horizontal slot is a
		// deterministic function of k. Alternating slots keep each
		// sub-column's vertical spacing at twice the slot pitch.
		fx := 0.05 + 0.9*float64(k%2)
		base := geom.Pt(
			area.Min.X+fx*stripW,
			area.Min.Y+(float64(k)+0.5)/float64(onPattern)*in.Height,
		)
		sol.Positions[idx] = jitterInto(base, p.opts.Jitter/2, area, r)
	}
	return sol, nil
}

// --- Diag and Cross --------------------------------------------------------

type diagPlacer struct {
	opts  Options
	cross bool
}

func (p *diagPlacer) Method() Method {
	if p.cross {
		return Cross
	}
	return Diag
}

// Applicable reports whether the instance satisfies the paper's
// precondition for diagonal methods: width and height within the configured
// tolerance of each other (§3 uses 10%).
func (p *diagPlacer) Applicable(in *wmn.Instance) bool {
	maxDim := in.Width
	if in.Height > maxDim {
		maxDim = in.Height
	}
	diff := in.Width - in.Height
	if diff < 0 {
		diff = -diff
	}
	return diff <= p.opts.DiagTolerance*maxDim
}

// Place concentrates the on-pattern routers along the main diagonal (Diag)
// or along both diagonals (Cross), with Gaussian jitter; the remainder are
// uniform random (§3).
func (p *diagPlacer) Place(in *wmn.Instance, r *rng.Rand) (wmn.Solution, error) {
	if err := in.Validate(); err != nil {
		return wmn.Solution{}, err
	}
	sol := wmn.NewSolution(in.NumRouters())
	area := in.Area()
	onPattern, order := patternSplit(in.NumRouters(), p.opts.PatternFraction, r)
	// Cross splits the on-pattern routers into two contiguous runs, one
	// per diagonal, so each diagonal stays a dense chain rather than a
	// chain with every other router missing.
	mainCount := onPattern
	if p.cross {
		// The main diagonal carries a slightly denser chain (60/40) so
		// that the cross keeps a connected spine; an even split leaves
		// both chains right at the link-reach threshold.
		mainCount = (onPattern*3 + 2) / 5
	}
	for k, idx := range order {
		if k >= onPattern {
			sol.Positions[idx] = uniformIn(area, r)
			continue
		}
		var base geom.Point
		if k < mainCount {
			t := (float64(k) + r.Float64()) / float64(mainCount)
			base = geom.Pt(area.Min.X+t*in.Width, area.Min.Y+t*in.Height)
		} else {
			t := (float64(k-mainCount) + r.Float64()) / float64(onPattern-mainCount)
			base = geom.Pt(area.Min.X+t*in.Width, area.Max.Y-t*in.Height)
		}
		sol.Positions[idx] = jitterInto(base, p.opts.Jitter, area, r)
	}
	return sol, nil
}

// --- Near ------------------------------------------------------------------

type nearPlacer struct {
	opts Options
}

func (*nearPlacer) Method() Method { return Near }

// Place distributes the on-pattern routers over the cells of a regular grid
// traced inside a rectangle in the central zone of the area (§3, "Near
// placement": "routers are distributed in the rectangle cells"); the
// remainder are uniform random. Like ColLeft, the cell layout is
// deterministic, so repeated placements are near-identical.
func (p *nearPlacer) Place(in *wmn.Instance, r *rng.Rand) (wmn.Solution, error) {
	if err := in.Validate(); err != nil {
		return wmn.Solution{}, err
	}
	sol := wmn.NewSolution(in.NumRouters())
	area := in.Area()
	c := area.Center()
	half := geom.Pt(p.opts.NearFraction*in.Width, p.opts.NearFraction*in.Height)
	central := geom.NewRect(c.Sub(half), c.Add(half))
	onPattern, order := patternSplitFixed(in.NumRouters(), p.opts.PatternFraction)
	cols := int(math.Ceil(math.Sqrt(float64(onPattern))))
	rows := (onPattern + cols - 1) / cols
	for k, idx := range order {
		if k >= onPattern {
			sol.Positions[idx] = jitterInto(scatterSlot(k, area), p.opts.Jitter/2, area, r)
			continue
		}
		base := geom.Pt(
			central.Min.X+(float64(k%cols)+0.5)/float64(cols)*central.Width(),
			central.Min.Y+(float64(k/cols)+0.5)/float64(rows)*central.Height(),
		)
		sol.Positions[idx] = jitterInto(base, p.opts.Jitter/2, area, r)
	}
	return sol, nil
}

// --- Corners -----------------------------------------------------------------

type cornersPlacer struct {
	opts Options
}

func (*cornersPlacer) Method() Method { return Corners }

// Place distributes the on-pattern routers over four square boxes in the
// corners of the area (§3, "Corners placement"), cycling router slots
// through the corners and through a regular grid inside each box; the
// remainder are uniform random. Like ColLeft and Near, the layout is
// deterministic, so repeated placements are near-identical.
func (p *cornersPlacer) Place(in *wmn.Instance, r *rng.Rand) (wmn.Solution, error) {
	if err := in.Validate(); err != nil {
		return wmn.Solution{}, err
	}
	sol := wmn.NewSolution(in.NumRouters())
	area := in.Area()
	minDim := in.Width
	if in.Height < minDim {
		minDim = in.Height
	}
	side := p.opts.CornerFraction * minDim
	boxes := [4]geom.Rect{
		geom.NewRect(area.Min, area.Min.Add(geom.Pt(side, side))),
		geom.NewRect(geom.Pt(area.Max.X-side, area.Min.Y), geom.Pt(area.Max.X, area.Min.Y+side)),
		geom.NewRect(geom.Pt(area.Min.X, area.Max.Y-side), geom.Pt(area.Min.X+side, area.Max.Y)),
		geom.NewRect(area.Max.Sub(geom.Pt(side, side)), area.Max),
	}
	onPattern, order := patternSplitFixed(in.NumRouters(), p.opts.PatternFraction)
	perBox := (onPattern + len(boxes) - 1) / len(boxes)
	cols := int(math.Ceil(math.Sqrt(float64(perBox))))
	rows := (perBox + cols - 1) / cols
	for k, idx := range order {
		if k >= onPattern {
			sol.Positions[idx] = jitterInto(scatterSlot(k, area), p.opts.Jitter/2, area, r)
			continue
		}
		box := boxes[k%len(boxes)]
		slot := k / len(boxes)
		base := geom.Pt(
			box.Min.X+(float64(slot%cols)+0.5)/float64(cols)*box.Width(),
			box.Min.Y+(float64(slot/cols)+0.5)/float64(rows)*box.Height(),
		)
		sol.Positions[idx] = jitterInto(base, p.opts.Jitter/2, area, r)
	}
	return sol, nil
}

// --- HotSpot -----------------------------------------------------------------

type hotSpotPlacer struct {
	opts Options
}

func (*hotSpotPlacer) Method() Method { return HotSpot }

// Place assigns routers to client-dense zones in decreasing order of radio
// coverage: the most powerful router goes to the most dense zone, the next
// routers to zones drawn with probability proportional to their client
// density (§3, "HotSpot placement"; the paper's rank-by-rank assignment is
// randomized beyond the first router so that repeated placements differ —
// the population-diversity property that makes HotSpot the paper's best GA
// initializer). Routers land at a uniform position inside their zone.
// Off-pattern routers are uniform random.
func (p *hotSpotPlacer) Place(in *wmn.Instance, r *rng.Rand) (wmn.Solution, error) {
	return p.prepare(in)(r)
}

// prepare ranks the instance's zones and orders its routers once; the
// returned function makes the draws of one placement.
func (p *hotSpotPlacer) prepare(in *wmn.Instance) func(*rng.Rand) (wmn.Solution, error) {
	fail := func(err error) func(*rng.Rand) (wmn.Solution, error) {
		return func(*rng.Rand) (wmn.Solution, error) { return wmn.Solution{}, err }
	}
	if err := in.Validate(); err != nil {
		return fail(err)
	}
	area := in.Area()
	density, err := wmn.NewDensityGrid(in, p.opts.HotSpotCell, p.opts.HotSpotCell)
	if err != nil {
		return fail(err)
	}
	ranked := density.RankCells(1 /* clientWeight */, 0 /* routerWeight */)
	// Keep the densest client-bearing zones, slightly fewer than the
	// router count, so the zone draw cycles and the densest core hosts
	// more than one router (the paper's rank-by-rank walk cycles "until
	// all routers are placed"); with no clients at all, fall back to
	// uniform random placement.
	occupied := ranked[:0:len(ranked)]
	maxZones := in.NumRouters()*3/4 + 1
	for _, cell := range ranked {
		if density.ClientCount(cell) > 0 && len(occupied) < maxZones {
			occupied = append(occupied, cell)
		}
	}
	if len(occupied) == 0 {
		return func(r *rng.Rand) (wmn.Solution, error) {
			sol := wmn.NewSolution(in.NumRouters())
			for i := range sol.Positions {
				sol.Positions[i] = uniformIn(area, r)
			}
			return sol, nil
		}
	}

	// Routers ordered by decreasing power (radius); ties by index.
	byPower := make([]int, in.NumRouters())
	for i := range byPower {
		byPower[i] = i
	}
	sort.SliceStable(byPower, func(a, b int) bool {
		return in.Radii[byPower[a]] > in.Radii[byPower[b]]
	})

	return func(r *rng.Rand) (wmn.Solution, error) {
		sol := wmn.NewSolution(in.NumRouters())
		// Zones are drawn without replacement, with probability
		// proportional to client count: stronger routers tend to land in
		// denser zones (the paper's rank-by-rank assignment in
		// expectation), each zone hosts one router until all zones are
		// used, and repeated placements differ — the population-diversity
		// property that makes HotSpot the paper's best GA initializer. The
		// most powerful router always anchors the most dense zone. When
		// routers outnumber zones, the draw restarts with all zones
		// available again. Unlike the geometric methods, HotSpot places
		// every router in a zone — §3's description has no off-pattern
		// clause ("and so on until all routers are placed"). Squared
		// counts sharpen the draw toward the heaviest zones, keeping the
		// fleet concentrated even when the distribution's tail spreads the
		// top zones over a wide region (Weibull especially).
		weights := make([]int, len(occupied))
		remaining := 0
		resetWeights := func() {
			remaining = 0
			for i, cell := range occupied {
				c := density.ClientCount(cell)
				weights[i] = c * c
				remaining += weights[i]
			}
		}
		resetWeights()

		for rank, idx := range byPower {
			if remaining <= 0 {
				resetWeights()
			}
			var cell int
			if rank == 0 {
				cell = occupied[0]
				remaining -= weights[0]
				weights[0] = 0
			} else {
				k := sampleWeighted(weights, remaining, r)
				cell = occupied[k]
				remaining -= weights[k]
				weights[k] = 0
			}
			sol.Positions[idx] = uniformIn(density.CellRect(cell), r)
		}
		return sol, nil
	}
}

// sampleWeighted draws an index with probability proportional to its weight;
// total must be the sum of weights and positive.
func sampleWeighted(weights []int, total int, r *rng.Rand) int {
	pick := r.IntN(total)
	for i, w := range weights {
		pick -= w
		if pick < 0 {
			return i
		}
	}
	return len(weights) - 1
}
