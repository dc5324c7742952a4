// Package localsearch implements the paper's neighborhood search methods
// (§4). Algorithm 1 (the outer search), Algorithm 2 (best-neighbor
// selection over a pre-fixed number of generated movements) and Algorithm 3
// (the swap movement) are reproduced here, together with the purely random
// movement the paper compares against in Figure 4.
//
// The package also carries the paper's stated future work ("we are
// currently implementing full featured local search methods"): a
// first-improvement hill climber, simulated annealing and tabu search.
// All four drivers are acceptance rules on one walk engine (walk.go) and
// drive the same Movement implementations.
package localsearch

import (
	"fmt"
	"math"

	"meshplace/internal/geom"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

// Movement generates neighboring solutions — the "small local perturbation"
// whose repetition defines the neighborhood structure (§4).
type Movement interface {
	// Name identifies the movement in traces and experiment output.
	Name() string
	// Propose writes a neighbor of sol into dst (a pre-cloned copy of
	// sol) and reports whether a move could be generated. Implementations
	// must not modify sol.
	Propose(in *wmn.Instance, sol wmn.Solution, dst wmn.Solution, r *rng.Rand) bool
}

// DeltaMovement extends Movement for the incremental-evaluation hot path:
// ProposeDelta additionally reports exactly the router indices whose dst
// position differs from sol, in ascending index order, appended to buf
// (which may be nil or reused across calls). An index whose new position
// happens to equal the old one must NOT be reported — the search drivers
// rely on the returned set matching a full positions diff, so that
// delta-aware and diff-fallback movements behave identically.
//
// Implementations must consume exactly the same random draws as Propose for
// the same inputs; all movements in this package implement both methods on
// top of one code path, so seeded runs are unchanged by which entry point a
// driver uses.
type DeltaMovement interface {
	Movement
	ProposeDelta(in *wmn.Instance, sol wmn.Solution, dst wmn.Solution, r *rng.Rand, buf []int) ([]int, bool)
}

// ProposeChanged generates a neighbor like Movement.Propose and reports the
// changed router indices, ascending. Movements implementing DeltaMovement
// report the set directly; for any other movement the set is recovered with
// a full positions diff, so every movement can drive the incremental
// evaluator.
func ProposeChanged(m Movement, in *wmn.Instance, sol, dst wmn.Solution, r *rng.Rand, buf []int) ([]int, bool) {
	if dm, ok := m.(DeltaMovement); ok {
		return dm.ProposeDelta(in, sol, dst, r, buf)
	}
	if !m.Propose(in, sol, dst, r) {
		return buf[:0], false
	}
	buf = buf[:0]
	for i := range sol.Positions {
		if sol.Positions[i] != dst.Positions[i] {
			buf = append(buf, i)
		}
	}
	return buf, true
}

// --- Random movement -------------------------------------------------------

// RandomMovement relocates one uniformly chosen router to a uniformly
// random position — the baseline movement of Figure 4.
type RandomMovement struct{}

// Name implements Movement.
func (RandomMovement) Name() string { return "Random" }

// Propose implements Movement.
func (m RandomMovement) Propose(in *wmn.Instance, sol wmn.Solution, dst wmn.Solution, r *rng.Rand) bool {
	_, ok := m.ProposeDelta(in, sol, dst, r, nil)
	return ok
}

// ProposeDelta implements DeltaMovement.
func (RandomMovement) ProposeDelta(in *wmn.Instance, sol wmn.Solution, dst wmn.Solution, r *rng.Rand, buf []int) ([]int, bool) {
	n := len(sol.Positions)
	if n == 0 {
		return buf[:0], false
	}
	copy(dst.Positions, sol.Positions)
	area := in.Area()
	i := r.IntN(n)
	dst.Positions[i] = geom.Point{
		X: area.Min.X + r.Float64()*area.Width(),
		Y: area.Min.Y + r.Float64()*area.Height(),
	}
	if dst.Positions[i] == sol.Positions[i] {
		return buf[:0], true
	}
	return append(buf[:0], i), true
}

// --- Swap movement (Algorithm 3) --------------------------------------------

// SwapMovement implements Algorithm 3: locate the most dense and most
// sparse Hg×Wg areas, take the least powerful router of the dense area and
// the most powerful router of the sparse area, and exchange their
// placements, "promoting the placement of best routers in most dense areas".
//
// Two generalizations keep the movement effective from arbitrary starting
// solutions:
//
//  1. Dense/sparse candidate cells are drawn from the top-K/bottom-K of the
//     density ranking instead of always the single extreme cell, so
//     successive proposals explore different regions.
//  2. When VirtualSlotProb is positive (the experiments use 0.5), a
//     proposal may swap the sparse cell's most powerful router with an
//     *empty position slot* of the dense cell instead of with its weakest
//     router: the router relocates into the dense cell and nothing moves
//     back. Without some relocation the per-cell router counts are
//     invariant under the literal exchange, and the giant component can
//     never grow past what the initial placement's cell occupancy allows.
type SwapMovement struct {
	// CellW and CellH are Algorithm 3's Hg×Wg small-area dimensions.
	// Defaults: 16×16.
	CellW, CellH float64
	// TopK is the number of top-density (and bottom-density) cells
	// candidate moves are drawn from. Default 4.
	TopK int
	// ClientWeight and RouterWeight weigh the density score. Defaults:
	// clients 1.0, routers 0.25 — demand dominates, but current supply
	// breaks ties so saturated cells stop attracting routers.
	ClientWeight, RouterWeight float64
	// VirtualSlotProb is the probability a proposal uses the virtual-slot
	// relocation (generalization 2) instead of the faithful two-router
	// exchange. The faithful Algorithm 3 behavior is obtained with 0; an
	// empty dense cell always uses the virtual slot. See
	// BenchmarkAblationSwapVirtualSlot for the comparison.
	VirtualSlotProb float64

	density *wmn.DensityGrid
	forInst *wmn.Instance
}

// NewSwapMovement returns the swap movement with the defaults used by the
// Figure 4 experiment (virtual slots at probability 0.5).
func NewSwapMovement() *SwapMovement {
	return &SwapMovement{VirtualSlotProb: 0.5}
}

// Name implements Movement.
func (s *SwapMovement) Name() string { return "Swap" }

func (s *SwapMovement) withDefaults() {
	if s.CellW == 0 {
		s.CellW = 16
	}
	if s.CellH == 0 {
		s.CellH = 16
	}
	if s.TopK == 0 {
		s.TopK = 4
	}
	if s.ClientWeight == 0 && s.RouterWeight == 0 {
		s.ClientWeight = 1.0
		s.RouterWeight = 0.25
	}
}

// Propose implements Movement.
func (s *SwapMovement) Propose(in *wmn.Instance, sol wmn.Solution, dst wmn.Solution, r *rng.Rand) bool {
	_, ok := s.ProposeDelta(in, sol, dst, r, nil)
	return ok
}

// ProposeDelta implements DeltaMovement.
func (s *SwapMovement) ProposeDelta(in *wmn.Instance, sol wmn.Solution, dst wmn.Solution, r *rng.Rand, buf []int) ([]int, bool) {
	s.withDefaults()
	if len(sol.Positions) == 0 {
		return buf[:0], false
	}
	if s.density == nil || s.forInst != in {
		d, err := wmn.NewDensityGrid(in, s.CellW, s.CellH)
		if err != nil {
			return buf[:0], false
		}
		s.density = d
		s.forInst = in
	}
	d := s.density
	d.CountRouters(sol)

	// Step 3: position of a most dense area (randomized among the top K).
	denseCands := d.DensestCells(s.TopK, s.ClientWeight, s.RouterWeight)
	if len(denseCands) == 0 {
		return buf[:0], false
	}
	dense := denseCands[r.IntN(len(denseCands))]

	// Step 5: position of a most sparse area that still holds a router.
	sparseCands := d.SparsestCells(s.TopK, s.ClientWeight, s.RouterWeight, func(cell int) bool {
		return cell != dense && d.RouterCount(cell) > 0
	})
	if len(sparseCands) == 0 {
		return buf[:0], false
	}
	sparse := sparseCands[r.IntN(len(sparseCands))]

	// Step 6: most powerful router within the sparse area.
	best := extremeRouter(in, d, sol, sparse, true /* mostPowerful */)
	if best < 0 {
		return buf[:0], false
	}

	copy(dst.Positions, sol.Positions)

	// Step 4: least powerful router within the dense area — or a virtual
	// slot, either because the dense area is empty or because the
	// proposal drew a virtual-slot move (generalization 2 above).
	worst := extremeRouter(in, d, sol, dense, false /* mostPowerful */)
	if worst < 0 || worst == best || r.Float64() < s.VirtualSlotProb {
		if worst < 0 && s.VirtualSlotProb <= 0 {
			return buf[:0], false // faithful mode cannot move into an empty cell
		}
		// Virtual slot: relocate the sparse area's best router to a
		// uniform position inside the dense cell.
		cell := d.CellRect(dense)
		dst.Positions[best] = geom.Point{
			X: cell.Min.X + r.Float64()*cell.Width(),
			Y: cell.Min.Y + r.Float64()*cell.Height(),
		}
		if dst.Positions[best] == sol.Positions[best] {
			return buf[:0], true
		}
		return append(buf[:0], best), true
	}

	// Step 7: swap the two routers' placements. When the two routers sit at
	// the same point the exchange is a no-op and the delta is empty.
	dst.Positions[worst], dst.Positions[best] = dst.Positions[best], dst.Positions[worst]
	if dst.Positions[worst] == sol.Positions[worst] {
		return buf[:0], true
	}
	lo, hi := worst, best
	if hi < lo {
		lo, hi = hi, lo
	}
	return append(buf[:0], lo, hi), true
}

// extremeRouter returns the index of the most (or least) powerful router in
// the cell, or -1 when the cell holds none. Ties break toward the lower
// index for determinism.
func extremeRouter(in *wmn.Instance, d *wmn.DensityGrid, sol wmn.Solution, cell int, mostPowerful bool) int {
	bestIdx := -1
	var bestRadius float64
	for _, i := range d.RoutersIn(sol, cell) {
		radius := in.Radii[i]
		if bestIdx == -1 ||
			(mostPowerful && radius > bestRadius) ||
			(!mostPowerful && radius < bestRadius) {
			bestIdx, bestRadius = i, radius
		}
	}
	return bestIdx
}

// --- Perturb movement (extension) -------------------------------------------

// PerturbMovement nudges one router by Gaussian noise — a fine-grained
// movement used by the simulated-annealing extension to polish solutions.
type PerturbMovement struct {
	// Sigma is the noise standard deviation. Default: 2.
	Sigma float64
}

// Name implements Movement.
func (p PerturbMovement) Name() string { return "Perturb" }

// Propose implements Movement.
func (p PerturbMovement) Propose(in *wmn.Instance, sol wmn.Solution, dst wmn.Solution, r *rng.Rand) bool {
	_, ok := p.ProposeDelta(in, sol, dst, r, nil)
	return ok
}

// ProposeDelta implements DeltaMovement. Clamping can cancel a nudge at the
// area border, so the delta is empty when the clamped point lands back on
// the original position.
func (p PerturbMovement) ProposeDelta(in *wmn.Instance, sol wmn.Solution, dst wmn.Solution, r *rng.Rand, buf []int) ([]int, bool) {
	n := len(sol.Positions)
	if n == 0 {
		return buf[:0], false
	}
	sigma := p.Sigma
	if sigma == 0 {
		sigma = 2
	}
	copy(dst.Positions, sol.Positions)
	i := r.IntN(n)
	area := in.Area()
	dst.Positions[i] = area.Clamp(geom.Point{
		X: sol.Positions[i].X + r.NormFloat64()*sigma,
		Y: sol.Positions[i].Y + r.NormFloat64()*sigma,
	})
	if dst.Positions[i] == sol.Positions[i] {
		return buf[:0], true
	}
	return append(buf[:0], i), true
}

// --- Composite movement ------------------------------------------------------

// MixedMovement draws each proposal from one of several movements with the
// given weights. It lets searches combine, e.g., swap moves with fine
// perturbations.
type MixedMovement struct {
	Movements []Movement
	Weights   []float64
}

// NewMixedMovement validates and builds a mixture.
func NewMixedMovement(movements []Movement, weights []float64) (*MixedMovement, error) {
	if len(movements) == 0 {
		return nil, fmt.Errorf("localsearch: mixed movement needs at least one movement")
	}
	if len(movements) != len(weights) {
		return nil, fmt.Errorf("localsearch: %d movements but %d weights", len(movements), len(weights))
	}
	total := 0.0
	for _, w := range weights {
		// A NaN weight would make every draw fall through to the last
		// movement; an infinite one would swamp the rest.
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("localsearch: movement weight %g is not a finite non-negative number", w)
		}
		total += w
	}
	if total <= 0 || math.IsInf(total, 0) {
		return nil, fmt.Errorf("localsearch: movement weights sum to %g", total)
	}
	return &MixedMovement{Movements: movements, Weights: weights}, nil
}

// Name implements Movement.
func (m *MixedMovement) Name() string {
	name := "Mixed("
	for i, mv := range m.Movements {
		if i > 0 {
			name += "+"
		}
		name += mv.Name()
	}
	return name + ")"
}

// Propose implements Movement.
func (m *MixedMovement) Propose(in *wmn.Instance, sol wmn.Solution, dst wmn.Solution, r *rng.Rand) bool {
	_, ok := m.ProposeDelta(in, sol, dst, r, nil)
	return ok
}

// ProposeDelta implements DeltaMovement, delegating to the drawn
// sub-movement (through the diff fallback when it is not delta-aware).
func (m *MixedMovement) ProposeDelta(in *wmn.Instance, sol wmn.Solution, dst wmn.Solution, r *rng.Rand, buf []int) ([]int, bool) {
	total := 0.0
	for _, w := range m.Weights {
		total += w
	}
	pick := r.Float64() * total
	for i, w := range m.Weights {
		pick -= w
		if pick <= 0 {
			return ProposeChanged(m.Movements[i], in, sol, dst, r, buf)
		}
	}
	return ProposeChanged(m.Movements[len(m.Movements)-1], in, sol, dst, r, buf)
}
