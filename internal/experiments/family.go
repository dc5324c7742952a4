package experiments

import "meshplace/internal/dist"

// The paper evaluates "through a benchmark of generated instances" (§5.1).
// This file defines that benchmark's two axes once: the paper-scale
// instance plus half- and double-scale variants, and the four client
// distributions of §5.1 (Uniform is generated in the paper's setup even
// though the reported tables cover Normal, Exponential and Weibull). The
// scenario corpus (internal/scenarios) is the generated benchmark; the
// studies draw their distributions from here too (DistributionFor).

// FamilyScale names one instance size of the benchmark family.
type FamilyScale struct {
	// Label names the scale ("half", "base", "double").
	Label string
	// Side is the square area's side length; routers and clients scale
	// with the area so density is preserved.
	Side       float64
	NumRouters int
	NumClients int
}

// FamilyScales returns the three scales of the benchmark family. The base
// scale is the paper's 128×128 / 64-router / 192-client instance; the half
// and double scales keep router and client densities constant.
func FamilyScales() []FamilyScale {
	return []FamilyScale{
		{Label: "half", Side: 91, NumRouters: 32, NumClients: 96},
		{Label: "base", Side: 128, NumRouters: 64, NumClients: 192},
		{Label: "double", Side: 181, NumRouters: 128, NumClients: 384},
	}
}

// FamilyDistributions returns the four §5.1 distributions scaled to an
// area of the given side (the base parameters are defined on side 128), in
// the paper's kind order. The scenario corpus and DistributionFor both
// derive from here, so corpus and studies can never silently diverge.
func FamilyDistributions(side float64) []dist.Spec {
	f := side / 128
	return []dist.Spec{
		dist.UniformSpec(),
		dist.NormalSpec(side/2, side/2, 12.8*f),
		dist.ExponentialSpec(32 * f),
		dist.WeibullSpec(1.8, 36*f),
	}
}
