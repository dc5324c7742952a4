package experiments

import "testing"

func TestBenchmarkFamilyDensityPreserved(t *testing.T) {
	// Router density (N/area) must be constant across scales so the
	// topology regime carries over.
	base := -1.0
	for _, scale := range FamilyScales() {
		density := float64(scale.NumRouters) / (scale.Side * scale.Side)
		if base < 0 {
			base = density
		}
		if density < base*0.9 || density > base*1.1 {
			t.Errorf("%s: router density %.5f deviates from %.5f", scale.Label, density, base)
		}
		if scale.NumClients != 3*scale.NumRouters {
			t.Errorf("%s: client/router ratio %d/%d, want 3:1", scale.Label, scale.NumClients, scale.NumRouters)
		}
	}
}
