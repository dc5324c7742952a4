package placement

import (
	"testing"
	"testing/quick"

	"meshplace/internal/dist"
	"meshplace/internal/geom"
	"meshplace/internal/rng"
	"meshplace/internal/wmn"
)

func benchInstance(t *testing.T) *wmn.Instance {
	t.Helper()
	in, err := wmn.Generate(wmn.DefaultGenConfig())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func place(t *testing.T, m Method, in *wmn.Instance, seed uint64) wmn.Solution {
	t.Helper()
	p, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sol, err := p.Place(in, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestMethodNamesRoundTrip(t *testing.T) {
	for _, m := range Methods() {
		back, err := MethodFromName(m.String())
		if err != nil || back != m {
			t.Errorf("MethodFromName(%q) = %v, %v", m.String(), back, err)
		}
	}
	if _, err := MethodFromName("hotspot"); err != nil {
		t.Error("method parsing should be case-insensitive")
	}
	if _, err := MethodFromName("Spiral"); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestAllReturnsSevenMethodsInPaperOrder(t *testing.T) {
	placers, err := All(Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := Methods()
	if len(placers) != len(want) {
		t.Fatalf("All returned %d placers", len(placers))
	}
	for i, p := range placers {
		if p.Method() != want[i] {
			t.Errorf("placer %d is %v, want %v", i, p.Method(), want[i])
		}
	}
}

// TestEveryMethodProducesValidSolutions is the core contract: correct
// length, all positions in-area, for every method and seed.
func TestEveryMethodProducesValidSolutions(t *testing.T) {
	in := benchInstance(t)
	for _, m := range Methods() {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			p, err := New(m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			f := func(seed uint64) bool {
				sol, err := p.Place(in, rng.New(seed))
				if err != nil {
					return false
				}
				return sol.Validate(in) == nil
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestPlacementDeterministicPerSeed(t *testing.T) {
	in := benchInstance(t)
	for _, m := range Methods() {
		a := place(t, m, in, 7)
		b := place(t, m, in, 7)
		for i := range a.Positions {
			if a.Positions[i] != b.Positions[i] {
				t.Fatalf("%v: position %d differs for identical seeds", m, i)
			}
		}
	}
}

func TestColLeftConcentratesLeft(t *testing.T) {
	in := benchInstance(t)
	sol := place(t, ColLeft, in, 3)
	left := 0
	for _, p := range sol.Positions {
		if p.X <= 0.25*in.Width {
			left++
		}
	}
	// ~95% on-pattern for ColLeft; allow jitter wiggle.
	if left < in.NumRouters()*8/10 {
		t.Errorf("only %d/%d routers on the left side", left, in.NumRouters())
	}
}

func TestDiagConcentratesOnDiagonal(t *testing.T) {
	in := benchInstance(t)
	sol := place(t, Diag, in, 3)
	near := 0
	for _, p := range sol.Positions {
		// Distance from main diagonal y=x (square area) is |x-y|/√2.
		d := p.X - p.Y
		if d < 0 {
			d = -d
		}
		if d/1.4142 <= 6 {
			near++
		}
	}
	if near < in.NumRouters()*7/10 {
		t.Errorf("only %d/%d routers near the main diagonal", near, in.NumRouters())
	}
}

func TestCrossUsesBothDiagonals(t *testing.T) {
	in := benchInstance(t)
	sol := place(t, Cross, in, 3)
	main, anti := 0, 0
	for _, p := range sol.Positions {
		dMain := p.X - p.Y
		if dMain < 0 {
			dMain = -dMain
		}
		dAnti := p.X + p.Y - in.Width
		if dAnti < 0 {
			dAnti = -dAnti
		}
		switch {
		case dMain/1.4142 <= 6:
			main++
		case dAnti/1.4142 <= 6:
			anti++
		}
	}
	if main < 10 || anti < 10 {
		t.Errorf("cross split main=%d anti=%d; want both populated", main, anti)
	}
}

func TestNearConcentratesCenter(t *testing.T) {
	in := benchInstance(t)
	sol := place(t, Near, in, 3)
	central := geom.NewRect(geom.Pt(0.25*in.Width, 0.25*in.Height), geom.Pt(0.75*in.Width, 0.75*in.Height))
	inside := 0
	for _, p := range sol.Positions {
		if central.Contains(p) {
			inside++
		}
	}
	if inside < in.NumRouters()*7/10 {
		t.Errorf("only %d/%d routers in the central half", inside, in.NumRouters())
	}
}

func TestCornersConcentratesCorners(t *testing.T) {
	in := benchInstance(t)
	sol := place(t, Corners, in, 3)
	side := 0.2 * in.Width
	area := in.Area()
	boxes := []geom.Rect{
		geom.NewRect(area.Min, geom.Pt(side, side)),
		geom.NewRect(geom.Pt(in.Width-side, 0), geom.Pt(in.Width, side)),
		geom.NewRect(geom.Pt(0, in.Height-side), geom.Pt(side, in.Height)),
		geom.NewRect(geom.Pt(in.Width-side, in.Height-side), geom.Pt(in.Width, in.Height)),
	}
	perBox := make([]int, 4)
	total := 0
	for _, p := range sol.Positions {
		for b, box := range boxes {
			if box.Contains(p) {
				perBox[b]++
				total++
				break
			}
		}
	}
	if total < in.NumRouters()*7/10 {
		t.Errorf("only %d/%d routers in corner boxes", total, in.NumRouters())
	}
	for b, n := range perBox {
		if n == 0 {
			t.Errorf("corner %d is empty (%v)", b, perBox)
		}
	}
}

func TestHotSpotTracksClientDensity(t *testing.T) {
	// Clients in one tight cluster: HotSpot must place routers near it.
	cfg := wmn.DefaultGenConfig()
	cfg.ClientDist = dist.NormalSpec(32, 32, 6)
	in, err := wmn.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol := place(t, HotSpot, in, 3)
	near := 0
	for _, p := range sol.Positions {
		if p.Dist(geom.Pt(32, 32)) <= 30 {
			near++
		}
	}
	if near < in.NumRouters()*8/10 {
		t.Errorf("only %d/%d routers near the client cluster", near, in.NumRouters())
	}
}

func TestHotSpotAnchorsMostPowerfulInDensestZone(t *testing.T) {
	cfg := wmn.DefaultGenConfig()
	cfg.ClientDist = dist.NormalSpec(96, 96, 5)
	in, err := wmn.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the most powerful router.
	strongest := 0
	for i, r := range in.Radii {
		if r > in.Radii[strongest] {
			strongest = i
		}
	}
	d, err := wmn.NewDensityGrid(in, 5, 5) // matches Options.HotSpotCell default
	if err != nil {
		t.Fatal(err)
	}
	densest := d.RankCells(1, 0)[0]
	for seed := uint64(0); seed < 10; seed++ {
		sol := place(t, HotSpot, in, seed)
		if got := d.Grid().CellIndex(sol.Positions[strongest]); got != densest {
			t.Fatalf("seed %d: strongest router in cell %d, want densest cell %d", seed, got, densest)
		}
	}
}

func TestHotSpotNoClientsFallsBackToUniform(t *testing.T) {
	cfg := wmn.DefaultGenConfig()
	cfg.NumClients = 0
	in, err := wmn.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol := place(t, HotSpot, in, 3)
	if err := sol.Validate(in); err != nil {
		t.Fatal(err)
	}
	// Spread check: all four quadrants populated.
	quadrants := make(map[int]int)
	for _, p := range sol.Positions {
		q := 0
		if p.X > 64 {
			q++
		}
		if p.Y > 64 {
			q += 2
		}
		quadrants[q]++
	}
	if len(quadrants) != 4 {
		t.Errorf("fallback placement not spread: quadrants %v", quadrants)
	}
}

func TestDeterministicMethodsHaveLowDiversity(t *testing.T) {
	// The GA-initializer study depends on ColLeft/Near/Corners producing
	// near-identical placements and HotSpot/Random/Diag diverse ones.
	in := benchInstance(t)
	meanDisp := func(m Method) float64 {
		a := place(t, m, in, 1)
		b := place(t, m, in, 2)
		total := 0.0
		for i := range a.Positions {
			total += a.Positions[i].Dist(b.Positions[i])
		}
		return total / float64(len(a.Positions))
	}
	for _, m := range []Method{ColLeft, Near, Corners} {
		if d := meanDisp(m); d > 12 {
			t.Errorf("%v mean inter-run displacement %.1f, want low (≤12)", m, d)
		}
	}
	for _, m := range []Method{Random, HotSpot, Diag} {
		if d := meanDisp(m); d < 12 {
			t.Errorf("%v mean inter-run displacement %.1f, want high (>12)", m, d)
		}
	}
}

func TestDiagApplicable(t *testing.T) {
	p, err := New(Diag, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dp, ok := p.(*diagPlacer)
	if !ok {
		t.Fatal("Diag placer has unexpected type")
	}
	square := &wmn.Instance{Width: 128, Height: 128, Radii: []float64{1}}
	if !dp.Applicable(square) {
		t.Error("square area should be applicable")
	}
	nearSquare := &wmn.Instance{Width: 128, Height: 120, Radii: []float64{1}}
	if !dp.Applicable(nearSquare) {
		t.Error("within-10%% area should be applicable")
	}
	wide := &wmn.Instance{Width: 200, Height: 100, Radii: []float64{1}}
	if dp.Applicable(wide) {
		t.Error("2:1 area should not be applicable")
	}
}

func TestOptionsValidate(t *testing.T) {
	tests := []struct {
		name string
		opts Options
	}{
		{name: "pattern fraction above 1", opts: Options{PatternFraction: 1.5}},
		{name: "negative jitter", opts: Options{Jitter: -1}},
		{name: "col fraction too large", opts: Options{ColFraction: 0.6}},
		{name: "near fraction negative", opts: Options{NearFraction: -0.1}},
		{name: "corner fraction too large", opts: Options{CornerFraction: 0.7}},
		{name: "negative hotspot cell", opts: Options{HotSpotCell: -3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.opts.Validate(); err == nil {
				t.Error("want error, got nil")
			}
			if _, err := New(Random, tt.opts); err == nil {
				t.Error("New should reject invalid options")
			}
		})
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
}

func TestPlaceRejectsInvalidInstance(t *testing.T) {
	bad := &wmn.Instance{Width: 0, Height: 10, Radii: []float64{1}}
	for _, m := range Methods() {
		p, err := New(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Place(bad, rng.New(1)); err == nil {
			t.Errorf("%v accepted an invalid instance", m)
		}
	}
}

func TestPrepareDrawsWhatPlaceDraws(t *testing.T) {
	noClients := wmn.DefaultGenConfig()
	noClients.NumClients = 0
	empty, err := wmn.Generate(noClients)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []*wmn.Instance{benchInstance(t), empty} {
		for _, m := range Methods() {
			p, err := New(m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			place := Prepare(p, in)
			direct, prepared := rng.New(9), rng.New(9)
			for k := 0; k < 4; k++ {
				want, err := p.Place(in, direct)
				if err != nil {
					t.Fatal(err)
				}
				got, err := place(prepared)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want.Positions {
					if got.Positions[i] != want.Positions[i] {
						t.Fatalf("%v placement %d router %d: prepared %v, Place %v", m, k, i, got.Positions[i], want.Positions[i])
					}
				}
			}
			if direct.Uint64() != prepared.Uint64() {
				t.Errorf("%v: prepared placements left the stream elsewhere than Place", m)
			}
		}
	}
	bad := &wmn.Instance{Width: 0, Height: 10, Radii: []float64{1}}
	for _, m := range Methods() {
		p, _ := New(m, Options{})
		if _, err := Prepare(p, bad)(rng.New(1)); err == nil {
			t.Errorf("%v: prepared placement accepted an invalid instance", m)
		}
	}
}

func TestPatternFractionZeroMeansFullPattern(t *testing.T) {
	// The zero value of Options must select the default fraction, not 0.
	in := benchInstance(t)
	sol := place(t, Near, in, 5)
	central := geom.NewRect(geom.Pt(32, 32), geom.Pt(96, 96))
	inside := 0
	for _, p := range sol.Positions {
		if central.Contains(p) {
			inside++
		}
	}
	if inside < 40 {
		t.Errorf("default options placed only %d routers centrally; defaults not applied?", inside)
	}
}

func TestSmallFleets(t *testing.T) {
	cfg := wmn.DefaultGenConfig()
	cfg.NumRouters = 1
	in, err := wmn.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range Methods() {
		p, err := New(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sol, err := p.Place(in, rng.New(1))
		if err != nil {
			t.Errorf("%v failed on single-router instance: %v", m, err)
			continue
		}
		if err := sol.Validate(in); err != nil {
			t.Errorf("%v produced invalid solution on single-router instance: %v", m, err)
		}
	}
}
