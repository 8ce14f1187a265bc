package maxwell

import (
	"math"
	"testing"

	"repro/internal/ad"
	"repro/internal/dual"
	"repro/internal/refsol"
)

// exactForward wraps the spectral solution as a maxwell.Forward: fields and
// their derivatives enter the tape as constants. Feeding the exact solution
// into the loss machinery must produce (near-)zero physics, IC, symmetry
// and energy losses — the strongest self-consistency check available.
func exactForward(sp *refsol.Spectral) Forward {
	return func(tp *ad.Tape, coords []float64, n int, withTangents bool) FieldsDual {
		mk := func() (vals []float64, tans [3][]float64) {
			vals = make([]float64, n)
			for k := range tans {
				tans[k] = make([]float64, n)
			}
			return
		}
		ezV, ezT := mk()
		hxV, hxT := mk()
		hyV, hyT := mk()
		for i := 0; i < n; i++ {
			x, y, t := coords[i*3], coords[i*3+1], coords[i*3+2]
			ez, hx, hy := sp.EvalPoint(x, y, t)
			ezV[i], hxV[i], hyV[i] = ez.V, hx.V, hy.V
			ezT[0][i], ezT[1][i], ezT[2][i] = ez.Dx, ez.Dy, ez.Dt
			hxT[0][i], hxT[1][i], hxT[2][i] = hx.Dx, hx.Dy, hx.Dt
			hyT[0][i], hyT[1][i], hyT[2][i] = hy.Dx, hy.Dy, hy.Dt
		}
		wrap := func(v []float64, t3 [3][]float64) dual.D {
			d := dual.FromValue(tp.Const(n, 1, v))
			if withTangents {
				for k := 0; k < 3; k++ {
					d.T[k] = tp.Const(n, 1, t3[k])
				}
			}
			return d
		}
		return FieldsDual{Ez: wrap(ezV, ezT), Hx: wrap(hxV, hxT), Hy: wrap(hyV, hyT)}
	}
}

func TestExactSolutionHasNearZeroLosses(t *testing.T) {
	p := NewProblem(VacuumCase)
	c := NewCollocation(p, 8, 5)
	sp := refsol.NewSpectral(refsol.CenteredPulse().InitFields(32))
	tp := ad.NewTape()
	cfg := PaperConfig(true, true)
	terms := Build(tp, exactForward(sp), p, c, cfg)

	check := func(name string, v ad.Value, tol float64) {
		if !v.Valid() {
			t.Fatalf("%s missing", name)
		}
		if s := v.Scalar(); s > tol {
			t.Errorf("%s = %v, want < %v", name, s, tol)
		}
	}
	check("phys", terms.Phys, 1e-6)
	check("ic", terms.IC, 1e-9)
	check("sym", terms.Sym, 1e-9)
	check("energy", terms.Energy, 1e-6)
	check("total", terms.Total, 1e-5)
}

// TestZeroFieldLossAnatomy: the trivial solution (all fields ≡ 0) satisfies
// the PDE exactly but violates the IC — the loss structure that defines the
// black-hole attractor (§5): L_phys = 0 while L_IC stays pinned at the IC's
// mean square.
func TestZeroFieldLossAnatomy(t *testing.T) {
	p := NewProblem(VacuumCase)
	c := NewCollocation(p, 6, 5)
	zero := func(tp *ad.Tape, coords []float64, n int, withTangents bool) FieldsDual {
		wrap := func() dual.D {
			d := dual.FromValue(tp.Const(n, 1, make([]float64, n)))
			if withTangents {
				for k := 0; k < 3; k++ {
					d.T[k] = tp.Const(n, 1, make([]float64, n))
				}
			}
			return d
		}
		return FieldsDual{Ez: wrap(), Hx: wrap(), Hy: wrap()}
	}
	tp := ad.NewTape()
	terms := Build(tp, zero, p, c, PaperConfig(true, true))
	if terms.Phys.Scalar() > 1e-15 {
		t.Errorf("trivial solution must satisfy the PDE, phys = %v", terms.Phys.Scalar())
	}
	var wantIC float64
	for _, v := range c.ICEz0 {
		wantIC += v * v
	}
	wantIC /= float64(c.ICN)
	if math.Abs(terms.IC.Scalar()-wantIC) > 1e-12 {
		t.Errorf("IC loss = %v, want %v", terms.IC.Scalar(), wantIC)
	}
	if terms.Energy.Scalar() > 1e-15 {
		t.Errorf("trivial solution also zeroes the energy residual, got %v", terms.Energy.Scalar())
	}
}

func TestCollocationPartition(t *testing.T) {
	p := NewProblem(DielectricCase)
	g := 8
	c := NewCollocation(p, g, 5)
	if c.N != g*g*g {
		t.Fatalf("N = %d", c.N)
	}
	if len(c.VacIdx)+len(c.DielIdx) != c.N {
		t.Fatal("partition does not cover the grid")
	}
	if len(c.DielIdx) == 0 {
		t.Fatal("dielectric partition empty")
	}
	// ε labels must match the region classification.
	for _, i := range c.DielIdx {
		if c.Eps[i] != 4 {
			t.Fatalf("dielectric point %d has ε = %v", i, c.Eps[i])
		}
	}
	for _, i := range c.VacIdx {
		if c.Eps[i] != 1 {
			t.Fatalf("vacuum point %d has ε = %v", i, c.Eps[i])
		}
	}
	// Fewer dielectric than vacuum points (slab at x ≥ 0.35), which is why
	// eq. 14's equal region weighting differs from eq. 37.
	if len(c.DielIdx) >= len(c.VacIdx) {
		t.Fatal("expected minority dielectric partition")
	}
	// Time bins partition all points.
	var total int
	for _, idx := range c.BinIdx {
		total += len(idx)
	}
	if total != c.N {
		t.Fatalf("bins cover %d of %d", total, c.N)
	}
}

// TestMirrorBatches: the mirror row maps send every collocation point to
// its reflection modulo the period 2 — t and the other coordinate bit-equal —
// and rows [0, ICN) are the t = 0 grid carrying the pulse. Odd and even g
// cover both the dyadic grids and those whose mirrored coordinate rounds
// differently from −x, and the fixed rows x = −1 and x = 0.
func TestMirrorBatches(t *testing.T) {
	differ := func(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }
	// mod2 returns the distance of a from a multiple of 2.
	mod2 := func(a float64) float64 {
		r := math.Mod(a, 2)
		if r < 0 {
			r += 2
		}
		return math.Min(r, 2-r)
	}
	for _, g := range []int{4, 5, 6, 8} {
		p := NewProblem(VacuumCase)
		c := NewCollocation(p, g, 2)
		maps := []struct {
			name string
			rows []int
			axis int // the mirrored coordinate
		}{{"x", c.MirrorXRows, 0}, {"y", c.MirrorYRows, 1}}
		for _, m := range maps {
			if len(m.rows) != c.N {
				t.Fatalf("g=%d: %s-map has %d rows, want %d", g, m.name, len(m.rows), c.N)
			}
			seen := make([]bool, c.N)
			for i, j := range m.rows {
				if seen[j] {
					t.Fatalf("g=%d: %s-map is not a permutation (row %d hit twice)", g, m.name, j)
				}
				seen[j] = true
				for k := 0; k < 3; k++ {
					a, b := c.Coords[i*3+k], c.Coords[j*3+k]
					if k == m.axis {
						if d := mod2(a + b); d > 1e-15 {
							t.Fatalf("g=%d: %s-map row %d→%d: %v is not −%v mod 2 (off by %g)", g, m.name, i, j, b, a, d)
						}
					} else if differ(a, b) {
						t.Fatalf("g=%d: %s-map row %d→%d changes coordinate %d: %v vs %v", g, m.name, i, j, k, a, b)
					}
				}
			}
		}
		if c.ICN != g*g || len(c.ICEz0) != c.ICN {
			t.Fatalf("g=%d: ICN = %d with %d targets, want %d", g, c.ICN, len(c.ICEz0), g*g)
		}
		for j := 0; j < c.ICN; j++ {
			x, y, tt := c.Coords[j*3], c.Coords[j*3+1], c.Coords[j*3+2]
			if tt != 0 {
				t.Fatalf("g=%d: IC row %d has t = %v", g, j, tt)
			}
			if differ(c.ICEz0[j], p.Pulse.At(x, y)) {
				t.Fatalf("g=%d: IC row %d target %v, want Pulse.At = %v", g, j, c.ICEz0[j], p.Pulse.At(x, y))
			}
		}
	}
}

// TestSymmetryLossDetectsAsymmetry: a field violating the parity relations
// produces a positive symmetry loss; the exact (symmetric) solution does not.
func TestSymmetryLossDetectsAsymmetry(t *testing.T) {
	p := NewProblem(VacuumCase)
	c := NewCollocation(p, 6, 3)
	skew := func(tp *ad.Tape, coords []float64, n int, withTangents bool) FieldsDual {
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			v[i] = coords[i*3] // Ez = x is odd in x: violates (i)
		}
		wrap := func(data []float64) dual.D {
			d := dual.FromValue(tp.Const(n, 1, data))
			if withTangents {
				for k := 0; k < 3; k++ {
					d.T[k] = tp.Const(n, 1, make([]float64, n))
				}
			}
			return d
		}
		return FieldsDual{Ez: wrap(v), Hx: wrap(make([]float64, n)), Hy: wrap(make([]float64, n))}
	}
	tp := ad.NewTape()
	terms := Build(tp, skew, p, c, PaperConfig(false, true))
	if terms.Sym.Scalar() <= 0.01 {
		t.Fatalf("symmetry loss = %v, expected clearly positive", terms.Sym.Scalar())
	}
}

// TestDielectricCasesDropXSymmetry: the dielectric problem only uses the
// y-mirror family.
func TestDielectricCasesDropXSymmetry(t *testing.T) {
	if p := NewProblem(DielectricCase); p.UseSymX || !p.UseSymY {
		t.Fatal("dielectric case must keep only y-symmetry")
	}
	if p := NewProblem(AsymmetricCase); p.UseSymX || p.UseSymY {
		t.Fatal("asymmetric case must disable the symmetry loss")
	}
}

func TestTimeCurriculum(t *testing.T) {
	tc := NewTimeCurriculum(5, 10)
	w := tc.Weights()
	if w[0] != 1 {
		t.Fatal("bin 0 must start at weight 1")
	}
	for _, wm := range w[1:] {
		if wm != 0 {
			t.Fatal("later bins must start at 0")
		}
	}
	// Large early residuals keep later bins suppressed.
	tc.Update([]float64{1, 1, 1, 1, 1})
	if tc.Weights()[1] > 1e-4 || tc.Converged(1e-3) {
		t.Fatal("curriculum unlocked too early")
	}
	// Converged early bins unlock everything.
	tc.Update([]float64{1e-9, 1e-9, 1e-9, 1e-9, 1e-9})
	for m, wm := range tc.Weights() {
		if wm < 0.99 {
			t.Fatalf("bin %d weight %v after convergence", m, wm)
		}
	}
	if !tc.Converged(1e-2) {
		t.Fatal("curriculum should report convergence")
	}
}

// TestIntuitiveVsRegionWeightedLossesDiffer: eq. 37 and eq. 14 weight the
// dielectric region differently, so for a field with region-dependent
// residuals the two losses must differ (§5.1's stabilization mechanism).
func TestIntuitiveVsRegionWeightedLossesDiffer(t *testing.T) {
	p := NewProblem(DielectricCase)
	c := NewCollocation(p, 6, 3)
	// A field whose Ez time-derivative is 1 everywhere: res1 differs between
	// regions because of the 1/ε scaling of the curl (which is zero here),
	// so res1 = 1 in both — but region weighting changes the MSE mix only
	// when region residuals differ; make them differ via Hy gradient.
	f := func(tp *ad.Tape, coords []float64, n int, withTangents bool) FieldsDual {
		ones := make([]float64, n)
		xs := make([]float64, n)
		for i := 0; i < n; i++ {
			ones[i] = 1
			xs[i] = coords[i*3]
		}
		d := func(v []float64, t0, t1, t2 []float64) dual.D {
			out := dual.FromValue(tp.Const(n, 1, v))
			if withTangents {
				out.T[0] = tp.Const(n, 1, t0)
				out.T[1] = tp.Const(n, 1, t1)
				out.T[2] = tp.Const(n, 1, t2)
			}
			return out
		}
		zero := make([]float64, n)
		// Ez = 0; Hx = 0; Hy with ∂Hy/∂x = x (varies across regions).
		return FieldsDual{
			Ez: d(zero, zero, zero, zero),
			Hx: d(zero, zero, zero, zero),
			Hy: d(zero, xs, zero, zero),
		}
	}
	cfgRegion := PaperConfig(false, false)
	cfgIntuitive := cfgRegion
	cfgIntuitive.UseIntuitive = true
	tp1 := ad.NewTape()
	l1 := Build(tp1, f, p, c, cfgRegion).Phys.Scalar()
	tp2 := ad.NewTape()
	l2 := Build(tp2, f, p, c, cfgIntuitive).Phys.Scalar()
	if math.Abs(l1-l2) < 1e-9 {
		t.Fatalf("region-weighted (%v) and intuitive (%v) losses should differ", l1, l2)
	}
}

// TestTimeWeightsSuppressLateResiduals: with only bin 0 active, residuals at
// late times do not contribute to the physics loss.
func TestTimeWeightsSuppressLateResiduals(t *testing.T) {
	p := NewProblem(VacuumCase)
	c := NewCollocation(p, 6, 3)
	// Residual only at late times: Ez with ∂Ez/∂t = t.
	f := func(tp *ad.Tape, coords []float64, n int, withTangents bool) FieldsDual {
		ts := make([]float64, n)
		for i := 0; i < n; i++ {
			ts[i] = coords[i*3+2]
		}
		zero := make([]float64, n)
		d := func(t2 []float64) dual.D {
			out := dual.FromValue(tp.Const(n, 1, zero))
			if withTangents {
				out.T[0] = tp.Const(n, 1, zero)
				out.T[1] = tp.Const(n, 1, zero)
				out.T[2] = tp.Const(n, 1, t2)
			}
			return out
		}
		return FieldsDual{Ez: d(ts), Hx: d(zero), Hy: d(zero)}
	}
	cfg := PaperConfig(false, false)
	cfg.TimeWeights = []float64{1, 0, 0}
	tp := ad.NewTape()
	terms := Build(tp, f, p, c, cfg)
	// Bin 0 covers t near 0 where the residual ≈ t is small.
	uniform := PaperConfig(false, false)
	tp2 := ad.NewTape()
	full := Build(tp2, f, p, c, uniform)
	if terms.Phys.Scalar() >= full.Phys.Scalar()/2 {
		t.Fatalf("curriculum weighting did not suppress late residuals: %v vs %v",
			terms.Phys.Scalar(), full.Phys.Scalar())
	}
}
