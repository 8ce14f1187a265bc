package maxwell

import (
	"repro/internal/ad"
	"repro/internal/par"
	"repro/internal/refsol"
)

// FourPassBatches are the coordinate batches the four-pass assembly fed
// through the model besides the collocation set: the mirrored copies of
// every collocation point and the t = 0 grid.
type FourPassBatches struct {
	MirrorX, MirrorY []float64
	ICCoords         []float64
}

// NewFourPassBatches builds the extra batches for the grid of c: every
// point with x (respectively y) negated, and the t = 0 grid.
func NewFourPassBatches(c *Collocation) *FourPassBatches {
	g, n := c.Grid, c.N
	fp := &FourPassBatches{
		MirrorX:  make([]float64, n*3),
		MirrorY:  make([]float64, n*3),
		ICCoords: make([]float64, c.ICN*3),
	}
	for i := 0; i < n; i++ {
		x, y, t := c.Coords[i*3], c.Coords[i*3+1], c.Coords[i*3+2]
		fp.MirrorX[i*3+0] = -x
		fp.MirrorX[i*3+1] = y
		fp.MirrorX[i*3+2] = t
		fp.MirrorY[i*3+0] = x
		fp.MirrorY[i*3+1] = -y
		fp.MirrorY[i*3+2] = t
	}
	j := 0
	for iy := 0; iy < g; iy++ {
		y := refsol.Coord(iy, g)
		for ix := 0; ix < g; ix++ {
			x := refsol.Coord(ix, g)
			fp.ICCoords[j*3+0] = x
			fp.ICCoords[j*3+1] = y
			fp.ICCoords[j*3+2] = 0
			j++
		}
	}
	return fp
}

// BuildFourPass is the reference loss assembly that Build must match. It
// runs the model four times — over the collocation set (with tangents), the
// IC set and the two mirrored batches (values only) — so it relies on
// neither the periodicity nor the row independence of the model.
func BuildFourPass(tp *ad.Tape, model Forward, p Problem, c *Collocation, fp *FourPassBatches, cfg Config) Terms {
	var t Terms
	f := model(tp, c.Coords, c.N, true)

	curl, res2, res3 := residuals(tp, f)
	res1vac := tp.Sub(f.Ez.T[2], curl)

	w := cfg.TimeWeights
	var weightVec []float64
	if w != nil {
		weightVec = make([]float64, c.N)
		par.For(c.N, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				weightVec[i] = w[c.BinOf[i]]
			}
		})
	}

	switch {
	case p.Case != DielectricCase:
		// Eq. 13: three plain MSE residual terms.
		t.Phys = tp.AddScalars(
			weightedMSE(tp, res1vac, weightVec),
			weightedMSE(tp, res2, weightVec),
			weightedMSE(tp, res3, weightVec),
		)
	case cfg.UseIntuitive:
		// Eq. 37: one residual with pointwise 1/ε(x), all points weighted equally.
		invEps := make([]float64, c.N)
		par.For(c.N, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				invEps[i] = 1 / c.Eps[i]
			}
		})
		scaledCurl := tp.Mul(curl, tp.Const(c.N, 1, invEps))
		res1 := tp.Sub(f.Ez.T[2], scaledCurl)
		t.Phys = tp.AddScalars(
			weightedMSE(tp, res1, weightVec),
			weightedMSE(tp, res2, weightVec),
			weightedMSE(tp, res3, weightVec),
		)
	default:
		// Eq. 14: separate MSEs over the vacuum and dielectric partitions,
		// weighting both regions equally regardless of point counts — the
		// non-homogeneous loss that §5.1 credits with preventing the BH
		// collapse in the dielectric case.
		epsR := epsOfDielectric(c)
		res1d := tp.Sub(f.Ez.T[2], tp.Scale(curl, 1/epsR))
		t.Phys = tp.AddScalars(
			weightedMSESubset(tp, res1vac, c.VacIdx, weightVec),
			weightedMSESubset(tp, res1d, c.DielIdx, weightVec),
			weightedMSE(tp, res2, weightVec),
			weightedMSE(tp, res3, weightVec),
		)
	}

	t.BinResiduals = binResiduals(c, res1vac, res2, res3)

	// Initial-condition loss (eq. 19), values only.
	fic := model(tp, fp.ICCoords, c.ICN, false)
	ez0 := tp.Const(c.ICN, 1, c.ICEz0)
	t.IC = tp.AddScalars(
		tp.MSE(tp.Sub(fic.Ez.V, ez0)),
		tp.MSE(fic.Hx.V),
		tp.MSE(fic.Hy.V),
	)

	terms := []ad.Value{t.Phys, tp.Scale(t.IC, cfg.WIC)}

	// Symmetry loss (eq. 20): mirror batches share the collocation points.
	if cfg.UseSymmetry && (p.UseSymX || p.UseSymY) {
		var symTerms []ad.Value
		if p.UseSymX {
			fm := model(tp, fp.MirrorX, c.N, false)
			symTerms = append(symTerms,
				tp.MSE(tp.Sub(f.Ez.V, fm.Ez.V)), // Ez even in x
				tp.MSE(tp.Sub(f.Hx.V, fm.Hx.V)), // Hx even in x
				tp.MSE(tp.Add(f.Hy.V, fm.Hy.V)), // Hy odd in x
			)
		}
		if p.UseSymY {
			fm := model(tp, fp.MirrorY, c.N, false)
			symTerms = append(symTerms,
				tp.MSE(tp.Sub(f.Ez.V, fm.Ez.V)), // Ez even in y
				tp.MSE(tp.Add(f.Hx.V, fm.Hx.V)), // Hx odd in y
				tp.MSE(tp.Sub(f.Hy.V, fm.Hy.V)), // Hy even in y
			)
		}
		t.Sym = tp.AddScalars(symTerms...)
		terms = append(terms, tp.Scale(t.Sym, cfg.WSym))
	}

	// Energy-conservation loss (eq. 25): the Poynting residual
	// ∂u/∂t + ∇·S with u = ½(ε Ez² + Hx² + Hy²), S = (−Ez·Hy, Ez·Hx).
	if cfg.UseEnergy {
		epsVec := tp.Const(c.N, 1, c.Eps)
		dudt := tp.Add(
			tp.Add(
				tp.Mul(tp.Mul(epsVec, f.Ez.V), f.Ez.T[2]),
				tp.Mul(f.Hx.V, f.Hx.T[2]),
			),
			tp.Mul(f.Hy.V, f.Hy.T[2]),
		)
		divSx := tp.Add(tp.Mul(f.Ez.T[0], f.Hy.V), tp.Mul(f.Ez.V, f.Hy.T[0]))
		divSy := tp.Add(tp.Mul(f.Ez.T[1], f.Hx.V), tp.Mul(f.Ez.V, f.Hx.T[1]))
		res := tp.Add(tp.Sub(dudt, divSx), divSy)
		t.Energy = tp.MSE(res)
		terms = append(terms, tp.Scale(t.Energy, cfg.WEnergy))
	}

	t.Total = tp.AddScalars(terms...)
	return t
}
