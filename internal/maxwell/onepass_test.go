package maxwell_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/ad"
	"repro/internal/core"
	"repro/internal/maxwell"
	"repro/internal/qsim"
)

// TestOnePassMatchesFourPassOracle: Build, which reads the IC and mirror
// values out of the one collocation pass, agrees with the four-pass oracle
// on every loss term and every parameter gradient of a real network. The
// models see x and y only through the periodic embedding and compute each
// output row from its input row alone, so the IC values are the same bits
// and the mirror values differ only where the periodic image is not bitwise
// −x (x = −1, and the non-dyadic grids g = 5, 6); the gradients are the same
// sums in another order.
func TestOnePassMatchesFourPassOracle(t *testing.T) {
	const tol = 1e-12
	models := []struct {
		name string
		cfg  func() core.ModelConfig
	}{
		{"qpinn-sharded", func() core.ModelConfig {
			m := core.SmokeModel(core.QPINN, qsim.StronglyEntangling, qsim.ScaleAcos)
			m.Engine = qsim.EngineSharded
			return m
		}},
		{"classical-regular", func() core.ModelConfig {
			return core.SmokeModel(core.ClassicalRegular, qsim.BasicEntangling, qsim.ScaleNone)
		}},
	}
	for _, mc := range models {
		for _, pc := range []maxwell.Case{maxwell.VacuumCase, maxwell.DielectricCase} {
			for _, g := range []int{4, 5, 6, 8} {
				name := fmt.Sprintf("%s/%s/g=%d", mc.name, pc, g)
				t.Run(name, func(t *testing.T) {
					p := maxwell.NewProblem(pc)
					c := maxwell.NewCollocation(p, g, 3)
					cfg := maxwell.PaperConfig(true, true)
					cfg.TimeWeights = []float64{1, 0.5, 0.25}
					model := core.NewModel(mc.cfg())

					step := func(build func(tp *ad.Tape) maxwell.Terms) (terms []float64, grads [][]float64) {
						tp := ad.NewTape()
						model.Reg.Bind(tp, true)
						tt := build(tp)
						tp.Backward(tt.Total)
						model.Reg.PullGrads()
						for _, v := range []ad.Value{tt.Phys, tt.IC, tt.Sym, tt.Energy, tt.Total} {
							terms = append(terms, v.Scalar())
						}
						for _, pr := range model.Reg.Params {
							grads = append(grads, append([]float64(nil), pr.Grad...))
						}
						return terms, grads
					}
					gotT, gotG := step(func(tp *ad.Tape) maxwell.Terms {
						return maxwell.Build(tp, model.Forward, p, c, cfg)
					})
					fp := maxwell.NewFourPassBatches(c)
					wantT, wantG := step(func(tp *ad.Tape) maxwell.Terms {
						return maxwell.BuildFourPass(tp, model.Forward, p, c, fp, cfg)
					})

					for k, name := range []string{"phys", "ic", "sym", "energy", "total"} {
						if d := relDiff(gotT[k], wantT[k]); d > tol {
							t.Errorf("%s term: one-pass %v, oracle %v (rel %.2g)", name, gotT[k], wantT[k], d)
						}
					}
					// Gradients compare per parameter tensor, relative to the
					// tensor's largest oracle entry, so entries that cancel to
					// near zero are held to the tensor's scale.
					for i, pr := range model.Reg.Params {
						var scale float64
						for _, v := range wantG[i] {
							scale = math.Max(scale, math.Abs(v))
						}
						if scale == 0 {
							t.Fatalf("%s: oracle gradient is identically zero", pr.Name)
						}
						for j := range wantG[i] {
							if d := math.Abs(gotG[i][j]-wantG[i][j]) / scale; d > tol {
								t.Fatalf("%s[%d]: one-pass grad %v, oracle %v (rel %.2g)", pr.Name, j, gotG[i][j], wantG[i][j], d)
							}
						}
					}
				})
			}
		}
	}
}

func relDiff(a, b float64) float64 {
	s := math.Max(math.Abs(a), math.Abs(b))
	if s == 0 {
		return 0
	}
	return math.Abs(a-b) / s
}
