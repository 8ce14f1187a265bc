package core

import (
	"testing"

	"repro/internal/maxwell"
	"repro/internal/qsim"
)

// accuracyMargin is how far above its recorded value a run's final L2 may
// land before TestAccuracyBound fails: 2%. Reordered floating-point sums
// (another architecture's fused multiply-add, a reassociated kernel) move
// these L2 values by ~1e-12 relative, far inside the margin; a change that
// makes training converge worse moves them by whole percents.
const accuracyMargin = 0.02

// TestAccuracyBound trains the golden test's two configurations for 60
// fixed-seed epochs on the smoke problem and holds each run's relative L2
// error against the refsol reference below the value it reached when
// recorded, plus accuracyMargin. The golden trajectory catches any numeric
// change; this test tells the ones that cost accuracy from the ones that
// merely reround.
func TestAccuracyBound(t *testing.T) {
	runs := []struct {
		name      string
		model     func() ModelConfig
		prob      maxwell.Case
		loss      maxwell.Config
		times     []float64
		untrained float64 // L2 of the untrained model, for scale
		recorded  float64 // FinalL2 when recorded (linux/amd64)
	}{
		{
			name: "classical-dielectric",
			model: func() ModelConfig {
				return SmokeModel(ClassicalRegular, qsim.BasicEntangling, qsim.ScaleNone)
			},
			prob:      maxwell.DielectricCase,
			loss:      maxwell.PaperConfig(false, true),
			times:     []float64{0, 0.35, 0.7},
			untrained: 3.2070893922262353,
			recorded:  0.8366062354174852,
		},
		{
			name: "qpinn-sharded",
			model: func() ModelConfig {
				m := SmokeModel(QPINN, qsim.StronglyEntangling, qsim.ScaleAcos)
				m.Seed = 5
				return m
			},
			prob:      maxwell.VacuumCase,
			loss:      maxwell.PaperConfig(true, true),
			times:     []float64{0, 0.75, 1.5},
			untrained: 1.8070133183969397,
			recorded:  0.8363586412037042,
		},
	}
	for _, r := range runs {
		p := maxwell.NewSmokeProblem(r.prob)
		ref := NewReference(p, 8, r.times, 32)
		tcfg := SmokeTrain(60, r.loss)
		tcfg.Grid = 6
		res := Train(p, r.model(), tcfg, ref)
		bound := r.recorded * (1 + accuracyMargin)
		t.Logf("%s: final L2 %v (recorded %v, bound %v, untrained %v)", r.name, res.FinalL2, r.recorded, bound, r.untrained)
		if !(res.FinalL2 < bound) {
			t.Errorf("%s: final L2 %v exceeds the recorded %v by more than %.0f%% (untrained model: %v)",
				r.name, res.FinalL2, r.recorded, 100*accuracyMargin, r.untrained)
		}
	}
}
