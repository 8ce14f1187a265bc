package core

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/maxwell"
	"repro/internal/par"
	"repro/internal/qsim"
)

// goldenRuns are two short smoke trainings whose per-epoch total loss is
// pinned bit-for-bit. Cross-engine parity cannot see a numeric change in
// the layers every engine shares — losses, ad/dual, the matmul kernels,
// Adam, collocation — so these trajectories are the end-to-end record that
// such a change was (or was not) bit-invisible. A deliberate numeric
// change re-records the table and says why in its commit.
var goldenRuns = []struct {
	name  string
	model func() ModelConfig
	prob  maxwell.Case
	loss  maxwell.Config
	want  []uint64 // math.Float64bits of History[i].Total
}{
	{
		name: "classical-dielectric",
		model: func() ModelConfig {
			return SmokeModel(ClassicalRegular, qsim.BasicEntangling, qsim.ScaleNone)
		},
		prob: maxwell.DielectricCase,
		loss: maxwell.PaperConfig(false, true),
		want: []uint64{
			0x403f74ed3f3d863b, 0x4039d5839dfb0842, 0x40352c6c9417a0af, 0x40315b3a7f62836c, 0x402c834989289385,
			0x402781382957b586, 0x4023794041d2a555, 0x40203d27fed45be7, 0x401b4def2aa2f9e8, 0x40172f475a224ce8,
		},
	},
	{
		name: "qpinn-sharded",
		model: func() ModelConfig {
			m := SmokeModel(QPINN, qsim.StronglyEntangling, qsim.ScaleAcos)
			m.Seed = 5
			return m
		},
		prob: maxwell.VacuumCase,
		loss: maxwell.PaperConfig(true, true),
		want: []uint64{
			0x40335425cfca064e, 0x40304432a9d150ff, 0x402b5a50d8956a37, 0x40271ae2cfbe71f7, 0x4023b0cf173660ce,
			0x4020f5bc4ce00167, 0x401d87c396257f1b, 0x4019f983808316ed, 0x40171247d927fbd6, 0x4014ae530222b238,
		},
	},
}

// TestGoldenTrajectory replays each golden run under several worker bounds
// and compares every epoch's total loss with the recorded bits. The values
// were recorded on linux/amd64; other architectures may contract a·b+c into
// a fused multiply-add and legitimately round differently, so they skip.
func TestGoldenTrajectory(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden bits are recorded for amd64, not %s", runtime.GOARCH)
	}
	defer par.SetMaxWorkers(0)
	for _, g := range goldenRuns {
		for _, workers := range []int{1, 2, 4} {
			par.SetMaxWorkers(workers)
			tcfg := SmokeTrain(10, g.loss)
			tcfg.Grid = 6
			res := Train(maxwell.NewProblem(g.prob), g.model(), tcfg, nil)
			got := make([]uint64, len(res.History))
			for i, st := range res.History {
				got[i] = math.Float64bits(st.Total)
			}
			if len(got) != len(g.want) {
				t.Fatalf("%s/workers=%d: %d epochs, want %d; got bits %#v", g.name, workers, len(got), len(g.want), got)
			}
			for i := range got {
				if got[i] != g.want[i] {
					t.Fatalf("%s/workers=%d: epoch %d total %v (%#x), want %v (%#x); got bits %#v",
						g.name, workers, i, math.Float64frombits(got[i]), got[i],
						math.Float64frombits(g.want[i]), g.want[i], got)
				}
			}
		}
	}
}
