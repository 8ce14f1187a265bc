package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/maxwell"
	"repro/internal/opt"
	"repro/internal/qsim"
)

// workload is one fixed training configuration. The benchmark derives the
// model init seed from --seed; everything else here is fixed. Why each one
// exists is recorded beside its name in BENCHMARK.json.
type workload struct {
	name        string
	model       func() core.ModelConfig
	problem     maxwell.Case
	grid        int // collocation points per coordinate (grid³ points)
	distWorkers int // > 0: the dist engine with this many self-exec'd workers
}

// qheavyModel is the SmokeModel trunk (Hidden 32, RFF 24) carrying the
// paper's circuit (7 qubits × 4 Strongly-Entangling layers).
func qheavyModel() core.ModelConfig {
	m := core.SmokeModel(core.QPINN, qsim.StronglyEntangling, qsim.ScaleAcos)
	m.NumQubits = 7
	m.QLayers = 4
	return m
}

var workloads = []workload{
	{
		name:    "qpinn-paper",
		model:   func() core.ModelConfig { return core.PaperModel(core.QPINN, qsim.StronglyEntangling, qsim.ScaleAcos) },
		problem: maxwell.VacuumCase, grid: 5,
	},
	// qpinn-qheavy is qpinn-dist's in-process twin, where qsim is about 75% of
	// the step. It runs under --workload all but is not listed in
	// BENCHMARK.json, which keeps a full set of benchmark runs inside its time
	// budget (METRICS.md).
	{
		name:    "qpinn-qheavy",
		model:   qheavyModel,
		problem: maxwell.VacuumCase, grid: 8,
	},
	{
		name: "pinn-dielectric",
		model: func() core.ModelConfig {
			return core.PaperModel(core.ClassicalRegular, qsim.StronglyEntangling, qsim.ScaleAcos)
		},
		problem: maxwell.DielectricCase, grid: 6,
	},
	{
		name: "qpinn-dist",
		model: func() core.ModelConfig {
			m := qheavyModel()
			m.Engine = qsim.EngineDist
			return m
		},
		problem: maxwell.VacuumCase, grid: 8, distWorkers: 1,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Fixed training settings shared by every workload: the eq. 26 loss with the
// energy and symmetry terms (four model passes per step), five time bins,
// κ = 2, and the paper's learning-rate schedule.
const (
	timeBins = 5
	kappa    = 2
)

func (w workload) trainConfig(epochs int) core.TrainConfig {
	return core.TrainConfig{
		Epochs: epochs, Schedule: opt.PaperSchedule(), Grid: w.grid,
		TimeBins: timeBins, Kappa: kappa, Loss: maxwell.PaperConfig(true, true),
	}
}

// modelConfig is the workload's model with the generated init seed.
func (w workload) modelConfig(initSeed int64) core.ModelConfig {
	cfg := w.model()
	cfg.Seed = initSeed
	return cfg
}

// env is everything set-up builds: the problem, a fresh model, the
// collocation set and the smoke-preset reference.
type env struct {
	problem maxwell.Problem
	cfg     core.ModelConfig
	model   *core.Model
	coll    *maxwell.Collocation
	ref     *core.Reference
}

// setupTimes splits one set-up into the layers that build it.
type setupTimes struct {
	total, modelBuild, collocation, reference, spawn time.Duration
}

// setup builds a workload's training inputs. For a dist workload it also
// restarts the worker pool and runs one forward-only pass on a single point,
// which spawns the worker and completes the handshake.
func (w workload) setup(initSeed int64) (*env, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	e := &env{problem: maxwell.NewSmokeProblem(w.problem), cfg: w.modelConfig(initSeed)}

	t := time.Now()
	e.model = core.NewModel(e.cfg)
	st.modelBuild = time.Since(t)

	t = time.Now()
	e.coll = maxwell.NewCollocation(e.problem, w.grid, timeBins)
	st.collocation = time.Since(t)

	t = time.Now()
	e.ref = core.NewReference(e.problem, 12, linspace(0, e.problem.TMax, 5), 64)
	st.reference = time.Since(t)

	if w.distWorkers > 0 {
		t = time.Now()
		dist.Configure(dist.Options{Workers: w.distWorkers})
		if err := catch(func() { e.model.EvalFields(e.ref.Coords[:3], 1) }); err != nil {
			return nil, st, fmt.Errorf("dist worker start-up: %w", err)
		}
		st.spawn = time.Since(t)
	}
	st.total = time.Since(t0)
	return e, st, nil
}

func linspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}

// catch runs f and turns a panic (a dist pass error surfaces as one) into an
// error.
func catch(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	f()
	return nil
}
