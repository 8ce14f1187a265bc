package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/maxwell"
	"repro/internal/qsim"
	"repro/internal/trace"
)

// plan sizes one run.
type plan struct {
	setups     int           // set-ups per run; setup_s is their median
	budget     int           // fixed step budget: l2_final is read after it, and the timed loop runs at least this many steps
	evalEvery  int           // steps between evaluations, as core.TrainConfig.EvalEvery
	prefix     int           // steps in each bit-identity check
	traceSteps int           // steps per side (untraced, traced) in the traced run
	maxWall    time.Duration // the timed loop stops here even before its budget
}

// fullPlan gives 100 step samples, so 10 lie beyond p90.
var fullPlan = plan{setups: 9, budget: 100, evalEvery: 4, prefix: 2, traceSteps: 20, maxWall: 120 * time.Second}

// shortPlan runs every code path in a few steps (tests).
var shortPlan = plan{setups: 1, budget: 4, evalEvery: 2, prefix: 2, traceSteps: 3, maxWall: 60 * time.Second}

type options struct {
	seed    int64
	seconds float64
	traced  bool
	plan    plan
	outDir  string // where the traced run writes its Chrome trace; empty: nowhere
	wrap    func(maxwell.Forward) maxwell.Forward
}

// result is one workload run's outcome.
type result struct {
	values            map[string]float64
	attempted, failed int
	failures          []string
	tracePath         string
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.failures = append(r.failures, name+": "+fmt.Sprintf(format, args...))
	}
}

// stepDone counts one training step, failed when err is non-nil.
func (r *result) stepDone(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 8 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// initSeed maps the workload seed to the model init seed (splitmix64), the
// only input the program receives from it.
func initSeed(seed int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

func run(w workload, o options) *result {
	r := &result{values: map[string]float64{}}
	if w.distWorkers > 0 {
		defer dist.Shutdown() // for the early returns; the end of the run also checks it
	}
	trace.SetEnabled(false)
	trace.Reset()
	p := o.plan

	var e *env
	var setups []setupTimes
	for i := 0; i < p.setups; i++ {
		var st setupTimes
		var err error
		runtime.GC() // each set-up starts from the same heap, not the last one's garbage
		e, st, err = w.setup(initSeed(o.seed))
		r.check("setup", err == nil, "%v", err)
		if err != nil {
			return r
		}
		setups = append(setups, st)
	}
	kids := children()
	tcfg := w.trainConfig(p.budget)

	// Reference trajectories for the bit-identity checks, each from a fresh
	// model with the same init seed.
	tm := core.TrainModel(core.NewModel(e.cfg), e.problem, w.trainConfig(p.prefix), nil)
	var sharded []float64
	if e.cfg.Engine == qsim.EngineDist {
		cfg := e.cfg
		cfg.Engine = qsim.EngineSharded
		t := newTrainer(e, core.NewModel(cfg), tcfg, &tracer{}, o.wrap)
		for i := 0; i < p.prefix; i++ {
			_, err := t.step()
			r.stepDone(err)
		}
		sharded = t.losses
	}

	var losses, traced []float64
	if o.traced {
		losses, traced = r.tracedRun(w, e, tcfg, o)
		n := min(len(traced), len(losses))
		r.check("traced_identical", n > 0 && samePrefix(losses, traced, n, bitExact(e.cfg)),
			"untraced %v, traced %v", head(losses, n), traced)
	} else {
		losses = r.timedRun(e, tcfg, o, kids)
	}

	r.check("trainmodel_prefix", samePrefix(losses, totals(tm.History), p.prefix, bitExact(e.cfg)),
		"benchmark loop %v, core.TrainModel %v", head(losses, p.prefix), totals(tm.History))
	if sharded != nil {
		r.check("dist_vs_sharded", samePrefix(losses, sharded, p.prefix, true),
			"dist %v, sharded %v", head(losses, p.prefix), sharded)
	}
	if l2, ok := r.values["l2_final"]; ok {
		r.check("l2_finite", !math.IsNaN(l2) && !math.IsInf(l2, 0), "l2_final %v", l2)
	}

	setupMetrics(r, setups, o.traced)
	if w.distWorkers > 0 {
		dist.Shutdown()
		r.check("workers_stopped", waitChildren(10*time.Second), "a dist worker outlived the run")
	}
	if !o.traced {
		r.values["steps_ok_share"] = 1 - float64(r.failed)/float64(r.attempted)
	}
	return r
}

// timedRun is the untraced closed loop behind the end-to-end metrics: each
// step starts when the previous one (and any evaluation due) has finished.
// It runs at least the step budget and at least the requested seconds.
//
// The gated timings leave out two things the machine, not the program,
// decides. Each step's and evaluation's wall time is scaled by the share of
// CPU ticks the hypervisor did not steal meanwhile; then it is divided by the
// calibration kernel's median time in this run (see calibKernel). The raw
// wall times are reported beside them.
func (r *result) timedRun(e *env, tcfg core.TrainConfig, o options, kids []int) []float64 {
	p := o.plan
	t := newTrainer(e, e.model, tcfg, &tracer{}, o.wrap)
	var stepMS, evalMS, calMS, stepAdj, evalAdj []float64
	var cpu time.Duration
	ls0, lt0 := hostSteal()
	start := time.Now()
	for i := 0; ; i++ {
		el := time.Since(start)
		if i >= p.budget && el.Seconds() >= o.seconds || el >= p.maxWall {
			break
		}
		calMS = append(calMS, ms(calibKernel()))
		c0 := cpuTime(kids)
		s0, n0 := hostSteal()
		t0 := time.Now()
		_, err := t.step()
		d := time.Since(t0)
		s1, n1 := hostSteal()
		cpu += cpuTime(kids) - c0
		r.stepDone(err)
		stepMS = append(stepMS, ms(d))
		stepAdj = append(stepAdj, ms(d)*unstolen(s0, n0, s1, n1))
		if (i+1)%p.evalEvery == 0 || i+1 == p.budget {
			s0, n0 := hostSteal()
			t0 := time.Now()
			l2 := t.evaluate()
			d := time.Since(t0)
			s1, n1 := hostSteal()
			evalMS = append(evalMS, ms(d))
			evalAdj = append(evalAdj, ms(d)*unstolen(s0, n0, s1, n1))
			if i+1 == p.budget {
				r.values["l2_final"] = l2
			}
		}
	}
	wall := time.Since(start)
	ls1, lt1 := hostSteal()
	n := float64(len(stepMS))
	v := r.values
	v["train_points_per_s"] = float64(e.coll.N) * n / wall.Seconds()
	v["step_ms_p50"] = quantile(stepMS, 0.5)
	v["step_ms_p90"] = quantile(stepMS, 0.9)
	v["cpu_ms_per_step"] = ms(cpu) / n
	v["eval_ms_p50"] = quantile(evalMS, 0.5)
	v["rss_peak_mb"] = rssPeakMB(kids)
	v["timed_steps"] = n
	cal := quantile(calMS, 0.5)
	v["calib_ms"] = cal
	v["steal_share"] = 1 - unstolen(ls0, lt0, ls1, lt1)
	v["train_points_per_cal"] = v["train_points_per_s"] / (1 - v["steal_share"]) * cal / 1e3
	v["step_cal_p50"] = quantile(stepAdj, 0.5) / cal
	v["step_cal_p90"] = quantile(stepAdj, 0.9) / cal
	v["cpu_cal_per_step"] = v["cpu_ms_per_step"] / cal
	v["eval_cal_p50"] = quantile(evalAdj, 0.5) / cal
	if _, ok := r.values["l2_final"]; !ok {
		r.check("step_budget", false, "ran %d of %d budgeted steps in %v", len(stepMS), p.budget, p.maxWall)
	}
	return t.losses
}

// tracedRun is the separate run behind the per-layer metrics. It alternates
// an untraced trainer (A) and a traced one (B) on twin models: A's counter
// deltas give the per-step counts and the untraced base for trace.overhead,
// B's span tree gives each layer's self time.
func (r *result) tracedRun(w workload, e *env, tcfg core.TrainConfig, o options) (untraced, traced []float64) {
	p := o.plan
	trB := &tracer{on: true}
	a := newTrainer(e, e.model, tcfg, &tracer{}, o.wrap)
	b := newTrainer(e, core.NewModel(e.cfg), tcfg, trB, o.wrap)
	var ta, tb tally
	var msA, msB []float64
	var c0, c1 counters
	stepA := func() {
		c0.read(false)
		t0 := time.Now()
		_, err := a.step()
		d := time.Since(t0)
		c1.read(true)
		ta.add(&c0, &c1, a.nodes)
		r.stepDone(err)
		msA = append(msA, ms(d))
	}
	stepB := func() {
		c0.read(false)
		trace.SetEnabled(true)
		t0 := time.Now()
		_, err := b.step()
		d := time.Since(t0)
		trace.SetEnabled(false)
		c1.read(true)
		tb.add(&c0, &c1, b.nodes)
		trB.collect()
		r.stepDone(err)
		msB = append(msB, ms(d))
	}
	for i := 0; i < p.traceSteps; i++ {
		if i%2 == 0 {
			stepA()
			stepB()
		} else {
			stepB()
			stepA()
		}
		if (i+1)%p.evalEvery == 0 || i+1 == p.traceSteps {
			la := a.evaluate()
			trace.SetEnabled(true)
			lb := b.evaluate()
			trace.SetEnabled(false)
			trB.collect()
			r.check("traced_eval_identical", same(la, lb, bitExact(e.cfg)),
				"step %d: core.Evaluate L2 %v, traced evaluation %v", i+1, la, lb)
		}
	}

	nodes := trB.merge()
	sp := layerSplit(nodes)
	steps := float64(sp.steps)
	per := func(ns int64) float64 { return float64(ns) / 1e6 / steps }
	v := r.values
	v["nn.features_ms"] = per(sp.self["nn.periodic"] + sp.self["nn.rff"])
	v["nn.dense_ms"] = per(sp.self["nn.dense"])
	v["nn.quantum_ms"] = per(sp.self["nn.quantum"] + sp.self["nn.trig"])
	v["qsim.fwd_ms"] = float64(tb.fwdNS) / 1e6 / float64(tb.steps)
	v["qsim.bwd_ms"] = float64(tb.bwdNS) / 1e6 / float64(tb.steps)
	v["ad.backward_self_ms"] = per(sp.self["ad.backward"])
	v["maxwell.loss_ms"] = per(sp.self["maxwell.build"])
	v["opt.step_ms"] = per(sp.self["opt.update"])
	stepMean := per(sp.stepWall)
	layers := 0.0
	for _, k := range []string{"nn.features_ms", "nn.dense_ms", "nn.quantum_ms", "qsim.fwd_ms", "qsim.bwd_ms",
		"ad.backward_self_ms", "maxwell.loss_ms", "opt.step_ms"} {
		layers += v[k]
	}
	v["trace.coverage"] = layers / stepMean
	v["trace.step_other_ms"] = stepMean - layers
	v["trace.base_step_ms_p50"] = quantile(msA, 0.5)
	v["trace.traced_step_ms_p50"] = quantile(msB, 0.5)
	v["trace.overhead"] = v["trace.traced_step_ms_p50"] / v["trace.base_step_ms_p50"]
	if sp.evals > 0 {
		v["core.eval_forward_ms"] = float64(sp.evalForward) / 1e6 / float64(sp.evals)
	}

	na := float64(ta.steps)
	v["qsim.passes"] = float64(ta.fwdPasses+ta.bwdPasses) / na
	v["ad.tape_nodes"] = float64(ta.tapeNodeSum) / na
	v["dist.bytes_out"] = float64(ta.bytesOut) / na
	v["dist.bytes_in"] = float64(ta.bytesIn) / na
	v["dist.batches"] = float64(ta.batches) / na
	v["dist.shards"] = float64(ta.shards) / na
	v["dist.shard_latency_ms"] = ratio(float64(ta.latNS)/1e6, float64(ta.shards))
	v["dist.affinity_hit_ratio"] = ratio(float64(ta.affRouted), float64(ta.affRouted+ta.affMissed))
	v["dist.redispatched"] = float64(ta.redispatched) / na
	v["runtime.allocs"] = float64(ta.allocs) / na
	v["runtime.alloc_bytes"] = float64(ta.allocBytes) / na
	v["runtime.gc_cycles"] = float64(ta.gcRuns) / na
	v["runtime.gc_pause_ms"] = ta.gcPauseCPU * 1e3 / float64(runtime.GOMAXPROCS(0)) / na
	v["par.regions"] = float64(ta.regions) / na
	v["par.steal_ratio"] = ratio(float64(ta.steals), float64(ta.groups))

	if o.outDir != "" {
		js, err := chromeTrace(nodes)
		if err == nil {
			r.tracePath = filepath.Join(o.outDir, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
			err = os.WriteFile(r.tracePath, js, 0o644)
		}
		r.check("trace_written", err == nil, "%v", err)
	}
	return a.losses, b.losses
}

func setupMetrics(r *result, setups []setupTimes, traced bool) {
	med := func(f func(setupTimes) time.Duration) float64 {
		xs := make([]float64, len(setups))
		for i, s := range setups {
			xs[i] = ms(f(s))
		}
		return quantile(xs, 0.5)
	}
	if !traced {
		r.values["setup_s"] = med(func(s setupTimes) time.Duration { return s.total }) / 1e3
		return
	}
	r.values["core.model_build_ms"] = med(func(s setupTimes) time.Duration { return s.modelBuild })
	r.values["maxwell.collocation_ms"] = med(func(s setupTimes) time.Duration { return s.collocation })
	r.values["refsol.reference_ms"] = med(func(s setupTimes) time.Duration { return s.reference })
	r.values["dist.spawn_ms"] = med(func(s setupTimes) time.Duration { return s.spawn })
}

func totals(h []core.EpochStats) []float64 {
	out := make([]float64, len(h))
	for i, s := range h {
		out[i] = s.Total
	}
	return out
}

// reassocTol bounds the relative difference two runs of one trajectory may
// show on the fused engine. Its backward pass reduces per-worker gradient
// partials, and under the stealing scheduler the blocks each worker runs
// vary, so the engine documents reproducibility only to FP reassociation
// (~1e-15). Every other path (classical layers, sharded, dist) promises bit
// identity and is compared bit for bit.
const reassocTol = 1e-10

// bitExact reports whether a model's training is promised bit-reproducible.
func bitExact(cfg core.ModelConfig) bool {
	return cfg.Arch != core.QPINN || cfg.Engine == qsim.EngineSharded || cfg.Engine == qsim.EngineDist
}

// same compares two values bit for bit, or within reassocTol when !exact.
func same(a, b float64, exact bool) bool {
	if exact {
		return math.Float64bits(a) == math.Float64bits(b)
	}
	return math.Abs(a-b) <= reassocTol*math.Abs(b)
}

// samePrefix reports whether a and b agree (see same) on their first n
// entries, and both have them.
func samePrefix(a, b []float64, n int, exact bool) bool {
	if len(a) < n || len(b) < n {
		return false
	}
	for i := 0; i < n; i++ {
		if !same(a[i], b[i], exact) {
			return false
		}
	}
	return true
}

func head(xs []float64, n int) []float64 { return xs[:min(n, len(xs))] }
