// Command perfbench is the repository's training-step benchmark. It trains
// fixed QPINN and classical-PINN workloads in a closed loop (one trainer, each
// step starting when the previous one ends), checks the outputs, and prints
// every metric by name and unit, ending with one JSON line:
//
//	perfbench --workload qpinn-qheavy --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is the
// separate traced run behind the per-layer metrics, and writes its span tree
// as Chrome trace-event JSON into --out-dir. --workload all runs every
// workload both ways. The exit code is 1 when any step or check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"

	"repro/internal/maxwell"
)

type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a user of the trainer sees, measured untraced and
// bounded by BENCHMARK.json. Timings are in "cal": steal-adjusted multiples of
// the calibration kernel's median time in the same run (see timedRun).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"train_points_per_cal", "points/cal", "higher"},
	{"step_cal_p50", "cal", "lower"},
	{"step_cal_p90", "cal", "lower"},
	{"cpu_cal_per_step", "cal", "lower"},
	{"eval_cal_p50", "cal", "lower"},
	{"l2_final", "ratio", "lower"},
	{"rss_peak_mb", "MB", "lower"},
	{"steps_ok_share", "ratio", "higher"},
}

// rawTimes are the same timings in wall-clock units, printed beside the
// bounded metrics, with the calibration time and steal share that convert
// between them.
var rawTimes = []metricDef{
	{"train_points_per_s", "points/s", "higher"},
	{"step_ms_p50", "ms", "lower"},
	{"step_ms_p90", "ms", "lower"},
	{"cpu_ms_per_step", "ms", "lower"},
	{"eval_ms_p50", "ms", "lower"},
	{"calib_ms", "ms", "lower"},
	{"steal_share", "ratio", "lower"},
	{"timed_steps", "count", "higher"},
}

// perLayer are the traced run's metrics, per training step unless named
// otherwise.
var perLayer = []metricDef{
	{"nn.features_ms", "ms", "lower"},
	{"nn.dense_ms", "ms", "lower"},
	{"nn.quantum_ms", "ms", "lower"},
	{"qsim.fwd_ms", "ms", "lower"},
	{"qsim.bwd_ms", "ms", "lower"},
	{"qsim.passes", "count", "lower"},
	{"ad.backward_self_ms", "ms", "lower"},
	{"ad.tape_nodes", "count", "lower"},
	{"maxwell.loss_ms", "ms", "lower"},
	{"opt.step_ms", "ms", "lower"},
	{"dist.bytes_out", "B", "lower"},
	{"dist.bytes_in", "B", "lower"},
	{"dist.batches", "count", "lower"},
	{"dist.shards", "count", "lower"},
	{"dist.shard_latency_ms", "ms", "lower"},
	{"dist.affinity_hit_ratio", "ratio", "higher"},
	{"dist.redispatched", "count", "lower"},
	{"runtime.allocs", "count", "lower"},
	{"runtime.alloc_bytes", "B", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"par.regions", "count", "lower"},
	{"par.steal_ratio", "ratio", "lower"},
	{"core.eval_forward_ms", "ms", "lower"},
	{"core.model_build_ms", "ms", "lower"},
	{"maxwell.collocation_ms", "ms", "lower"},
	{"refsol.reference_ms", "ms", "lower"},
	{"dist.spawn_ms", "ms", "lower"},
	{"trace.coverage", "ratio", "higher"},
	{"trace.step_other_ms", "ms", "lower"},
	{"trace.base_step_ms_p50", "ms", "lower"},
	{"trace.traced_step_ms_p50", "ms", "lower"},
	{"trace.overhead", "ratio", "lower"},
}

func main() {
	if err := mainErr(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(exitCode(err))
	}
}

// failedErr reports a run that printed its result but failed a step or check.
type failedErr struct{ n int }

func (e failedErr) Error() string { return fmt.Sprintf("%d failed steps or checks", e.n) }

func exitCode(err error) int {
	if _, ok := err.(failedErr); ok {
		return 1
	}
	return 2
}

// mainErr runs the benchmark. wrap, when non-nil, wraps every trainer's
// forward closure; the tests inject faults through it.
func mainErr(args []string, stdout io.Writer, wrap func(maxwell.Forward) maxwell.Forward) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name, or all")
	seed := fs.Int64("seed", 1, "workload seed; the model init seed derives from it")
	seconds := fs.Float64("seconds", 10, "minimum measured seconds of the timed loop")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: traced per-layer run")
	short := fs.Bool("short", false, "a few steps per workload (tests)")
	outDir := fs.String("out-dir", "", "directory for the traced run's Chrome trace JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 || (*traced != 0 && *traced != 1) {
		return fmt.Errorf("usage: perfbench --workload <name|all> [--seed n] [--seconds s] [--trace 0|1]")
	}
	o := options{seed: *seed, seconds: *seconds, plan: fullPlan, outDir: *outDir, wrap: wrap}
	if *short {
		o.plan = shortPlan
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	type job struct {
		w      workload
		traced bool
	}
	var jobs []job
	if *name == "all" {
		for _, w := range workloads {
			jobs = append(jobs, job{w, false}, job{w, true})
		}
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		jobs = append(jobs, job{w, *traced == 1})
	}

	fmt.Fprintf(stdout, "env nproc=%d GOMAXPROCS=%d go=%s cpu=%q seed=%d init_seed=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel(), *seed, initSeed(*seed))
	out := map[string]any{}
	attempted, failed := 0, 0
	for _, j := range jobs {
		o.traced = j.traced
		r := run(j.w, o)
		defs := endToEnd
		if j.traced {
			defs = perLayer
		}
		for _, f := range r.failures {
			fmt.Fprintf(stdout, "FAIL %s: %s\n", j.w.name, f)
		}
		if r.tracePath != "" {
			fmt.Fprintf(stdout, "trace %s %s\n", j.w.name, r.tracePath)
		}
		fmt.Fprintf(stdout, "%-16s %-26s %16.6g %s\n", j.w.name, "failed_share",
			float64(r.failed)/float64(max(r.attempted, 1)), "ratio")
		for _, d := range rawTimes {
			if v, ok := r.values[d.name]; ok {
				fmt.Fprintf(stdout, "%-16s %-26s %16.6g %s\n", j.w.name, d.name, v, d.unit)
			}
		}
		for _, d := range defs {
			v, ok := r.values[d.name]
			if !ok {
				continue
			}
			fmt.Fprintf(stdout, "%-16s %-26s %16.6g %s\n", j.w.name, d.name, v, d.unit)
			key := d.name
			if len(jobs) > 1 {
				key = j.w.name + "/" + d.name
			}
			var val any = v
			if math.IsNaN(v) || math.IsInf(v, 0) {
				val = nil // JSON has no NaN; the run has already failed a check
			}
			out[key] = map[string]any{"value": val, "unit": d.unit}
		}
		attempted += r.attempted
		failed += r.failed
	}
	line, err := json.Marshal(map[string]any{
		"correct": failed == 0, "attempted": max(attempted, 1), "failed": failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	if failed > 0 {
		return failedErr{failed}
	}
	return nil
}
