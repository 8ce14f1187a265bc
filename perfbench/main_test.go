package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/ad"
	"repro/internal/maxwell"
)

type benchFile struct {
	Command   []string
	Paths     []string
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric and
// workload tables here in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json lists a subset of the workloads (see METRICS.md).
	for _, w := range f.Workloads {
		if _, err := findWorkload(w.Name); err != nil || w.Why == "" {
			t.Errorf("BENCHMARK.json workload %q: %v (why %q)", w.Name, err, w.Why)
		}
	}
	if len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d/%d metrics, the program %d/%d",
			len(f.EndToEnd), len(f.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range f.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
	for i, m := range f.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, program %+v", i, m, d)
		}
	}
}

// TestShortRunPrintsEveryMetric runs every workload, untraced and traced, in
// short mode: every named metric, bounded or raw, is printed with its unit;
// every check
// passes, and each traced run writes a Chrome trace whose layer self times
// cover the step within 5%.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("trains every workload")
	}
	dir := t.TempDir()
	var out bytes.Buffer
	err := mainErr([]string{"--workload", "all", "--short", "--seconds", "0", "--out-dir", dir}, &out, nil)
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	printed := map[string]string{} // "workload metric" -> unit
	traces := map[string]string{}
	for _, l := range lines[:len(lines)-1] {
		f := strings.Fields(l)
		switch {
		case len(f) == 3 && f[0] == "trace":
			traces[f[1]] = f[2]
		case len(f) == 4:
			printed[f[0]+" "+f[1]] = f[3]
		}
	}
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct {
			Value float64
			Unit  string
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("result %+v", res)
	}
	for _, w := range workloads {
		for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
			if u, ok := printed[w.name+" "+d.name]; !ok || u != d.unit {
				t.Errorf("%s %s: printed unit %q (present %v), want %q", w.name, d.name, u, ok, d.unit)
			}
			m, ok := res.Metrics[w.name+"/"+d.name]
			if !ok || m.Unit != d.unit || math.IsNaN(m.Value) {
				t.Errorf("%s/%s missing from the result or wrong: %+v", w.name, d.name, m)
			}
		}
		for _, d := range rawTimes {
			if u := printed[w.name+" "+d.name]; u != d.unit {
				t.Errorf("%s %s: printed unit %q, want %q", w.name, d.name, u, d.unit)
			}
		}
		if u := printed[w.name+" failed_share"]; u != "ratio" {
			t.Errorf("%s failed_share: printed unit %q", w.name, u)
		}
		if c := res.Metrics[w.name+"/trace.coverage"].Value; c < 0.95 || c > 1.05 {
			t.Errorf("%s: layer self times cover %.3f of the step", w.name, c)
		}
		checkChromeTrace(t, traces[w.name])
	}
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Errorf("trace: %v", err)
		return
	}
	var ct struct {
		TraceEvents []struct {
			Name, Ph string
			TS, Dur  float64
			Args     map[string]any
		}
	}
	if err := json.Unmarshal(b, &ct); err != nil {
		t.Errorf("%s is not trace-event JSON: %v", path, err)
		return
	}
	names := map[string]bool{}
	for _, e := range ct.TraceEvents {
		if e.Ph == "X" {
			names[e.Name] = true
		}
	}
	for _, want := range []string{"core.step", "maxwell.build", "nn.forward", "nn.dense", "ad.backward", "opt.update", "core.eval_forward"} {
		if !names[want] {
			t.Errorf("%s has no %s span", path, want)
		}
	}
}

// TestNaNFailsTheRun injects a NaN into the model output through a wrapping
// forward closure: the failures must count in failed_share and fail the
// command.
func TestNaNFailsTheRun(t *testing.T) {
	nan := func(inner maxwell.Forward) maxwell.Forward {
		return func(tp *ad.Tape, coords []float64, n int, withTangents bool) maxwell.FieldsDual {
			f := inner(tp, coords, n, withTangents)
			f.Ez.V.Data()[0] = math.NaN()
			return f
		}
	}
	var out bytes.Buffer
	err := mainErr([]string{"--workload", "qpinn-qheavy", "--short", "--seconds", "0"}, &out, nan)
	var fe failedErr
	if !errors.As(err, &fe) || exitCode(err) != 1 {
		t.Fatalf("err = %v, want a failed run (exit 1)\n%s", err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("result %+v, want failures", res)
	}
	if ok := res.Metrics["steps_ok_share"].Value; ok >= 1 {
		t.Errorf("steps_ok_share = %v, want < 1", ok)
	}
	if !strings.Contains(out.String(), "non-finite loss") {
		t.Errorf("no non-finite loss failure reported:\n%s", out.String())
	}
	for _, l := range lines {
		if f := strings.Fields(l); len(f) == 4 && f[1] == "failed_share" && f[2] == "0" {
			t.Errorf("failed_share printed as 0: %s", l)
		}
	}
}
