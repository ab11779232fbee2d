package main

import (
	"encoding/json"
	"errors"
	"os"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sources"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks the
// emitted metrics against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// smokeOptions runs a workload at SmallConfig scale with short phases.
func smokeOptions(t *testing.T, trace bool) options {
	t.Helper()
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*servingSpec{&sp.Workloads.ServeRead, &sp.Workloads.ServeMixed} {
		s.RateRPS = 150
		s.SetupRepeats = 1
		s.BatchRequests = 60
		s.BatchRepeats = 1
		s.CheckSample = 20
		s.LagLimitMS = 1000 // a loaded test machine must not invalidate the smoke run
	}
	// At SmallConfig the set-up takes tens of milliseconds, where a garbage
	// collection alone moves it by half: the attribution tolerance is for
	// Table 1 scale.
	sp.Workloads.PaperBatch.SetupTolerance = 1
	cfg := sources.SmallConfig()
	return options{cfg: cfg, seed: cfg.Seed, seconds: time.Second, trace: trace, dir: t.TempDir(), spec: sp}
}

// TestSpecMatchesBenchmarkFile checks that spec.json and BENCHMARK.json
// name the same workloads and metrics with the same units, and that every
// per-layer metric is measured on a workload the benchmark runs.
func TestSpecMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json names workload %q the benchmark does not run", w.Name)
		}
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Errorf("BENCHMARK.json names workloads %v, the benchmark runs %d", names, len(workloads))
	}
	check := func(kind string, declared map[string]string, specified map[string]metricSpec) {
		for name, unit := range declared {
			if m, ok := specified[name]; !ok {
				t.Errorf("%s metric %q is in BENCHMARK.json, not in spec.json", kind, name)
			} else if m.Unit != unit {
				t.Errorf("%s metric %q: unit %q in spec.json, %q in BENCHMARK.json", kind, name, m.Unit, unit)
			}
		}
		for name := range specified {
			if _, ok := declared[name]; !ok {
				t.Errorf("%s metric %q is in spec.json, not in BENCHMARK.json", kind, name)
			}
		}
	}
	e2e, layers := map[string]string{}, map[string]string{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range bf.PerLayer {
		layers[m.Name] = m.Unit
	}
	check("end-to-end", e2e, sp.EndToEnd)
	check("per-layer", layers, sp.PerLayer)
	for name, m := range sp.PerLayer {
		if len(m.Workloads) == 0 {
			t.Errorf("per-layer metric %q is measured on no workload", name)
		}
		for _, w := range m.Workloads {
			if !slices.Contains(names, w) {
				t.Errorf("per-layer metric %q names workload %q", name, w)
			}
		}
	}
}

// TestWorkloadsEmitEveryMetric runs every workload untraced and traced. An
// untraced run must emit every end-to-end metric; a traced run must
// measure exactly the per-layer metrics spec.json lists for its workload
// and, with the bypassed layers filled in, report every per-layer metric.
// Units must be the declared ones and end-to-end values never 0.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	bf := readBenchmarkFile(t)
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		run := workloads[w.Name]
		for _, trace := range []bool{false, true} {
			res, err := run(smokeOptions(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if len(res.errs) > 0 {
				t.Fatalf("%s trace=%v: checks failed: %v", w.Name, trace, res.errs)
			}
			if res.Attempted < 1 {
				t.Errorf("%s trace=%v: attempted %d", w.Name, trace, res.Attempted)
			}
			declared := sp.EndToEnd
			var want []string
			if trace {
				declared = sp.PerLayer
				for name, m := range sp.PerLayer {
					if slices.Contains(m.Workloads, w.Name) {
						want = append(want, name)
					}
				}
			} else {
				for name := range sp.EndToEnd {
					want = append(want, name)
				}
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if d, ok := declared[name]; !ok {
					t.Errorf("%s trace=%v: emits %q, which is not declared", w.Name, trace, name)
				} else if d.Unit != m.Unit {
					t.Errorf("%s trace=%v: %q in unit %q, declared %q", w.Name, trace, name, m.Unit, d.Unit)
				}
				if !trace && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %q is 0", w.Name, name)
				}
			}
			sort.Strings(got)
			sort.Strings(want)
			if !equalStrings(got, want) {
				t.Errorf("%s trace=%v: measures %v, spec.json lists %v", w.Name, trace, got, want)
			}
			if trace {
				res.fillBypassed(w.Name, sp)
				if len(res.Metrics) != len(sp.PerLayer) {
					t.Errorf("%s: reports %d per-layer metrics with the bypassed ones filled in, want %d", w.Name, len(res.Metrics), len(sp.PerLayer))
				}
			}
		}
	}
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestChecksFireOnWrongAnswers feeds every correctness check a
// deliberately wrong answer.
func TestChecksFireOnWrongAnswers(t *testing.T) {
	t.Run("tables", func(t *testing.T) {
		good := func() []tableRun {
			var runs []tableRun
			for _, tb := range paperTables {
				res := &experiments.TableResult{Metrics: map[string]eval.Result{
					"Merge": {F1: 0.98}, "Title": {F1: 0.9},
				}}
				runs = append(runs, tableRun{name: tb.name, res: res})
			}
			return runs
		}
		if err := checkTables(good(), true, 0.98); err != nil {
			t.Fatalf("correct tables rejected: %v", err)
		}
		failed := good()
		failed[3].err = errors.New("boom")
		if checkTables(failed, false, 0) == nil {
			t.Error("a failed table passed")
		}
		missing := good()
		delete(missing[7].res.Metrics, "Merge")
		if checkTables(missing, false, 0) == nil {
			t.Error("a missing F-measure passed")
		}
		if checkTables(good(), true, 0.9818) == nil {
			t.Error("a wrong Table 2 F-measure at the default seed passed")
		}
		worse := good()
		worse[1].res.Metrics["Merge"] = eval.Result{F1: 0.5}
		if checkTables(worse, false, 0) == nil {
			t.Error("a merge that loses to the title matcher passed")
		}
	})
	t.Run("answers", func(t *testing.T) {
		a := [][]serve.MatchResult{{{ID: "x", Sim: 0.9}, {ID: "y", Sim: 0.85}}}
		b := [][]serve.MatchResult{{{ID: "x", Sim: 0.9}, {ID: "y", Sim: 0.85}}}
		if err := checkAnswers(a, b); err != nil {
			t.Fatalf("equal answers rejected: %v", err)
		}
		b[0][1].Sim = 0.8500000000000001
		if checkAnswers(a, b) == nil {
			t.Error("a similarity off in the last bit passed")
		}
		b[0] = b[0][:1]
		if checkAnswers(a, b) == nil {
			t.Error("a missing match passed")
		}
	})
	t.Run("replay", func(t *testing.T) {
		lds := model.LDS{Source: "ACM", Type: model.Publication}
		build := func(s float64) *mapping.Mapping {
			m := mapping.New(lds, lds, model.SameMappingType)
			m.Add("a", "b", 0.9)
			m.Add("c", "d", s)
			return m
		}
		if err := checkReplay(build(0.8), build(0.8)); err != nil {
			t.Fatalf("equal mappings rejected: %v", err)
		}
		if checkReplay(build(0.8), build(0.81)) == nil {
			t.Error("a replayed row with another similarity passed")
		}
		if checkReplay(mapping.New(lds, lds, model.SameMappingType), mapping.New(lds, lds, model.SameMappingType)) == nil {
			t.Error("an empty delta mapping passed")
		}
		live := map[string]bool{"a": true, "b": true, "c": true, "d": true}
		if err := checkDelta(build(0.8), live); err != nil {
			t.Fatalf("live rows rejected: %v", err)
		}
		delete(live, "d")
		if checkDelta(build(0.8), live) == nil {
			t.Error("a row touching a removed instance passed")
		}
	})
	t.Run("lateness", func(t *testing.T) {
		if checkLag(phase{lagP99: time.Millisecond}, 5) != nil {
			t.Error("an on-time generator was rejected")
		}
		if err := checkLag(phase{lagP99: 6 * time.Millisecond}, 5); !errors.Is(err, errInvalid) {
			t.Errorf("a late generator gave %v, want an invalid run", err)
		}
	})
}

// TestWindowedQuantileLeavesOutStolenSeconds pins the latency estimator:
// the seconds in which the host stole the most CPU are left out, and with
// no steal at all every second counts.
func TestWindowedQuantileLeavesOutStolenSeconds(t *testing.T) {
	var jobs []job
	var outs []outcome
	lat := []time.Duration{1, 9, 2, 8} // ms per one-second window
	for w, l := range lat {
		for k := 0; k < 10; k++ {
			jobs = append(jobs, job{due: time.Duration(w)*time.Second + time.Duration(k)*time.Millisecond, kind: opResolve})
			outs = append(outs, outcome{lat: l * time.Millisecond, ok: true})
		}
	}
	if got := windowedQuantile(jobs, outs, opResolve, 0.5, []float64{0, 0.3, 0.01, 0.2}); got != 1500*time.Microsecond {
		t.Errorf("with the slow seconds stolen: got %v, want the quiet seconds' 1.5ms", got)
	}
	if got := windowedQuantile(jobs, outs, opResolve, 0.5, []float64{0, 0, 0, 0}); got != 5*time.Millisecond {
		t.Errorf("without steal: got %v, want the median of all seconds, 5ms", got)
	}
	outs[0].ok = false
	if got := windowedQuantile(jobs, outs, opResolve, 1, []float64{0, 0.3, 0.01, 0.2}); got < 9*time.Millisecond {
		t.Errorf("a failed request in a quiet second: got %v, want it over any limit", got)
	}
}
