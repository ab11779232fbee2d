// Command perfbench is the repository's benchmark: it runs one workload
// against the program, checks the outputs, and prints every end-to-end
// metric (or, with --trace 1, every per-layer metric) by name and unit as
// the last line of standard output:
//
//	{"correct": true, "attempted": 10, "failed": 0, "metrics": {"work_s": {"value": 12.3, "unit": "s"}, ...}}
//
// Every workload reports the same end-to-end metrics, each defined for it
// in spec.json, and every per-layer metric; a layer the workload bypasses
// reads 0.
//
// Workloads (spec.json documents sizes, rates and what each stresses):
//
//	paper-batch  the paper's Tables 1-10 at Table 1 scale on a fresh Setting
//	serve-read   resolves over HTTP against GS.Publication, open-loop at a
//	             fixed rate, then in closed-loop batches
//	serve-mixed  resolves, adds and removes against ACM.Publication with a
//	             durable write-ahead-logged store, open-loop, then batches
//
// The workload seed drives the generated world and the request schedule;
// the program only ever sees the generated inputs. GOMAXPROCS is the
// machine's CPU count and the load generator uses at most that many
// connections.
//
// Usage (from the repository root; run.sh builds first):
//
//	bash perfbench/run.sh --workload serve-read --seed 20070107 --seconds 10 --trace 0
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/sources"
)

//go:embed spec.json
var specJSON []byte

// spec is the part of spec.json the benchmark reads: fixed rates, limits
// and sizes, and the metrics with their units. The rest of the file
// documents the workloads and metrics.
type spec struct {
	DefaultSeed int64                 `json:"default_seed"`
	EndToEnd    map[string]metricSpec `json:"end_to_end"`
	PerLayer    map[string]metricSpec `json:"per_layer"`
	Workloads   struct {
		PaperBatch struct {
			Table2MergeF1AtDefaultSeed float64 `json:"table2_merge_f1_at_default_seed"`
			SetupTolerance             float64 `json:"setup_attribution_tolerance"`
		} `json:"paper-batch"`
		ServeRead  servingSpec `json:"serve-read"`
		ServeMixed servingSpec `json:"serve-mixed"`
	} `json:"workloads"`
}

// metricSpec is one metric's unit and, for a per-layer metric, the
// workloads whose traced runs measure it.
type metricSpec struct {
	Unit      string   `json:"unit"`
	Workloads []string `json:"workloads"`
}

// servingSpec fixes one serving workload's load.
type servingSpec struct {
	Set           string  `json:"set"`
	RateRPS       float64 `json:"rate_rps"`
	LagLimitMS    float64 `json:"lag_p99_limit_ms"`
	SetupRepeats  int     `json:"setup_repeats"`
	CheckSample   int     `json:"check_sample"`
	BatchRequests int     `json:"batch_requests"`
	BatchRepeats  int     `json:"batch_repeats"`
	Mix           struct {
		Resolve float64 `json:"resolve"`
		Window  int     `json:"window"`
	} `json:"mix"`
}

func loadSpec() (spec, error) {
	var s spec
	if err := json.Unmarshal(specJSON, &s); err != nil {
		return s, fmt.Errorf("spec.json: %w", err)
	}
	return s, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's report line plus the correctness failures behind it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	errs []error
}

func newResult() *result { return &result{Metrics: map[string]metric{}} }

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// fail records a correctness failure; any failure makes the run incorrect.
func (r *result) fail(err error) { r.errs = append(r.errs, err) }

// fillBypassed reports 0 for every per-layer metric whose layer the
// workload bypasses (spec.json lists the workloads that measure each). A
// metric the workload should measure is never filled in.
func (r *result) fillBypassed(workload string, sp spec) {
	for name, m := range sp.PerLayer {
		if _, ok := r.Metrics[name]; !ok && !slices.Contains(m.Workloads, workload) {
			r.set(name, 0, m.Unit)
		}
	}
}

// errInvalid marks a run that cannot be scored (the load generator fell
// behind its schedule), as opposed to one whose outputs were wrong.
var errInvalid = errors.New("invalid run")

// options configures one workload run.
type options struct {
	cfg     sources.Config // generated world, seed applied
	seed    int64          // drives request schedules
	seconds time.Duration  // measured phase length
	trace   bool
	dir     string // scratch and trace directory inside the checkout
	spec    spec
}

// watchdog ends the process with an error if what has not finished within
// d; the returned function disarms it. sources.GenerateWorld does not
// return for some seeds (2 and 34 at PaperConfig among 0-40: its
// title-diversity loop keeps drawing once every (noun, topic) combination
// is taken), and a run must end rather than spin until it is killed.
func watchdog(d time.Duration, what string) (disarm func() bool) {
	t := time.AfterFunc(d, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v; stopping the run\n", what, d)
		os.Exit(3)
	})
	return t.Stop
}

// generate is sources.Generate under a watchdog.
func generate(cfg sources.Config) *sources.Dataset {
	defer watchdog(60*time.Second, fmt.Sprintf("sources.Generate (seed %d)", cfg.Seed))()
	return sources.Generate(cfg)
}

type workloadFunc func(options) (*result, error)

var workloads = map[string]workloadFunc{
	"paper-batch": runPaperBatch,
	"serve-read":  runServeRead,
	"serve-mixed": runServeMixed,
}

func main() {
	workload := flag.String("workload", "", "workload: paper-batch, serve-read or serve-mixed")
	seed := flag.Int64("seed", 0, "workload seed (world and request schedule)")
	seconds := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build", "directory for traces and temporary stores")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload paper-batch|serve-read|serve-mixed --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	cfg := sources.PaperConfig()
	cfg.Seed = *seed
	o := options{
		cfg: cfg, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, dir: filepath.Join(*out, "perfbench"), spec: sp,
	}
	defer watchdog(175*time.Second, "the run")()
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	if o.trace {
		res.fillBypassed(*workload, sp)
	}
	for _, e := range res.errs {
		fmt.Fprintf(os.Stderr, "perfbench: %s: check failed: %v\n", *workload, e)
	}
	res.Correct = len(res.errs) == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
