package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// noReq marks a span that belongs to no single request.
const noReq = -1

// spanRec is one recorded span: a named interval around a call into one of
// the program's modules, its parent span (0 for a root) and, for
// per-request spans, the request id the spans of one request share.
type spanRec struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer times the benchmark's own calls into the program. Every call site
// measures its wall time whether or not tracing is on; with tracing on the
// interval is also kept as a span in memory and written out when the run
// ends. The time the tracer spends on its own bookkeeping (span appends,
// registry scrapes) is summed so the run can report its overhead.
type tracer struct {
	on bool
	t0 time.Time

	mu       sync.Mutex
	spans    []spanRec     // guarded by mu
	overhead time.Duration // guarded by mu
}

func newTracer(on bool) *tracer { return &tracer{on: on, t0: time.Now()} }

// open is a started span.
type open struct {
	id, parent int
	name       string
	req        int64
	start      time.Time
}

// begin starts a span under parent (0 for a root). The returned value
// carries the span id for children.
func (t *tracer) begin(name string, parent int, req int64) open {
	o := open{parent: parent, name: name, req: req}
	if t.on {
		t.mu.Lock()
		o.id = len(t.spans) + 1
		t.spans = append(t.spans, spanRec{ID: o.id}) // reserve the slot
		t.mu.Unlock()
	}
	o.start = time.Now()
	return o
}

// end finishes the span and returns its duration.
func (t *tracer) end(o open) time.Duration {
	stop := time.Now()
	d := stop.Sub(o.start)
	if t.on {
		t.mu.Lock()
		t.spans[o.id-1] = spanRec{
			ID: o.id, Parent: o.parent, Name: o.name, Req: o.req,
			Start: o.start.Sub(t.t0).Nanoseconds(), End: stop.Sub(t.t0).Nanoseconds(),
		}
		t.overhead += time.Since(stop)
		t.mu.Unlock()
	}
	return d
}

// record adds a span whose interval was measured elsewhere (a request timed
// by a load-generator worker).
func (t *tracer) record(name string, parent int, req int64, start, stop time.Time) {
	if !t.on {
		return
	}
	t0 := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, spanRec{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req,
		Start: start.Sub(t.t0).Nanoseconds(), End: stop.Sub(t.t0).Nanoseconds(),
	})
	t.overhead += time.Since(t0)
	t.mu.Unlock()
}

// scrape snapshots obs.Default, the registry behind the program's /metrics
// endpoint, as series -> value. Scrape time counts as tracing overhead.
func (t *tracer) scrape() series {
	t0 := time.Now()
	s := scrapeRegistry()
	t.mu.Lock()
	t.overhead += time.Since(t0)
	t.mu.Unlock()
	return s
}

// overheadRatio is the share of the traced run's wall time spent in tracer
// bookkeeping.
func (t *tracer) overheadRatio() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.overhead.Seconds() / time.Since(t.t0).Seconds()
}

// write saves the spans as JSON lines under dir.
func (t *tracer) write(dir, name string) error {
	if !t.on || dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// series maps a Prometheus series ("name" or "name{labels}") to its value.
type series map[string]float64

func scrapeRegistry() series {
	var b bytes.Buffer
	obs.Default.WritePrometheus(&b)
	out := series{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out
}

// minus returns the per-series change from before to s.
func (s series) minus(before series) series {
	d := series{}
	for k, v := range s {
		d[k] = v - before[k]
	}
	return d
}

// sum adds every series of the family name whose labels contain all of
// the given label pairs (e.g. `op="compose"`). Histogram families are
// addressed with their suffix: name_sum, name_count.
func (s series) sum(name string, labels ...string) float64 {
	var total float64
	for k, v := range s {
		fam, lab := k, ""
		if i := strings.IndexByte(k, '{'); i >= 0 {
			fam, lab = k[:i], k[i:]
		}
		if fam != name {
			continue
		}
		match := true
		for _, l := range labels {
			if !strings.Contains(lab, l) {
				match = false
				break
			}
		}
		if match {
			total += v
		}
	}
	return total
}

// ratio is num/den, 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runtimeStats is a snapshot of the process counters the runtime layer
// metrics are deltas of.
type runtimeStats struct {
	cpu       time.Duration // user+system CPU of the process
	gcCPU     float64       // seconds of CPU spent in the garbage collector
	totalCPU  float64       // GOMAXPROCS integrated over wall time
	heapAlloc float64       // cumulative bytes allocated on the heap
}

var runtimeSamples = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/gc/heap/allocs:bytes",
}

func readRuntime() runtimeStats {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	value := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeStats{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:     value(0),
		totalCPU:  value(1),
		heapAlloc: value(2),
	}
}

// runtimeMetrics reports the runtime layer over the interval since before:
// process CPU seconds, the garbage collector's share of available CPU and
// the megabytes allocated.
func runtimeMetrics(r *result, before runtimeStats) {
	after := readRuntime()
	r.set("proc.cpu_s", (after.cpu - before.cpu).Seconds(), "s")
	r.set("gc.cpu_fraction", ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU), "ratio")
	r.set("gc.alloc_mb", (after.heapAlloc-before.heapAlloc)/(1<<20), "MB")
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// attribution checks that the layer times add up to their end-to-end total
// within tol (a share of the total) and records the unattributed share.
func attribution(r *result, name string, total, parts time.Duration, tol float64) {
	share := ratio(total.Seconds()-parts.Seconds(), total.Seconds())
	r.set("trace."+name+"_unattributed", share, "ratio")
	if share < -tol || share > tol {
		r.fail(fmt.Errorf("attribution %s: layers sum to %v of %v end to end (%.1f%% unattributed, tolerance %.0f%%)",
			name, parts, total, 100*share, 100*tol))
	}
}
