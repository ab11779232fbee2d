package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/sources"
)

// table is one of the paper's experiments timed in the paper-batch pass.
type table struct {
	name string
	run  func(*experiments.Setting) (*experiments.TableResult, error)
}

var paperTables = []table{
	{"t1", experiments.Table1}, {"t2", experiments.Table2}, {"t3", experiments.Table3},
	{"t4", experiments.Table4}, {"t5", experiments.Table5}, {"t6", experiments.Table6},
	{"t7", experiments.Table7}, {"t8", experiments.Table8}, {"t9", experiments.Table9},
	{"t10", experiments.Table10},
}

// tableRun is the outcome of one table call.
type tableRun struct {
	name string
	res  *experiments.TableResult
	err  error
	took time.Duration
}

// paperF1 names the tables whose "Merge" F-measure the benchmark reports:
// publications DBLP-ACM (Table 2, also match_quality), authors DBLP-ACM
// (Table 6) and publications GS-ACM (Table 8).
var paperF1 = []struct{ name, table string }{
	{"publications DBLP-ACM", "t2"},
	{"authors DBLP-ACM", "t6"},
	{"publications GS-ACM", "t8"},
}

// runPaperBatch builds a fresh experiments.Setting (the set-up) and times
// one cold pass over Tables 1-10 on it. The traced run additionally times
// the set-up's layers one by one — world generation, the Google Scholar
// index and the query-driven collection of the GS working set — before
// building the Setting the tables run on.
func runPaperBatch(o options) (*result, error) {
	r := newResult()
	tr := newTracer(o.trace)

	var layers time.Duration
	if o.trace {
		sp := tr.begin("sources.Generate", 0, noReq)
		d := generate(o.cfg)
		gen := tr.end(sp)
		sp = tr.begin("sources.NewGSQuery", 0, noReq)
		q := sources.NewGSQuery(d.GS)
		idx := tr.end(sp)
		sp = tr.begin("sources.CollectFor", 0, noReq)
		work := q.CollectFor(d.DBLP.Pubs, "title", 15)
		collect := tr.end(sp)
		layers = gen + idx + collect
		queries := 0
		for _, in := range d.DBLP.Pubs.Instances() {
			if in.Attr("title") != "" {
				queries++
			}
		}
		if work.Len() == 0 {
			r.fail(fmt.Errorf("GS working set is empty"))
		}
		r.set("sources.generate_s", gen.Seconds(), "s")
		r.set("sources.gs_index_s", idx.Seconds(), "s")
		r.set("sources.gs_collect_s", collect.Seconds(), "s")
		r.set("sources.gs_query_us", float64(collect.Microseconds())/math.Max(1, float64(queries)), "us")
		runtime.GC() // free the layers' world before NewSetting builds its own
	}

	sp := tr.begin("experiments.NewSetting", 0, noReq)
	disarm := watchdog(150*time.Second, fmt.Sprintf("experiments.NewSetting (seed %d)", o.cfg.Seed))
	s := experiments.NewSetting(o.cfg)
	disarm()
	setup := tr.end(sp)
	if o.trace {
		attribution(r, "setup", setup, layers, o.spec.Workloads.PaperBatch.SetupTolerance)
	}

	runtime.GC() // the set-up's garbage is not the pass's to collect
	before := tr.scrape()
	rt := readRuntime()
	pass := tr.begin("tables", 0, noReq)
	runs := make([]tableRun, len(paperTables))
	for i, t := range paperTables {
		sp := tr.begin("experiments."+t.name, pass.id, noReq)
		res, err := t.run(s)
		runs[i] = tableRun{name: t.name, res: res, err: err, took: tr.end(sp)}
	}
	tables := tr.end(pass)
	if o.trace {
		runtimeMetrics(r, rt)
	}
	delta := tr.scrape().minus(before)

	r.Attempted = len(runs)
	for _, run := range runs {
		if run.err != nil {
			r.Failed++
		}
	}
	if err := checkTables(runs, o.seed == o.spec.DefaultSeed, o.spec.Workloads.PaperBatch.Table2MergeF1AtDefaultSeed); err != nil {
		r.fail(err)
	}

	if !o.trace {
		took := make([]time.Duration, len(runs))
		for i, run := range runs {
			took[i] = run.took
		}
		r.set("setup_s", setup.Seconds(), "s")
		r.set("work_s", tables.Seconds(), "s")
		r.set("latency_p50_ms", ms(median(took)), "ms")
		r.set("match_quality", tableF1(runs, "t2", "Merge"), "ratio")
		r.set("ok_ratio", ratio(float64(r.Attempted-r.Failed), float64(r.Attempted)), "ratio")
		r.set("rss_peak_mb", peakRSSMB(), "MB")
		return r, nil
	}

	var sum time.Duration
	for _, run := range runs {
		r.set("experiments."+run.name+"_s", run.took.Seconds(), "s")
		sum += run.took
	}
	attribution(r, "tables", tables, sum, 0.01)
	for _, f := range paperF1 {
		r.set("experiments."+f.table+"_merge_f1", tableF1(runs, f.table, "Merge"), "ratio")
	}

	pairs := delta.sum("moma_match_pairs_total")
	r.set("match.pairs", pairs, "count")
	r.set("match.kept_ratio", ratio(delta.sum("moma_match_pairs_kept_total"), pairs), "ratio")
	r.set("match.batches", delta.sum("moma_match_batches_total"), "count")
	r.set("match.queue_wait_s", delta.sum("moma_match_queue_wait_seconds_sum"), "s")
	hits := delta.sum("moma_profilecache_hits_total")
	r.set("match.profilecache_hit_ratio", ratio(hits, hits+delta.sum("moma_profilecache_misses_total")), "ratio")
	hits = delta.sum("moma_blockcache_hits_total")
	r.set("block.cache_hit_ratio", ratio(hits, hits+delta.sum("moma_blockcache_misses_total")), "ratio")
	for _, op := range []string{"compose", "merge", "select"} {
		r.set("mapping."+op+"_s", delta.sum("moma_mapping_op_seconds_sum", `op="`+op+`"`), "s")
	}
	r.set("mapping.rows", delta.sum("moma_mapping_op_rows_total"), "count")
	r.set("trace.overhead_ratio", tr.overheadRatio(), "ratio")
	return r, tr.write(o.dir, fmt.Sprintf("trace-paper-batch-%d.jsonl", o.seed))
}

// tableF1 returns the F-measure of one strategy of one table run.
func tableF1(runs []tableRun, table, label string) float64 {
	for _, run := range runs {
		if run.name == table && run.res != nil {
			return run.res.Metrics[label].F1
		}
	}
	return 0
}

// checkTables verifies the batch pass: every table returned without error,
// each reported F-measure exists and lies in (0, 1], Table 2's merged
// matcher beats its title matcher (the paper's central claim for
// combining matchers), and at the default seed Table 2's merged F-measure
// equals the known value.
func checkTables(runs []tableRun, defaultSeed bool, wantT2 float64) error {
	for _, run := range runs {
		if run.err != nil {
			return fmt.Errorf("%s: %w", run.name, run.err)
		}
		if run.res == nil {
			return fmt.Errorf("%s: no result", run.name)
		}
	}
	for _, f := range paperF1 {
		var res *experiments.TableResult
		for _, run := range runs {
			if run.name == f.table {
				res = run.res
			}
		}
		if res == nil {
			return fmt.Errorf("%s: table %s did not run", f.name, f.table)
		}
		m, ok := res.Metrics["Merge"]
		if !ok {
			return fmt.Errorf("%s: table %s has no \"Merge\" result", f.name, f.table)
		}
		if !(m.F1 > 0 && m.F1 <= 1) {
			return fmt.Errorf("%s: F-measure %v outside (0, 1]", f.name, m.F1)
		}
	}
	merge, title := tableF1(runs, "t2", "Merge"), tableF1(runs, "t2", "Title")
	if merge <= title {
		return fmt.Errorf("table 2: merged F-measure %.4f does not beat the title matcher's %.4f", merge, title)
	}
	if defaultSeed && math.Abs(merge-wantT2) > 1e-12 {
		return fmt.Errorf("table 2: merged F-measure %v at the default seed, want %v", merge, wantT2)
	}
	return nil
}
