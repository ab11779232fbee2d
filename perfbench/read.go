package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"runtime"
	"time"

	moma "repro"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sources"
)

// readWorld is the serve-read system: every publication set served the
// way moma-serve serves it by default.
type readWorld struct {
	d   *sources.Dataset
	sys *moma.System
	srv *server
	cl  *client
}

func (w *readWorld) close() error {
	w.cl.close()
	return w.srv.stop()
}

// coldStartRead generates the world, registers the three publication sets
// with their resolvers, starts the server and waits for the first answered
// resolve against set.
func coldStartRead(cfg sources.Config, set string, tr *tracer, parent int) (*readWorld, error) {
	sp := tr.begin("sources.Generate", parent, noReq)
	d := generate(cfg)
	tr.end(sp)
	sys := moma.NewSystem()
	sp = tr.begin("moma.LoadSource", parent, noReq)
	for _, src := range []*sources.Source{d.DBLP, d.ACM, d.GS} {
		if err := sys.LoadSource(src); err != nil {
			return nil, err
		}
	}
	tr.end(sp)
	for _, name := range []string{"DBLP.Publication", "ACM.Publication", "GS.Publication"} {
		s, _ := sys.ObjectSetByName(name)
		sp = tr.begin("live.NewResolver", parent, noReq)
		_, err := sys.RegisterResolver(name, liveConfig(s))
		tr.end(sp)
		if err != nil {
			return nil, err
		}
	}
	srv, err := startServer(sys)
	if err != nil {
		return nil, err
	}
	w := &readWorld{d: d, sys: sys, srv: srv, cl: newClient(conns())}
	sp = tr.begin("http.first_resolve", parent, noReq)
	err = firstResolve(w.cl, srv.base, set, d.DBLP.Pubs.At(0).Attr("title"))
	tr.end(sp)
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// runServeRead serves GS.Publication and drives it with seeded DBLP-title
// resolves: an open-loop, fixed-rate phase for latency and recall, then
// closed-loop batches for the time a fixed amount of work takes.
func runServeRead(o options) (*result, error) {
	sp := o.spec.Workloads.ServeRead
	r := newResult()
	tr := newTracer(o.trace)

	var w *readWorld
	var setups []time.Duration
	for i := 0; i < sp.SetupRepeats; i++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
			w = nil
			runtime.GC()
		}
		s := tr.begin("setup", 0, noReq)
		var err error
		w, err = coldStartRead(o.cfg, sp.Set, tr, s.id)
		setups = append(setups, tr.end(s))
		if err != nil {
			return nil, err
		}
	}
	defer w.close()
	res, _ := w.sys.Resolver(sp.Set)
	qs, err := dblpQueries(w.d, w.d.Perfect.PubDBLPGS)
	if err != nil {
		return nil, err
	}
	url := w.srv.base + "/sets/" + sp.Set + "/resolve"
	resolveJobs := func(rng *rand.Rand, rate float64, d time.Duration) []job {
		due := poissonDue(rng, rate, d)
		jobs := make([]job, len(due))
		for i, t := range due {
			jobs[i] = job{due: t, kind: opResolve, arg: rng.Intn(len(qs))}
		}
		return jobs
	}
	// send runs one resolve job; top keeps each answer for recall and the
	// answer check.
	var top [][]serve.MatchResult
	send := func(jobs []job, phaseSpan int, name string) func(i int) bool {
		return func(i int) bool {
			var resp serve.ResolveResponse
			t0 := time.Now()
			code, err := w.cl.do(http.MethodPost, url, qs[jobs[i].arg].body, &resp)
			tr.record(name, phaseSpan, int64(i), t0, time.Now())
			if top != nil {
				top[i] = resp.Matches
			}
			return err == nil && code == http.StatusOK
		}
	}

	// Collect the set-up's garbage, then warm up at the nominal rate so
	// connections are open and the heap settles before the measured phase.
	runtime.GC()
	rng := rand.New(rand.NewSource(o.seed))
	warm := resolveJobs(rng, sp.RateRPS, time.Second)
	openLoop(warm, conns(), send(warm, 0, "http.warmup"))

	// Fixed-rate phase.
	jobs := resolveJobs(rng, sp.RateRPS, o.seconds)
	top = make([][]serve.MatchResult, len(jobs))
	before := tr.scrape()
	rt := readRuntime()
	ph := tr.begin("phase.fixed", 0, noReq)
	outs, steal := openLoop(jobs, conns(), send(jobs, ph.id, "http.resolve"))
	tr.end(ph)
	if o.trace {
		runtimeMetrics(r, rt)
	}
	delta := tr.scrape().minus(before)
	fixed := summarize(outs, steal)
	if err := checkLag(fixed, sp.LagLimitMS); err != nil {
		return nil, err
	}
	answers := top
	top = nil
	p50 := windowedQuantile(jobs, outs, opResolve, 0.50, steal)
	p99 := windowedQuantile(jobs, outs, opResolve, 0.99, steal)
	fixed.log("fixed", sp.RateRPS, p50, p99)

	// Closed-loop batches: the time a fixed batch of resolves takes at
	// full load.
	var batches []time.Duration
	batchOK, batchSent := 0, 0
	for k := 0; k < sp.BatchRepeats; k++ {
		bj := make([]job, sp.BatchRequests)
		for i := range bj {
			bj[i] = job{kind: opResolve, arg: rng.Intn(len(qs))}
		}
		s := tr.begin("phase.batch", 0, noReq)
		took, ok := closedLoop(len(bj), conns(), send(bj, s.id, "http.resolve"))
		tr.end(s)
		batches = append(batches, took)
		batchOK += ok
		batchSent += len(bj)
		fmt.Fprintf(os.Stderr, "perfbench: batch %d: %d resolves in %.3f s, %d ok\n", k, len(bj), took.Seconds(), ok)
	}

	// Correctness: a seeded sample of HTTP answers must equal in-process
	// resolves of the same queries.
	crng := rand.New(rand.NewSource(o.seed ^ 0x5eed))
	var httpAns, direct [][]serve.MatchResult
	for k := 0; k < sp.CheckSample && len(jobs) > 0; k++ {
		i := crng.Intn(len(jobs))
		if !outs[i].ok {
			continue
		}
		q := model.NewInstance("", map[string]string{"title": qs[jobs[i].arg].title})
		httpAns = append(httpAns, answers[i])
		direct = append(direct, rankLive(res.Resolve(q), 5))
	}
	if len(httpAns) == 0 {
		r.fail(fmt.Errorf("answer check: no successful request to compare"))
	} else if err := checkAnswers(httpAns, direct); err != nil {
		r.fail(err)
	}

	r.Attempted = fixed.sent + batchSent
	r.Failed = fixed.failed + batchSent - batchOK
	if !o.trace {
		r.set("setup_s", median(setups).Seconds(), "s")
		r.set("work_s", median(batches).Seconds(), "s")
		r.set("latency_p50_ms", ms(p50), "ms")
		top5 := make([][]string, len(answers))
		for i, a := range answers {
			for _, m := range a {
				top5[i] = append(top5[i], m.ID)
			}
		}
		r.set("match_quality", recallAt5(qs, jobs, outs, top5), "ratio")
		r.set("ok_ratio", ratio(float64(r.Attempted-r.Failed), float64(r.Attempted)), "ratio")
		r.set("rss_peak_mb", peakRSSMB(), "MB")
		return r, nil
	}

	engine, stages := stageMetrics(r, delta)
	attribution(r, "resolve_stages", engine, stages, 0.1)
	lp50, lp99 := directResolves(tr, res, qs, jobs)
	r.set("live.resolve_p50_us", us(lp50), "us")
	r.set("live.resolve_p99_us", us(lp99), "us")
	r.set("serve.overhead_p50_us", us(p50-lp50), "us")
	if lp50 > p50 {
		r.fail(fmt.Errorf("attribution http_resolve: in-process p50 %v exceeds HTTP p50 %v", lp50, p50))
	}
	r.set("http.resolve_p50_ms", ms(p50), "ms")
	r.set("http.resolve_p99_ms", ms(p99), "ms")
	fixed.report(r, "fixed")
	r.set("trace.overhead_ratio", tr.overheadRatio(), "ratio")
	return r, tr.write(o.dir, fmt.Sprintf("trace-serve-read-%d.jsonl", o.seed))
}

// directResolves times Resolver.Resolve on the fixed phase's query stream
// without HTTP, one call at a time, and returns its p50 and p99.
func directResolves(tr *tracer, res *moma.LiveResolver, qs []query, jobs []job) (p50, p99 time.Duration) {
	parent := tr.begin("phase.direct", 0, noReq)
	ds := make([]time.Duration, 0, len(jobs))
	for i, j := range jobs {
		if j.kind != opResolve {
			continue
		}
		q := model.NewInstance("", map[string]string{"title": qs[j.arg].title})
		sp := tr.begin("live.Resolve", parent.id, int64(i))
		res.Resolve(q)
		ds = append(ds, tr.end(sp))
	}
	tr.end(parent)
	return quantile(ds, 0.50), quantile(ds, 0.99)
}
