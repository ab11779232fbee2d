package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	moma "repro"
	"repro/internal/live"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sources"
	"repro/internal/store"
)

// mixedWorld is the serve-mixed system: one served set over a durable,
// write-ahead-logged repository in a fresh directory.
type mixedWorld struct {
	d    *sources.Dataset
	sys  *moma.System
	repo *store.Store
	dir  string
	srv  *server
	cl   *client
	down bool
}

// shutdown stops the server and closes the repository, keeping its files.
func (w *mixedWorld) shutdown() error {
	if w.down {
		return nil
	}
	w.down = true
	w.cl.close()
	err := w.srv.stop()
	if cerr := w.repo.Close(); err == nil {
		err = cerr
	}
	return err
}

// close shuts down and removes the repository's directory.
func (w *mixedWorld) close() error {
	err := w.shutdown()
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

// coldStartMixed generates the world, opens a durable repository in a
// fresh directory under dir, registers set with its resolver, starts the
// server and waits for the first answered resolve.
func coldStartMixed(cfg sources.Config, set, dir string, tr *tracer, parent int) (*mixedWorld, error) {
	sp := tr.begin("sources.Generate", parent, noReq)
	d := generate(cfg)
	tr.end(sp)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	storeDir, err := os.MkdirTemp(dir, "store-")
	if err != nil {
		return nil, err
	}
	sp = tr.begin("store.OpenRepository", parent, noReq)
	repo, err := store.OpenRepository(storeDir)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sys := moma.NewSystemWithRepository(repo)
	pubs := map[string]*model.ObjectSet{"DBLP.Publication": d.DBLP.Pubs, "ACM.Publication": d.ACM.Pubs, "GS.Publication": d.GS.Pubs}[set]
	if pubs == nil {
		return nil, fmt.Errorf("unknown set %q", set)
	}
	if err := sys.AddObjectSet(set, pubs); err != nil {
		return nil, err
	}
	sp = tr.begin("live.NewResolver", parent, noReq)
	_, err = sys.RegisterResolver(set, liveConfig(pubs))
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(sys)
	if err != nil {
		return nil, err
	}
	w := &mixedWorld{d: d, sys: sys, repo: repo, dir: storeDir, srv: srv, cl: newClient(conns())}
	sp = tr.begin("http.first_resolve", parent, noReq)
	err = firstResolve(w.cl, srv.base, set, d.DBLP.Pubs.At(0).Attr("title"))
	tr.end(sp)
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// addRecord is one instance the schedule adds: a GS record with a true ACM
// counterpart, under a fresh id.
type addRecord struct {
	id    string
	attrs map[string]string
	body  []byte
}

// newAddRecord makes add number n from a GS record: its title goes into
// "name", where ACM publications carry theirs.
func newAddRecord(n int, in *model.Instance) (addRecord, error) {
	attrs := map[string]string{"name": in.Attr("title")}
	for _, a := range []string{"authors", "year"} {
		if v := in.Attr(a); v != "" {
			attrs[a] = v
		}
	}
	id := fmt.Sprintf("perfbench-add-%d", n)
	body, err := json.Marshal(serve.AddInstanceRequest{ID: id, Attrs: attrs})
	return addRecord{id: id, attrs: attrs, body: body}, err
}

// gsAdds returns the GS publications with a true match in ACM.
func gsAdds(d *sources.Dataset) []*model.Instance {
	var out []*model.Instance
	seen := map[model.ID]bool{}
	d.Perfect.PubGSACM.Each(func(c mapping.Correspondence) {
		if seen[c.Domain] {
			return
		}
		seen[c.Domain] = true
		if in := d.GS.Pubs.Get(c.Domain); in != nil && in.Attr("title") != "" {
			out = append(out, in)
		}
	})
	return out
}

// mixer draws the serve-mixed schedule: Poisson arrivals; each request is
// a resolve with probability resolveShare, otherwise a write. Writes add a
// new record until window adds are live and remove the oldest live add
// once 2*window are; in between they toss a coin. Adds are numbered in
// order and a remove's argument is the add it undoes, so consecutive
// phases drawn from one mixer continue one add/remove sequence.
type mixer struct {
	rng           *rand.Rand
	nq            int
	resolveShare  float64
	window        int
	adds, removed int
}

func (m *mixer) jobs(rate float64, d time.Duration) []job {
	due := poissonDue(m.rng, rate, d)
	jobs := make([]job, len(due))
	for i, t := range due {
		jobs[i] = m.draw()
		jobs[i].due = t
	}
	return jobs
}

// batch draws the next n requests without due times, for a closed loop.
func (m *mixer) batch(n int) []job {
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i] = m.draw()
	}
	return jobs
}

// draw picks the next request's kind and argument.
func (m *mixer) draw() job {
	var j job
	switch live := m.adds - m.removed; {
	case m.rng.Float64() < m.resolveShare:
		j.kind, j.arg = opResolve, m.rng.Intn(m.nq)
	case live < m.window || (live < 2*m.window && m.rng.Intn(2) == 0):
		j.kind, j.arg = opAdd, m.adds
		m.adds++
	default:
		j.kind, j.arg = opRemove, m.removed
		m.removed++
	}
	return j
}

// runServeMixed serves ACM.Publication from a durable store and drives it
// with one fixed open-loop rate of resolves, adds and FIFO removes.
func runServeMixed(o options) (*result, error) {
	sp := o.spec.Workloads.ServeMixed
	r := newResult()
	tr := newTracer(o.trace)
	scratch := filepath.Join(o.dir, "tmp")

	var w *mixedWorld
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
		w, err = coldStartMixed(o.cfg, sp.Set, scratch, tr, s.id)
		setups = append(setups, tr.end(s))
		if err != nil {
			return nil, err
		}
	}
	defer w.close()
	res, _ := w.sys.Resolver(sp.Set)
	qs, err := dblpQueries(w.d, w.d.Perfect.PubDBLPACM)
	if err != nil {
		return nil, err
	}
	pool := gsAdds(w.d)
	if len(pool) == 0 {
		return nil, fmt.Errorf("no GS records with an ACM counterpart to add")
	}

	rng := rand.New(rand.NewSource(o.seed))
	var records []addRecord     // per add number: a pool record under a fresh id
	var addMatches []int        // per add number: matches answered, for WAL rows
	var addDone []chan struct{} // per add number: closed once the add is answered
	var top5 [][]string         // per job of the phase: the resolve answer
	// prepare readies a phase's jobs: a record for every add up to adds and
	// an answer slot per job.
	prepare := func(jobs []job, adds int) error {
		for n := len(records); n < adds; n++ {
			rec, err := newAddRecord(n, pool[rng.Intn(len(pool))])
			if err != nil {
				return err
			}
			records = append(records, rec)
			addMatches = append(addMatches, 0)
			addDone = append(addDone, make(chan struct{}))
		}
		top5 = make([][]string, len(jobs))
		return nil
	}

	base := w.srv.base + "/sets/" + sp.Set
	send := func(jobs []job, phaseSpan int) func(i int) bool {
		return func(i int) bool {
			j := jobs[i]
			t0 := time.Now()
			var code int
			var err error
			name := ""
			switch j.kind {
			case opResolve:
				name = "http.resolve"
				var resp serve.ResolveResponse
				code, err = w.cl.do(http.MethodPost, base+"/resolve", qs[j.arg].body, &resp)
				top5[i] = nil
				for _, m := range resp.Matches {
					top5[i] = append(top5[i], m.ID)
				}
			case opAdd:
				name = "http.add"
				var resp serve.AddInstanceResponse
				code, err = w.cl.do(http.MethodPost, base+"/instances", records[j.arg].body, &resp)
				addMatches[j.arg] = len(resp.Matches)
				close(addDone[j.arg])
			case opRemove:
				name = "http.remove"
				<-addDone[j.arg] // the add it undoes has been answered
				code, err = w.cl.do(http.MethodDelete, base+"/instances/"+records[j.arg].id, nil, nil)
			}
			tr.record(name, phaseSpan, int64(i), t0, time.Now())
			return err == nil && code == http.StatusOK
		}
	}
	// The traced run replays the schedule against the engine directly, on a
	// resolver built from the set before the server's adds change it.
	var direct *live.Resolver
	if o.trace {
		set, _ := w.sys.ObjectSetByName(sp.Set)
		if direct, err = live.NewResolver(set, liveConfig(set)); err != nil {
			return nil, err
		}
	}

	// Collect the set-up's garbage, warm up at the nominal rate, then run
	// the measured phase continuing the same add/remove sequence.
	runtime.GC()
	mix := &mixer{rng: rng, nq: len(qs), resolveShare: sp.Mix.Resolve, window: sp.Mix.Window}
	warm := mix.jobs(sp.RateRPS, time.Second)
	if err := prepare(warm, mix.adds); err != nil {
		return nil, err
	}
	openLoop(warm, conns(), send(warm, 0))
	jobs := mix.jobs(sp.RateRPS, o.seconds)
	if err := prepare(jobs, mix.adds); err != nil {
		return nil, err
	}
	before := tr.scrape()
	rt := readRuntime()
	ph := tr.begin("phase.fixed", 0, noReq)
	outs, steal := openLoop(jobs, conns(), send(jobs, ph.id))
	tr.end(ph)
	if o.trace {
		runtimeMetrics(r, rt)
	}
	delta := tr.scrape().minus(before)
	fixed := summarize(outs, steal)
	if err := checkLag(fixed, sp.LagLimitMS); err != nil {
		return nil, err
	}
	p50 := windowedQuantile(jobs, outs, opAny, 0.50, steal)
	p99 := windowedQuantile(jobs, outs, opAny, 0.99, steal)
	fixed.log("fixed", sp.RateRPS, p50, p99)
	recall := recallAt5(qs, jobs, outs, top5)

	// Closed-loop batches continuing the schedule: the time a fixed batch
	// of requests takes at full load.
	var batches []time.Duration
	batchOK, batchSent := 0, 0
	for k := 0; k < sp.BatchRepeats; k++ {
		bj := mix.batch(sp.BatchRequests)
		if err := prepare(bj, mix.adds); err != nil {
			return nil, err
		}
		s := tr.begin("phase.batch", 0, noReq)
		took, ok := closedLoop(len(bj), conns(), send(bj, s.id))
		tr.end(s)
		batches = append(batches, took)
		batchOK += ok
		batchSent += len(bj)
		fmt.Fprintf(os.Stderr, "perfbench: batch %d: %d requests in %.3f s, %d ok\n", k, len(bj), took.Seconds(), ok)
	}

	// Correctness: the store replayed from its directory holds the delta
	// mapping the server holds in memory, and that mapping only touches
	// instances that are still live.
	inMemory, _ := w.repo.Get("live." + sp.Set)
	liveIDs := map[string]bool{}
	for _, in := range w.d.ACM.Pubs.Instances() {
		if res.Has(in.ID) {
			liveIDs[string(in.ID)] = true
		}
	}
	if err := w.shutdown(); err != nil {
		return nil, err
	}
	if err := checkDelta(inMemory, liveIDs); err != nil {
		r.fail(err)
	}
	replayed, err := replayDelta(w.dir, "live."+sp.Set)
	if err != nil {
		r.fail(err)
	} else if err := checkReplay(inMemory, replayed); err != nil {
		r.fail(err)
	}

	r.Attempted = fixed.sent + batchSent
	r.Failed = fixed.failed + batchSent - batchOK
	if !o.trace {
		r.set("setup_s", median(setups).Seconds(), "s")
		r.set("work_s", median(batches).Seconds(), "s")
		r.set("latency_p50_ms", ms(p50), "ms")
		r.set("match_quality", recall, "ratio")
		r.set("ok_ratio", ratio(float64(r.Attempted-r.Failed), float64(r.Attempted)), "ratio")
		r.set("rss_peak_mb", peakRSSMB(), "MB")
		return r, nil
	}

	rp50 := windowedQuantile(jobs, outs, opResolve, 0.50, steal)
	r.set("http.resolve_p50_ms", ms(rp50), "ms")
	r.set("http.resolve_p99_ms", ms(windowedQuantile(jobs, outs, opResolve, 0.99, steal)), "ms")
	r.set("http.add_p50_ms", ms(windowedQuantile(jobs, outs, opAdd, 0.50, steal)), "ms")
	r.set("http.add_p99_ms", ms(windowedQuantile(jobs, outs, opAdd, 0.99, steal)), "ms")
	engine, stages := stageMetrics(r, delta)
	attribution(r, "resolve_stages", engine, stages, 0.1)
	r.set("live.compactions", delta.sum("moma_live_compactions_total"), "count")
	walRecords := delta.sum("moma_store_wal_records_total")
	rows, withRows := 0, 0
	for i, j := range jobs {
		if j.kind == opAdd && outs[i].ok && addMatches[j.arg] > 0 {
			rows += addMatches[j.arg]
			withRows++
		}
	}
	rows += int(walRecords) - withRows // each drop record logs one row
	r.set("store.delta_us", 1e6*ratio(delta.sum("moma_store_delta_seconds_sum"), delta.sum("moma_store_delta_seconds_count")), "us")
	r.set("store.wal_bytes_per_row", ratio(delta.sum("moma_store_wal_bytes_total"), float64(rows)), "B")
	r.set("store.wal_records", walRecords, "count")
	r.set("store.fsyncs", delta.sum("moma_store_fsyncs_total"), "count")
	r.set("store.compactions", delta.sum("moma_store_compactions_total"), "count")
	r.set("store.compaction_s", delta.sum("moma_store_compaction_seconds_sum"), "s")

	rep, err := directReplay(tr, direct, scratch, sp.Set, qs, records, warm, jobs)
	if err != nil {
		return nil, err
	}
	r.set("live.resolve_p50_us", us(rep.resolveP50), "us")
	r.set("live.resolve_p99_us", us(rep.resolveP99), "us")
	r.set("live.addresolve_p50_us", us(rep.addP50), "us")
	r.set("live.addresolve_p99_us", us(rep.addP99), "us")
	r.set("store.drop_us", us(rep.dropMean), "us")
	r.set("serve.overhead_p50_us", us(rp50-rep.resolveP50), "us")
	if rep.resolveP50 > rp50 {
		r.fail(fmt.Errorf("attribution http_resolve: in-process p50 %v exceeds HTTP p50 %v", rep.resolveP50, rp50))
	}
	fixed.report(r, "fixed")
	r.set("trace.overhead_ratio", tr.overheadRatio(), "ratio")
	return r, tr.write(o.dir, fmt.Sprintf("trace-serve-mixed-%d.jsonl", o.seed))
}

// replayStats are the traced run's direct engine timings.
type replayStats struct {
	resolveP50, resolveP99 time.Duration
	addP50, addP99         time.Duration
	dropMean               time.Duration
}

// directReplay runs the served schedule one call at a time against the
// engine without HTTP — Resolver.Resolve for resolves, Resolver.AddResolve
// plus Store.PutDelta for adds, Resolver.Remove plus Store.DropTouching for
// removes — on a resolver built from the set as loaded and a fresh durable
// store, the way the server's handlers call them. The warm-up jobs are
// replayed untimed so the timed jobs see the state the server saw.
func directReplay(tr *tracer, res *live.Resolver, dir, set string, qs []query, records []addRecord, warm, jobs []job) (replayStats, error) {
	var st replayStats
	storeDir, err := os.MkdirTemp(dir, "replay-")
	if err != nil {
		return st, err
	}
	defer os.RemoveAll(storeDir)
	repo, err := store.OpenRepository(storeDir)
	if err != nil {
		return st, err
	}
	name := "live." + set
	var resolves, adds, drops []time.Duration
	run := func(jobs []job, parent int, timed bool) error {
		for i, j := range jobs {
			switch j.kind {
			case opResolve:
				q := model.NewInstance("", map[string]string{"title": qs[j.arg].title})
				sp := tr.begin("live.Resolve", parent, int64(i))
				res.Resolve(q)
				if d := tr.end(sp); timed {
					resolves = append(resolves, d)
				}
			case opAdd:
				rec := records[j.arg]
				in := model.NewInstance(model.ID(rec.id), rec.attrs)
				sp := tr.begin("live.AddResolve", parent, int64(i))
				matches, err := res.AddResolve(in)
				if d := tr.end(sp); timed {
					adds = append(adds, d)
				}
				if err != nil {
					return err
				}
				rows := make([]mapping.Correspondence, len(matches))
				for k, m := range matches {
					rows[k] = mapping.Correspondence{Domain: in.ID, Range: m.ID, Sim: m.Sim}
				}
				sp = tr.begin("store.PutDelta", parent, int64(i))
				err = repo.PutDelta(name, res.LDS(), res.LDS(), model.SameMappingType, rows)
				tr.end(sp)
				if err != nil {
					return err
				}
			case opRemove:
				id := model.ID(records[j.arg].id)
				sp := tr.begin("live.Remove", parent, int64(i))
				res.Remove(id)
				tr.end(sp)
				sp = tr.begin("store.DropTouching", parent, int64(i))
				_, err := repo.DropTouching(name, id)
				if d := tr.end(sp); timed {
					drops = append(drops, d)
				}
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
	ph := tr.begin("phase.direct", 0, noReq)
	err = run(warm, ph.id, false)
	if err == nil {
		err = run(jobs, ph.id, true)
	}
	tr.end(ph)
	if cerr := repo.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return st, fmt.Errorf("direct replay: %w", err)
	}
	st.resolveP50, st.resolveP99 = quantile(resolves, 0.5), quantile(resolves, 0.99)
	st.addP50, st.addP99 = quantile(adds, 0.5), quantile(adds, 0.99)
	var sum time.Duration
	for _, d := range drops {
		sum += d
	}
	if len(drops) > 0 {
		st.dropMean = sum / time.Duration(len(drops))
	}
	return st, nil
}

// replayDelta reopens the repository in dir, as a restart would, and
// returns its copy of the named mapping.
func replayDelta(dir, name string) (*mapping.Mapping, error) {
	repo, err := store.OpenRepository(dir)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	defer repo.Close()
	m, ok := repo.Get(name)
	if !ok {
		return nil, fmt.Errorf("replay: no mapping %q after reopening the store", name)
	}
	return m, nil
}

// checkReplay requires the replayed delta mapping to equal the in-memory
// one at eps 0.
func checkReplay(mem, replayed *mapping.Mapping) error {
	if mem == nil || mem.Len() == 0 {
		return fmt.Errorf("replay check: the served delta mapping is empty")
	}
	if replayed.Len() != mem.Len() || !mem.Equal(replayed, 0) {
		return fmt.Errorf("replay check: replayed delta mapping (%d rows) differs from the in-memory one (%d rows)", replayed.Len(), mem.Len())
	}
	return nil
}

// checkDelta requires every row of the delta mapping to join two live
// instances: removes must have dropped the rows of removed instances.
func checkDelta(m *mapping.Mapping, live map[string]bool) error {
	if m == nil {
		return fmt.Errorf("delta check: no delta mapping was recorded")
	}
	var bad error
	m.Each(func(c mapping.Correspondence) {
		if bad == nil && (!live[string(c.Domain)] || !live[string(c.Range)]) {
			bad = fmt.Errorf("delta check: row %s-%s touches a removed instance", c.Domain, c.Range)
		}
	})
	return bad
}
