package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	moma "repro"
	"repro/internal/live"
	"repro/internal/mapping"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/sources"
)

// liveConfig is the resolver configuration moma-serve registers by
// default: trigram on the title-bearing attribute, token blocking with two
// shared tokens, threshold 0.8.
func liveConfig(set *model.ObjectSet) live.Config {
	return live.Config{
		MinShared: 2,
		Threshold: 0.8,
		Columns:   []live.Column{{QueryAttr: "title", SetAttr: titleAttr(set), Sim: moma.Trigram}},
	}
}

// titleAttr picks a set's title attribute the way moma-serve does: DBLP
// and GS publications carry "title", ACM publications "name".
func titleAttr(set *model.ObjectSet) string {
	if set.Len() > 0 && !set.At(0).HasAttr("title") && set.At(0).HasAttr("name") {
		return "name"
	}
	return "title"
}

// server is an in-process serve.Server on a real loopback listener.
type server struct {
	hs   *http.Server
	done chan error
	base string
}

func startServer(sys *moma.System) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		hs:   &http.Server{Handler: serve.New(sys).Handler()},
		done: make(chan error, 1),
		base: "http://" + ln.Addr().String(),
	}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its serve loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serveErr := <-s.done; !errors.Is(serveErr, http.ErrServerClosed) && err == nil {
		err = serveErr
	}
	return err
}

// client is the load generator's HTTP client: at most conns connections.
type client struct {
	hc *http.Client
	tr *http.Transport
}

func newClient(conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		MaxIdleConns:        conns,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}, tr: tr}
}

func (c *client) close() { c.tr.CloseIdleConnections() }

// do sends one request and decodes a 200 answer into out (nil discards
// it). It returns the status code; transport failures return an error.
func (c *client) do(method, url string, body []byte, out any) (int, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && out != nil {
		err = json.NewDecoder(resp.Body).Decode(out)
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	return resp.StatusCode, err
}

// firstResolve retries one resolve until the server answers 200: the end
// of a cold start.
func firstResolve(c *client, base, set, title string) error {
	body, err := json.Marshal(serve.ResolveRequest{Attrs: map[string]string{"title": title}, Limit: 5})
	if err != nil {
		return err
	}
	var last error
	for i := 0; i < 100; i++ {
		var resp serve.ResolveResponse
		code, err := c.do(http.MethodPost, base+"/sets/"+set+"/resolve", body, &resp)
		if err == nil && code == http.StatusOK {
			return nil
		}
		last = fmt.Errorf("status %d: %v", code, err)
		time.Sleep(10 * time.Millisecond)
	}
	return fmt.Errorf("first resolve: %w", last)
}

// query is one resolve request: a DBLP publication title with the ids its
// true matches carry in the served set.
type query struct {
	title string
	body  []byte
	truth map[string]bool
}

// dblpQueries turns the DBLP publications into resolve requests against a
// set whose true matches the perfect mapping (domain DBLP) names.
func dblpQueries(d *sources.Dataset, perfect *mapping.Mapping) ([]query, error) {
	truth := map[model.ID]map[string]bool{}
	perfect.Each(func(c mapping.Correspondence) {
		if truth[c.Domain] == nil {
			truth[c.Domain] = map[string]bool{}
		}
		truth[c.Domain][string(c.Range)] = true
	})
	var qs []query
	for _, in := range d.DBLP.Pubs.Instances() {
		t := in.Attr("title")
		if t == "" {
			continue
		}
		body, err := json.Marshal(serve.ResolveRequest{Attrs: map[string]string{"title": t}, Limit: 5})
		if err != nil {
			return nil, err
		}
		qs = append(qs, query{title: t, body: body, truth: truth[in.ID]})
	}
	if len(qs) == 0 {
		return nil, fmt.Errorf("no DBLP titles to query with")
	}
	return qs, nil
}

// Request kinds of the load schedule; opAny selects every kind.
const (
	opResolve = iota
	opAdd
	opRemove
	opAny = -1
)

// job is one scheduled request: when it is due (offset from the phase
// start), what it does, and its argument (query index, or add number).
type job struct {
	due  time.Duration
	kind int
	arg  int
}

// poissonDue returns the arrival offsets of an open-loop Poisson process
// at rate per second over d, drawn from rng.
func poissonDue(rng *rand.Rand, rate float64, d time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// outcome is one request as the generator saw it.
type outcome struct {
	done time.Time
	lat  time.Duration // completion minus due time
	lag  time.Duration // how late the generator woke for the due time
	ok   bool
}

// openLoop sends the jobs on their schedule over conns connections: each
// worker takes the next job in due order, sleeps until it is due, and
// sends it. A job whose worker is still busy at its due time waits, and
// that wait counts in its latency, which runs from the due time. The
// generator's own lateness — how far past the due time a sleeping worker
// woke — is reported per job as lag.
//
// It also returns, for each second of the schedule, the share of the
// machine's CPU time the hypervisor stole, which tells a second slowed by
// a busy host from one slowed by the program.
func openLoop(jobs []job, conns int, send func(i int) bool) ([]outcome, []float64) {
	outs := make([]outcome, len(jobs))
	start := time.Now().Add(2 * time.Millisecond)
	stop := make(chan struct{})
	sampled := make(chan []float64, 1)
	go func() { sampled <- sampleSteal(stop) }()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				due := start.Add(jobs[i].due)
				var lag time.Duration
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
					lag = time.Since(due)
				}
				ok := send(i)
				done := time.Now()
				outs[i] = outcome{done: done, lat: done.Sub(due), lag: lag, ok: ok}
			}
		}()
	}
	wg.Wait()
	close(stop)
	return outs, <-sampled
}

// closedLoop sends requests 0..n-1 back to back over conns connections,
// each worker taking the next request as soon as its last one is answered,
// and returns the wall time until the last answer and how many requests
// succeeded.
func closedLoop(n, conns int, send func(i int) bool) (time.Duration, int) {
	var next, ok atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if send(i) {
					ok.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	return time.Since(start), int(ok.Load())
}

// sampleSteal records the share of CPU time stolen in each second until
// stop closes (the last, partial second included).
func sampleSteal(stop <-chan struct{}) []float64 {
	var out []float64
	s0, t0 := cpuSteal()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
		case <-stop:
			s1, t1 := cpuSteal()
			return append(out, ratio(float64(s1-s0), float64(t1-t0)))
		}
		s1, t1 := cpuSteal()
		out = append(out, ratio(float64(s1-s0), float64(t1-t0)))
		s0, t0 = s1, t1
	}
}

// cpuSteal reads the stolen and the total CPU time of the machine, in
// clock ticks, from /proc/stat; both are 0 where it cannot be read.
func cpuSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// phase summarizes one open-loop phase.
type phase struct {
	sent, ok, failed int
	lagP99           time.Duration
	drain            time.Duration // last completion minus last due time
	steal            float64       // mean share of CPU time stolen by the host
}

func summarize(outs []outcome, steal []float64) phase {
	p := phase{sent: len(outs)}
	for _, st := range steal {
		p.steal += st / float64(len(steal))
	}
	lags := make([]time.Duration, len(outs))
	var lastDone time.Time
	for i, o := range outs {
		if o.ok {
			p.ok++
		} else {
			p.failed++
		}
		lags[i] = o.lag
		if o.done.After(lastDone) {
			lastDone = o.done
		}
	}
	p.lagP99 = quantile(lags, 0.99)
	if n := len(outs); n > 0 {
		lastDue := outs[n-1].done.Add(-outs[n-1].lat)
		p.drain = lastDone.Sub(lastDue)
	}
	return p
}

// log prints a phase summary to standard error.
func (p phase) log(name string, rate float64, p50, p99 time.Duration) {
	fmt.Fprintf(os.Stderr, "perfbench: %s at %.0f/s: sent %d ok %d failed %d p50 %.3f ms p99 %.3f ms lag p99 %.3f ms drain %.3f ms steal %.3f\n",
		name, rate, p.sent, p.ok, p.failed, ms(p50), ms(p99), ms(p.lagP99), ms(p.drain), p.steal)
}

// report records a phase's load-generator metrics under load.<name>.
func (p phase) report(r *result, name string) {
	r.set("load."+name+".lag_p99_ms", ms(p.lagP99), "ms")
	r.set("load."+name+".sent", float64(p.sent), "count")
	r.set("load."+name+".ok", float64(p.ok), "count")
	r.set("load."+name+".failed", float64(p.failed), "count")
	r.set("load."+name+".steal_ratio", p.steal, "ratio")
}

// windowedQuantile returns the q-quantile latency of the jobs of one kind
// (or of all, for opAny) as the median, over the one-second windows of the schedule (by due time)
// in which the host stole no more CPU than in the median window, of each
// window's q-quantile; failed requests count as over any limit. So the
// seconds another tenant of the host slowed most do not decide the figure,
// and neither does a pause that touches fewer than half the seconds;
// gc.cpu_fraction and load.*.steal_ratio report those.
func windowedQuantile(jobs []job, outs []outcome, kind int, q float64, steal []float64) time.Duration {
	type window struct {
		steal float64
		lat   time.Duration
	}
	var ws []window
	for w := range steal {
		lo, hi := time.Duration(w)*time.Second, time.Duration(w+1)*time.Second
		var ds []time.Duration
		for i, j := range jobs {
			if (kind != opAny && j.kind != kind) || j.due < lo || j.due >= hi {
				continue
			}
			if !outs[i].ok {
				ds = append(ds, time.Duration(math.MaxInt64))
				continue
			}
			ds = append(ds, outs[i].lat)
		}
		if len(ds) > 0 {
			ws = append(ws, window{steal[w], quantile(ds, q)})
		}
	}
	if len(ws) == 0 {
		return 0
	}
	sort.Slice(ws, func(i, j int) bool { return ws[i].steal < ws[j].steal })
	limit := ws[(len(ws)-1)/2].steal
	var kept []time.Duration
	for _, w := range ws {
		if w.steal <= limit {
			kept = append(kept, w.lat)
		}
	}
	return median(kept)
}

// checkLag rejects a measured phase whose generator ran late: its
// latencies would describe the generator, not the server.
func checkLag(p phase, limitMS float64) error {
	if ms(p.lagP99) > limitMS {
		return fmt.Errorf("%w: load generator lateness p99 %.2f ms exceeds %.2f ms", errInvalid, ms(p.lagP99), limitMS)
	}
	return nil
}

// recallAt5 is the share of answered queries with a true match whose
// top-5 answer contains one; failed requests count as misses.
func recallAt5(qs []query, jobs []job, outs []outcome, top [][]string) float64 {
	hit, n := 0, 0
	for i, j := range jobs {
		if j.kind != opResolve || len(qs[j.arg].truth) == 0 {
			continue
		}
		n++
		if !outs[i].ok {
			continue
		}
		for _, id := range top[i] {
			if qs[j.arg].truth[id] {
				hit++
				break
			}
		}
	}
	return ratio(float64(hit), float64(n))
}

// rankLive orders resolver matches the way the HTTP API does (similarity
// descending, ties by id) and keeps the top limit.
func rankLive(ms []live.Match, limit int) []serve.MatchResult {
	out := make([]serve.MatchResult, len(ms))
	for i, m := range ms {
		out[i] = serve.MatchResult{ID: string(m.ID), Sim: m.Sim}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sim != out[j].Sim {
			return out[i].Sim > out[j].Sim
		}
		return out[i].ID < out[j].ID
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// checkAnswers compares HTTP answers with in-process answers to the same
// queries, ids and similarities exactly (eps 0).
func checkAnswers(httpAns, direct [][]serve.MatchResult) error {
	if len(httpAns) != len(direct) {
		return fmt.Errorf("answer check: %d HTTP answers vs %d in-process", len(httpAns), len(direct))
	}
	for i := range httpAns {
		a, b := httpAns[i], direct[i]
		if len(a) != len(b) {
			return fmt.Errorf("answer check: query %d: HTTP returned %d matches, in-process %d", i, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				return fmt.Errorf("answer check: query %d match %d: HTTP %v, in-process %v", i, k, a[k], b[k])
			}
		}
	}
	return nil
}

// stageMetrics reports the resolver's own view of a phase from the delta
// of the obs registry: mean time per resolve stage, candidates per resolve
// and the share of candidates kept. It returns the mean engine resolve
// time and the sum of the stage means.
func stageMetrics(r *result, d series) (total, stages time.Duration) {
	n := d.sum("moma_live_resolve_seconds_count")
	for _, st := range []string{"block", "profile", "score"} {
		mean := ratio(d.sum("moma_live_resolve_stage_seconds_sum", `stage="`+st+`"`), n)
		r.set("live."+st+"_us", mean*1e6, "us")
		stages += time.Duration(mean * 1e9)
	}
	cand := d.sum("moma_live_resolve_candidates_total")
	r.set("live.candidates_per_resolve", ratio(cand, d.sum("moma_live_resolves_total")), "count")
	r.set("live.kept_ratio", ratio(d.sum("moma_live_resolve_matches_total"), cand), "ratio")
	r.set("serve.shed", d.sum("moma_serve_shed_total"), "count")
	return time.Duration(ratio(d.sum("moma_live_resolve_seconds_sum"), n) * 1e9), stages
}

// conns is the load generator's connection count: one per CPU.
func conns() int { return runtime.NumCPU() }
