package main

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"sarmany/internal/obs"
	"sarmany/internal/telemetry"
)

// serveExps are the experiment keys docs/API.md lists for sarserve jobs.
var serveExps = []string{"t1", "fig7", "scaling", "bw", "interp", "pipes", "gbp", "base", "rda", "upsample", "chaos"}

// knownDefectExp fails at the default small scale ("ffbp: NumPulses 128
// is not a power of 4"). serve-mix keeps it so the defect shows in the
// failure count; it has no pin, so a well-formed completion would count
// as correct once the defect is fixed. serve-replay leaves it out,
// because a failed job is never cached and so cannot be replayed.
const knownDefectExp = "base"

// serveWorkload fixes one traffic mix. Both are open loops at a constant
// submission rate; the seed chooses the order of experiments, the tags,
// and which submissions repeat an earlier spec.
type serveWorkload struct {
	rate  float64       // submissions per second
	poll  time.Duration // status poll interval of a pending job
	limit time.Duration // latency limit of in_limit_ratio
	// replay: every spec is cached during set-up and each is repeated
	// many times; otherwise about half the submissions are fresh specs
	// over all eleven experiments and the rest repeat an earlier one.
	replay bool
	// setups is how many times a run repeats its set-up; setup_s is
	// the median. The traced run sets up once per phase.
	setups int
}

var serveWorkloads = map[string]serveWorkload{
	// Executions cost 3 ms (pipes) to 0.85 s (gbp) at small scale; two
	// workers complete about 4.5 executions per second. Five submissions
	// per second, 5 in 12 of them repeats, offer about three executions
	// per second: queueing shows and the backlog stays bounded.
	"serve-mix": {rate: 5, poll: 10 * time.Millisecond, limit: 5 * time.Second, setups: 9},
	// No kernel runs: a first submission costs admission, the batch
	// window (25 ms) and a cache read; repeats attach in memory.
	"serve-replay": {rate: 40, poll: 5 * time.Millisecond, limit: 250 * time.Millisecond, replay: true, setups: 3},
}

// repeatLag is how many fresh submissions back a serve-mix repeat reaches.
const repeatLag = 11

// replayTags is the number of distinct tags per experiment in serve-replay.
const replayTags = 2

// drainLimit bounds how long after the last scheduled submission the
// generator waits for results; later ones count as timed out.
const drainLimit = 60 * time.Second

type jobSpec struct {
	Exp string `json:"exp"`
	Tag string `json:"tag"`
}

// submission is one scheduled job request and what became of it.
type submission struct {
	spec jobSpec
	due  time.Time

	id      string
	traceID string
	postS   float64
	lagS    float64
	ok      bool
	latS    float64
	errMsg  string
}

// schedule builds the workload's submissions for n slots from the seed.
func (w serveWorkload) schedule(seed int64, n int) []*submission {
	rng := rand.New(rand.NewSource(seed))
	var specs []jobSpec
	if w.replay {
		var set []jobSpec
		for _, exp := range serveExps {
			if exp == knownDefectExp {
				continue
			}
			for t := 0; t < replayTags; t++ {
				set = append(set, jobSpec{Exp: exp, Tag: fmt.Sprintf("r%d-%d", seed, t)})
			}
		}
		for i := 0; i < n; i++ {
			specs = append(specs, set[i%len(set)])
		}
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	} else {
		// Fresh specs visit the eleven experiments round robin, so every
		// experiment gets the same share and the overlap of long and
		// short jobs is the same in every run; the seed makes the tags.
		// Five slots in twelve repeat the spec submitted repeatLag fresh
		// submissions earlier (over 2 s before, so its job has finished
		// and the repeat attaches to a done record).
		var fresh []jobSpec
		for i := 0; i < n; i++ {
			if i%12 < 10 && i%2 == 1 {
				specs = append(specs, fresh[max(0, len(fresh)-repeatLag)])
				continue
			}
			f := jobSpec{Exp: serveExps[len(fresh)%len(serveExps)], Tag: fmt.Sprintf("m%d-%d", seed, len(fresh))}
			fresh = append(fresh, f)
			specs = append(specs, f)
		}
	}
	subs := make([]*submission, n)
	for i, s := range specs {
		subs[i] = &submission{spec: s}
	}
	return subs
}

// serveSpecs lists the distinct specs of a schedule in first-seen order.
func serveSpecs(subs []*submission) []jobSpec {
	seen := map[jobSpec]bool{}
	var out []jobSpec
	for _, s := range subs {
		if !seen[s.spec] {
			seen[s.spec] = true
			out = append(out, s.spec)
		}
	}
	return out
}

// runServe runs serve-mix or serve-replay.
func runServe(opt options, pins *pinSet, dir string) (*outcome, error) {
	w := serveWorkloads[opt.workload]
	out := newOutcome()
	if !opt.trace {
		ph, err := servePhase(opt, w, pins, out, dir, opt.seconds, 0)
		if err != nil {
			return nil, err
		}
		ph.report(out, w)
		return out, nil
	}
	// The traced run measures the same schedule twice on fresh daemons,
	// untraced then traced, each for half the run length; the difference
	// of their medians is the tracing overhead.
	plain, err := servePhase(opt, w, pins, out, filepath.Join(dir, "untraced"), opt.seconds/2, 0)
	if err != nil {
		return nil, err
	}
	traced, err := servePhase(opt, w, pins, out, filepath.Join(dir, "traced"), opt.seconds/2, 1)
	if err != nil {
		return nil, err
	}
	for _, ph := range []*phase{plain, traced} {
		for _, s := range ph.subs {
			out.attempted++
			if !s.ok {
				out.failed++
			}
		}
	}
	traced.layers["obs.trace_overhead_s"] = median(traced.latencies()) - median(plain.latencies())
	out.note("traced run: p50 untraced %.4f s, traced %.4f s", median(plain.latencies()), median(traced.latencies()))
	setLayers(out, traced.layers)
	return out, nil
}

// phase is one measured stretch of traffic against one daemon.
type phase struct {
	subs    []*submission
	setupS  float64
	elapsed float64
	rss     float64
	paperE  float64
	layers  map[string]float64
}

func (ph *phase) latencies() []float64 {
	var l []float64
	for _, s := range ph.subs {
		if s.ok {
			l = append(l, s.latS)
		}
	}
	return l
}

// servePhase sets up a fresh daemon (warming its cache first for the
// replay workload), drives the schedule against it, checks every result
// and collects the daemon-side numbers.
func servePhase(opt options, w serveWorkload, pins *pinSet, out *outcome, dir string, seconds, traceSample float64) (*phase, error) {
	n := int(w.rate*seconds + 0.5)
	if n < 2 {
		n = 2
	}
	subs := w.schedule(opt.seed, n)
	ph := &phase{subs: subs, layers: zeroLayers()}

	var d *daemon
	defer func() { d.stop() }()
	rounds := w.setups
	if opt.trace {
		rounds = 1
	}
	var setups []float64
	for i := 0; i < rounds; i++ {
		d.stop()
		round := filepath.Join(dir, "setup"+strconv.Itoa(i))
		cache := filepath.Join(round, "cache")
		start := time.Now()
		if w.replay {
			warm, _, err := startDaemon(opt.sarserve, filepath.Join(round, "warm"), cache, 0)
			if err != nil {
				return nil, err
			}
			err = warmCache(warm, serveSpecs(subs))
			if serr := warm.stop(); err == nil && serr != nil {
				err = fmt.Errorf("warm-up daemon: %w", serr)
			}
			if err != nil {
				return nil, err
			}
		}
		var err error
		d, _, err = startDaemon(opt.sarserve, filepath.Join(round, "serve"), cache, traceSample)
		if err != nil {
			return nil, err
		}
		if !w.replay {
			// A fresh daemon is set up once it has served a first job.
			first := jobSpec{Exp: "pipes", Tag: fmt.Sprintf("setup%d-%d", opt.seed, i)}
			if err := warmCache(d, []jobSpec{first}); err != nil {
				return nil, err
			}
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	ph.setupS = median(setups)

	before, err := d.vars()
	if err != nil {
		return nil, err
	}
	gen := &generator{base: d.base, w: w, pins: pins, out: out}
	ph.elapsed = gen.run(subs)
	after, err := d.vars()
	if err != nil {
		return nil, err
	}
	if ph.rss, err = d.peakRSS(); err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("sarserve drain: %w", err)
	}
	ph.paperE = gen.paperErr
	ph.daemonLayers(before, after)
	if traceSample > 0 {
		if err := ph.ledgerLayers(d.ledger); err != nil {
			return nil, err
		}
	}
	return ph, nil
}

// warmCache runs every spec to completion on the daemon, nproc at a time
// with ?wait=1: the replay set-up fills the cache this way, and serve-mix
// serves its first job.
func warmCache(d *daemon, specs []jobSpec) error {
	var mu sync.Mutex
	var firstErr error
	next := 0
	var wg sync.WaitGroup
	for c := 0; c < runtime.NumCPU(); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for {
				mu.Lock()
				if next >= len(specs) || firstErr != nil {
					mu.Unlock()
					return
				}
				spec := specs[next]
				next++
				mu.Unlock()
				body, _ := json.Marshal(spec)
				var rec jobRecord
				code, _, err := doJSON(client, "POST", d.base+"/v1/jobs?wait=1", body, &rec)
				if err == nil && (code != http.StatusOK || rec.Status != "done") {
					err = fmt.Errorf("warm-up %s/%s: HTTP %d status %q %s", spec.Exp, spec.Tag, code, rec.Status, rec.Error)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// report turns the phase into the end-to-end metrics.
func (ph *phase) report(out *outcome, w serveWorkload) {
	lat := ph.latencies()
	ok, inLimit := 0, 0
	for _, s := range ph.subs {
		out.attempted++
		if !s.ok {
			out.failed++
			continue
		}
		ok++
		if s.latS <= w.limit.Seconds() {
			inLimit++
		}
	}
	tv, pct := tail(lat)
	out.note("open loop at %.0f submissions/s, %d scheduled over %.1f s; generator behind schedule: p50 %.2f ms, tail %.2f ms",
		w.rate, len(ph.subs), float64(len(ph.subs))/w.rate, 1e3*ph.layers["generator.lag_p50_s"], 1e3*ph.layers["generator.lag_tail_s"])
	out.note("job_tail_s is p%.1f of %d completed jobs (%d beyond it)", pct, len(lat), max(0, min(tailBeyond, len(lat)-1)))
	out.note("first-seen specs: %.1f%% of submissions", 100*ph.layers["serve.first_seen_ratio"])
	out.note("failed_ratio = %d/%d = %.4f", out.failed, out.attempted, float64(out.failed)/float64(out.attempted))
	failures := map[string]int{}
	for _, s := range ph.subs {
		if !s.ok {
			failures[s.spec.Exp+": "+s.errMsg]++
		}
	}
	for _, k := range sortedKeys(failures) {
		out.note("  %d x %s", failures[k], k)
	}
	byExp := map[string][]float64{}
	for _, s := range ph.subs {
		if s.ok {
			byExp[s.spec.Exp] = append(byExp[s.spec.Exp], s.latS)
		}
	}
	for _, k := range sortedKeys(byExp) {
		out.note("  %-9s %3d ok, latency p50 %.4f s", k, len(byExp[k]), median(byExp[k]))
	}
	out.set("setup_s", "s", ph.setupS)
	out.set("job_p50_s", "s", median(lat))
	out.set("job_tail_s", "s", tv)
	out.set("jobs_per_s", "1/s", float64(ok)/ph.elapsed)
	out.set("in_limit_ratio", "ratio", float64(inLimit)/float64(len(ph.subs)))
	out.set("peak_rss_bytes", "bytes", ph.rss)
	out.set("table1_paper_err", "ratio", ph.paperE)
}

// daemonLayers fills the per-layer counts from /debug/vars deltas and
// the generator's own timings.
func (ph *phase) daemonLayers(before, after map[string]json.RawMessage) {
	delta := func(name string) float64 { return varNum(after, name) - varNum(before, name) }
	bc0, bs0 := varHist(before, "serve.batch.jobs")
	bc1, bs1 := varHist(after, "serve.batch.jobs")
	if bc1 > bc0 {
		ph.layers["serve.batch_jobs"] = (bs1 - bs0) / (bc1 - bc0)
	}
	ph.layers["serve.singleflight_joins"] = delta("serve.jobs.deduplicated")
	ph.layers["serve.rejected_queue"] = delta("serve.jobs.rejected.queue")
	ph.layers["serve.rejected_quota"] = delta("serve.jobs.rejected.quota")
	ph.layers["serve.first_seen_ratio"] = delta("serve.jobs.accepted") / float64(len(ph.subs))
	executed, cached := delta("sweep.jobs.executed"), delta("sweep.jobs.cached")
	ph.layers["sweep.jobs_executed"] = executed
	if executed+cached > 0 {
		ph.layers["sweep.cache_hit_ratio"] = cached / (executed + cached)
	}
	var posts, lags []float64
	for _, s := range ph.subs {
		posts = append(posts, s.postS)
		lags = append(lags, s.lagS)
	}
	ph.layers["serve.http_post_s"] = mean(posts)
	ph.layers["generator.lag_p50_s"] = median(lags)
	lagTail, _ := tail(lags)
	ph.layers["generator.lag_tail_s"] = lagTail
}

// spanLayers maps a daemon span name to its per-layer metric. Each is
// the mean self time per job; bench.<exp> spans map to
// sweep.execute_s.<exp>.
var spanLayers = map[string]string{
	"admission":          "serve.admission_s",
	"queue.wait":         "serve.queue_wait_s",
	"batch.form":         "serve.batch_form_s",
	"sweep.cache.lookup": "sweep.cache_lookup_s",
	"ledger.write":       "telemetry.ledger_write_s",
}

// ledgerLayers reads the span trees the traced daemon embedded in its
// run ledger and attributes self time per layer. It also measures how
// much of the client-side latency the daemon's request spans cover.
func (ph *phase) ledgerLayers(dir string) error {
	l := telemetry.Open(dir)
	entries, err := l.List()
	if err != nil {
		return err
	}
	// Only jobs the generator submitted count; the set-up job does not.
	byTrace := map[string]*submission{}
	for _, s := range ph.subs {
		if s.traceID != "" {
			byTrace[s.traceID] = s
		}
	}
	sums := map[string][]float64{}
	var bytesPer []float64
	var rootSum, latSum float64
	for _, e := range entries {
		owner, ok := byTrace[e.TraceID]
		if e.Tool != "sarserve.job" || !ok {
			continue
		}
		_, raw, err := l.Read(e.ID)
		if err != nil {
			return err
		}
		bytesPer = append(bytesPer, float64(len(raw)))
		if len(e.Trace) == 0 {
			continue
		}
		var doc obs.TraceDoc
		if err := json.Unmarshal(e.Trace, &doc); err != nil {
			return fmt.Errorf("ledger %s trace: %w", e.ID, err)
		}
		child := map[string]int64{}
		for _, sp := range doc.Spans {
			if sp.Parent != "" {
				child[sp.Parent] += sp.DurNs
			}
		}
		for _, sp := range doc.Spans {
			self := float64(sp.DurNs-child[sp.ID]) / 1e9
			if name, ok := spanLayers[sp.Name]; ok {
				sums[name] = append(sums[name], self)
			} else if exp, ok := strings.CutPrefix(sp.Name, "bench."); ok {
				sums["sweep.execute_s."+exp] = append(sums["sweep.execute_s."+exp], self)
			}
			if sp.Name == "request" && sp.Parent == "" && owner.ok {
				rootSum += float64(sp.DurNs) / 1e9
				latSum += owner.latS
			}
		}
	}
	for name, xs := range sums {
		if _, ok := ph.layers[name]; ok {
			ph.layers[name] = mean(xs)
		}
	}
	ph.layers["telemetry.ledger_bytes_per_entry"] = mean(bytesPer)
	if latSum > 0 {
		ph.layers["obs.span_coverage"] = rootSum / latSum
	}
	return nil
}

// jobRecord is the part of the sarserve job record the generator reads.
type jobRecord struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Error  string `json:"error"`
}

func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}
}

// doJSON sends one request and decodes a JSON answer into v (when v is
// non-nil and the body is JSON). It returns the status, the raw body and
// the transport error.
func doJSON(c *http.Client, method, url string, body []byte, v any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, nil, err
	}
	if v != nil {
		_ = json.Unmarshal(b, v)
	}
	return resp.StatusCode, b, nil
}

// Generator: a dispatcher owns a time-ordered queue of actions (submit,
// poll, fetch) and hands each, when due, to one of nproc workers; every
// worker holds one keep-alive connection. Submissions are due on the
// open-loop schedule whether or not earlier jobs have finished, and a
// job's latency runs from its scheduled send time to its verified result.

type opKind int

const (
	opSubmit opKind = iota
	opPoll
	opFetch
)

type op struct {
	due  time.Time
	kind opKind
	sub  *submission
}

type opHeap []op

func (h opHeap) Len() int           { return len(h) }
func (h opHeap) Less(i, j int) bool { return h[i].due.Before(h[j].due) }
func (h opHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *opHeap) Push(x any)        { *h = append(*h, x.(op)) }
func (h *opHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type generator struct {
	base string
	w    serveWorkload
	pins *pinSet
	out  *outcome

	mu       sync.Mutex // guards out and paperErr from the workers
	paperErr float64
	deadline time.Time
}

// run drives the schedule to completion and returns the time from the
// first scheduled submission to the last completion.
func (g *generator) run(subs []*submission) float64 {
	t0 := time.Now().Add(20 * time.Millisecond)
	h := &opHeap{}
	for i, s := range subs {
		s.due = t0.Add(time.Duration(float64(i) / g.w.rate * float64(time.Second)))
		heap.Push(h, op{due: s.due, kind: opSubmit, sub: s})
	}
	g.deadline = subs[len(subs)-1].due.Add(drainLimit)

	work := make(chan op)
	back := make(chan []op)
	var wg sync.WaitGroup
	for i := 0; i < runtime.NumCPU(); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient()
			defer c.CloseIdleConnections()
			for o := range work {
				back <- g.do(c, o)
			}
		}()
	}
	last := t0
	inflight := 0
	timer := time.NewTimer(0)
	for h.Len() > 0 || inflight > 0 {
		var send chan op
		var next op
		if h.Len() > 0 {
			next = (*h)[0]
			if wait := time.Until(next.due); wait > 0 {
				timer.Reset(wait)
			} else {
				send = work
			}
		}
		select {
		case send <- next:
			heap.Pop(h)
			inflight++
		case more := <-back:
			inflight--
			for _, o := range more {
				heap.Push(h, o)
			}
			last = time.Now()
		case <-timer.C:
		}
	}
	close(work)
	wg.Wait()
	timer.Stop()
	return last.Sub(t0).Seconds()
}

// do performs one action and returns the follow-up actions.
func (g *generator) do(c *http.Client, o op) []op {
	s := o.sub
	now := time.Now()
	switch o.kind {
	case opSubmit:
		s.lagS = now.Sub(s.due).Seconds()
		body, _ := json.Marshal(s.spec)
		req, _ := http.NewRequest("POST", g.base+"/v1/jobs", bytes.NewReader(body))
		resp, err := c.Do(req)
		if err != nil {
			s.errMsg = "submit: " + err.Error()
			return nil
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		s.postS = time.Since(now).Seconds()
		s.traceID = resp.Header.Get("X-Trace-Id")
		var rec jobRecord
		if err != nil || json.Unmarshal(b, &rec) != nil {
			s.errMsg = "submit: unreadable answer"
			return nil
		}
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			s.errMsg = fmt.Sprintf("rejected: HTTP %d", resp.StatusCode)
			return nil
		}
		s.id = rec.ID
		return g.advance(s, rec)
	case opPoll:
		var rec jobRecord
		code, _, err := doJSON(c, "GET", g.base+"/v1/jobs/"+s.id, nil, &rec)
		if err != nil || code != http.StatusOK {
			s.errMsg = fmt.Sprintf("poll: HTTP %d %v", code, err)
			return nil
		}
		return g.advance(s, rec)
	case opFetch:
		code, b, err := doJSON(c, "GET", g.base+"/v1/jobs/"+s.id+"/result", nil, nil)
		if err != nil || code != http.StatusOK {
			s.errMsg = fmt.Sprintf("result: HTTP %d %v", code, err)
			return nil
		}
		if err := g.verify(s.spec.Exp, b); err != nil {
			s.errMsg = "wrong output"
			g.mu.Lock()
			g.out.mismatch("%v", err)
			g.mu.Unlock()
			return nil
		}
		s.ok = true
		s.latS = time.Since(s.due).Seconds()
	}
	return nil
}

// advance moves a job on from its current record.
func (g *generator) advance(s *submission, rec jobRecord) []op {
	switch rec.Status {
	case "done":
		return []op{{due: time.Now(), kind: opFetch, sub: s}}
	case "failed":
		s.errMsg = "job failed: " + rec.Error
		return nil
	}
	if time.Now().After(g.deadline) {
		s.errMsg = "timed out"
		return nil
	}
	return []op{{due: time.Now().Add(g.w.poll), kind: opPoll, sub: s}}
}

// verify checks a served envelope against its pin. The known-defect
// experiment has no pin: a well-formed envelope of the right name counts.
func (g *generator) verify(exp string, body []byte) error {
	if exp == knownDefectExp {
		var env struct {
			Name string          `json:"name"`
			Data json.RawMessage `json:"data"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Name != "bases" || len(env.Data) == 0 {
			return fmt.Errorf("%s: malformed envelope", exp)
		}
		return nil
	}
	if err := g.pins.check(pinKey("small", exp), body); err != nil {
		return err
	}
	if exp == "t1" {
		g.mu.Lock()
		if g.paperErr == 0 {
			g.paperErr = table1PaperErrRaw(body)
		}
		g.mu.Unlock()
	}
	return nil
}
