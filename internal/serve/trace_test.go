package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"sarmany/internal/obs"
	"sarmany/internal/telemetry"
)

var hex32 = regexp.MustCompile(`^[0-9a-f]{32}$`)

// postTraced submits a spec with an optional traceparent header and
// returns the status, decoded record, response header and client-side
// wall clock.
func postTraced(t *testing.T, ts *httptest.Server, spec, traceparent string, wait bool) (int, JobInfo, http.Header, time.Duration) {
	t.Helper()
	url := ts.URL + "/v1/jobs"
	if wait {
		url += "?wait=1"
	}
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	t0 := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(t0)
	defer resp.Body.Close()
	var info JobInfo
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	return resp.StatusCode, info, resp.Header, wall
}

// jobEntry finds the sarserve.job ledger entry for a job id.
func jobEntry(t *testing.T, dir, jobID string) telemetry.Entry {
	t.Helper()
	entries, err := telemetry.Open(dir).List()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Tool == "sarserve.job" && e.Extra["job_id"] == jobID {
			return e
		}
	}
	t.Fatalf("no sarserve.job entry for %s in %d entries", jobID, len(entries))
	return telemetry.Entry{}
}

// TestTraceEndToEnd submits one traced job over HTTP and checks the
// whole tentpole contract: the response carries the trace ID, the
// ledger entry embeds a span tree covering every pipeline stage, and
// the stage durations reconcile with the request wall clock.
func TestTraceEndToEnd(t *testing.T) {
	var execs atomic.Int64
	dir := t.TempDir()
	s := NewServer(Options{
		Workers:  2,
		CacheDir: t.TempDir(), LedgerDir: dir,
		TraceSample: 1,
		Run:         stubRunner(&execs, 10*time.Millisecond),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, info, hdr, wall := postTraced(t, ts, `{"exp": "gbp"}`, "", true)
	if status != http.StatusOK || info.Status != StatusDone {
		t.Fatalf("submit = %d %+v", status, info)
	}
	tid := hdr.Get("X-Trace-Id")
	if !hex32.MatchString(tid) {
		t.Fatalf("X-Trace-Id = %q, want 32 hex chars", tid)
	}
	if info.TraceID != tid {
		t.Fatalf("record trace_id %q != header %q", info.TraceID, tid)
	}

	e := jobEntry(t, dir, info.ID)
	if e.TraceID != tid {
		t.Fatalf("ledger trace_id %q != %q", e.TraceID, tid)
	}
	if len(e.Trace) == 0 {
		t.Fatal("ledger entry has no embedded trace")
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(e.Trace, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.TraceID != tid {
		t.Fatalf("trace doc id %q != %q", doc.TraceID, tid)
	}

	byName := map[string]obs.TraceSpan{}
	for _, sp := range doc.Spans {
		byName[sp.Name] = sp
	}
	for _, stage := range []string{
		"request", "admission", "queue.wait", "execute",
		"sweep.cache.lookup", "sweep.execute", "ledger.write",
	} {
		if _, ok := byName[stage]; !ok {
			t.Errorf("stage %q missing from trace (have %v)", stage, names(doc))
		}
	}
	root := byName["request"]
	if root.Attrs["exp"] != "gbp" || root.Attrs["tenant"] != "default" {
		t.Errorf("root attrs = %v", root.Attrs)
	}
	if byName["sweep.cache.lookup"].Attrs["hit"] != "false" {
		t.Errorf("cold lookup attrs = %v", byName["sweep.cache.lookup"].Attrs)
	}

	// Reconciliation: every direct stage lies inside the root window,
	// the stages are disjoint in sequence, their sum is bounded by the
	// root duration, and the root is bounded by the client wall clock.
	rootEnd := root.StartUnixNs + root.DurNs
	var stageSum int64
	for _, stage := range []string{"admission", "queue.wait", "execute", "ledger.write"} {
		sp := byName[stage]
		if sp.StartUnixNs < root.StartUnixNs || sp.StartUnixNs+sp.DurNs > rootEnd {
			t.Errorf("%s outside the root window", stage)
		}
		stageSum += sp.DurNs
	}
	if stageSum > root.DurNs {
		t.Errorf("stage sum %dns exceeds root %dns", stageSum, root.DurNs)
	}
	if root.DurNs > wall.Nanoseconds() {
		t.Errorf("root %dns exceeds client wall %dns", root.DurNs, wall.Nanoseconds())
	}
	// The 10ms stub delay must show up in the execute stage.
	if byName["execute"].DurNs < (8 * time.Millisecond).Nanoseconds() {
		t.Errorf("execute = %dns, want >= ~10ms of stub work", byName["execute"].DurNs)
	}
	// queue.wait ends where the execute stage begins (within scheduling
	// slop): the two stages partition the post-admission timeline.
	qEnd := byName["queue.wait"].StartUnixNs + byName["queue.wait"].DurNs
	if gap := byName["execute"].StartUnixNs - qEnd; gap < 0 || gap > (5*time.Millisecond).Nanoseconds() {
		t.Errorf("queue.wait -> execute gap = %dns", gap)
	}

	// A warm resubmission with a distinct trace joins via singleflight
	// only if still live; here the job completed, so a fresh POST
	// attaches to the done record and keeps the owner's trace ID in the
	// body while the header carries the new request's own ID.
	status2, info2, hdr2, _ := postTraced(t, ts, `{"exp": "gbp"}`, "", true)
	if status2 != http.StatusOK {
		t.Fatalf("resubmit = %d", status2)
	}
	if info2.TraceID != tid {
		t.Errorf("attached record trace_id %q, want owner %q", info2.TraceID, tid)
	}
	if got := hdr2.Get("X-Trace-Id"); got == tid || !hex32.MatchString(got) {
		t.Errorf("attached request X-Trace-Id = %q, want a fresh id", got)
	}
}

func names(doc obs.TraceDoc) []string {
	out := make([]string, len(doc.Spans))
	for i, s := range doc.Spans {
		out[i] = s.Name
	}
	return out
}

// TestTraceparentInbound pins W3C context propagation: the server
// adopts the inbound trace ID, parents its root span under the
// caller's span, and honors the sampled flag in both directions.
func TestTraceparentInbound(t *testing.T) {
	var execs atomic.Int64
	dir := t.TempDir()
	s := NewServer(Options{
		Workers:   1,
		LedgerDir: dir,
		// TraceSample 0: only the inbound flag can turn tracing on.
		Run: stubRunner(&execs, 0),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const parentSpan = "00f067aa0ba902b7"
	inboundID := obs.NewTraceID()
	header := "00-" + inboundID.String() + "-" + parentSpan + "-01"
	status, info, hdr, _ := postTraced(t, ts, `{"exp": "gbp", "tag": "sampled"}`, header, true)
	if status != http.StatusOK {
		t.Fatalf("submit = %d", status)
	}
	if got := hdr.Get("X-Trace-Id"); got != inboundID.String() {
		t.Fatalf("X-Trace-Id = %q, want inbound %q", got, inboundID)
	}
	e := jobEntry(t, dir, info.ID)
	if e.TraceID != inboundID.String() || len(e.Trace) == 0 {
		t.Fatalf("ledger trace_id=%q trace bytes=%d, want inbound id with a tree", e.TraceID, len(e.Trace))
	}
	var doc obs.TraceDoc
	if err := json.Unmarshal(e.Trace, &doc); err != nil {
		t.Fatal(err)
	}
	for _, sp := range doc.Spans {
		if sp.Name == "request" && sp.Parent != parentSpan {
			t.Errorf("root parent = %q, want caller span %q", sp.Parent, parentSpan)
		}
	}

	// flags 00: the ID is adopted but no span tree is collected.
	unsampledID := obs.NewTraceID()
	header = "00-" + unsampledID.String() + "-" + parentSpan + "-00"
	status, info, hdr, _ = postTraced(t, ts, `{"exp": "gbp", "tag": "unsampled"}`, header, true)
	if status != http.StatusOK {
		t.Fatalf("unsampled submit = %d", status)
	}
	if got := hdr.Get("X-Trace-Id"); got != unsampledID.String() {
		t.Fatalf("unsampled X-Trace-Id = %q, want %q", got, unsampledID)
	}
	e = jobEntry(t, dir, info.ID)
	if e.TraceID != unsampledID.String() {
		t.Errorf("unsampled ledger trace_id = %q, want %q", e.TraceID, unsampledID)
	}
	if len(e.Trace) != 0 {
		t.Errorf("unsampled request recorded a %d-byte trace", len(e.Trace))
	}
}

// TestTraceSampleZero pins the default-off contract the serving
// benchmark depends on: without TraceSample and without an inbound
// header, no span tree is collected — but every response still
// carries a usable trace ID.
func TestTraceSampleZero(t *testing.T) {
	var execs atomic.Int64
	dir := t.TempDir()
	s := NewServer(Options{
		Workers:   1,
		LedgerDir: dir, Run: stubRunner(&execs, 0),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, info, hdr, _ := postTraced(t, ts, `{"exp": "gbp"}`, "", true)
	if status != http.StatusOK {
		t.Fatalf("submit = %d", status)
	}
	if !hex32.MatchString(hdr.Get("X-Trace-Id")) {
		t.Errorf("X-Trace-Id = %q, want 32 hex chars", hdr.Get("X-Trace-Id"))
	}
	if info.TraceID != hdr.Get("X-Trace-Id") {
		t.Errorf("record trace_id %q != header %q", info.TraceID, hdr.Get("X-Trace-Id"))
	}
	if e := jobEntry(t, dir, info.ID); len(e.Trace) != 0 {
		t.Errorf("unsampled server recorded a %d-byte trace", len(e.Trace))
	}
}

// TestSubmitAssignsTraceID pins that direct (non-HTTP) submissions get
// trace IDs too: the ID is minted in Submit when the context carries
// none.
func TestSubmitAssignsTraceID(t *testing.T) {
	var execs atomic.Int64
	s := NewServer(Options{
		Workers: 1,
		Run:     stubRunner(&execs, 0),
	})
	info, err := s.Submit(context.Background(), JobSpec{Exp: "gbp"})
	if err != nil {
		t.Fatal(err)
	}
	if !hex32.MatchString(info.TraceID) {
		t.Errorf("direct submit trace_id = %q, want 32 hex chars", info.TraceID)
	}
}

// TestRetryAfterHintCold pins the satellite fix: a cold server (no
// completed jobs, so serve.job.seconds quantiles to NaN) must hint a
// sane positive backoff, and an all-subsecond history must never round
// the hint below it.
func TestRetryAfterHintCold(t *testing.T) {
	s := NewServer(Options{Workers: 2})
	if got := s.retryAfterHint(); got != coldRetryAfter {
		t.Fatalf("cold hint = %v, want %v", got, coldRetryAfter)
	}
	s.m.jobSeconds.Observe(0.0001)
	if got := s.retryAfterHint(); got < coldRetryAfter {
		t.Fatalf("subsecond-history hint = %v, want >= %v", got, coldRetryAfter)
	}
}

// TestColdQueueFullRetryAfter drives the same edge through HTTP: the
// very first over-queue rejection of a cold server must carry
// Retry-After >= 1, never 0.
func TestColdQueueFullRetryAfter(t *testing.T) {
	var execs atomic.Int64
	s := NewServer(Options{
		Workers: 1, QueueLimit: 1,
		Run: stubRunner(&execs, 200*time.Millisecond),
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, _, _, _ := postTraced(t, ts, `{"exp": "gbp", "tag": "a"}`, "", false); status != http.StatusAccepted {
		t.Fatalf("first submit = %d, want 202", status)
	}
	// Fill the queue until admission rejects, while the first
	// job still blocks the only worker.
	deadline := time.Now().Add(2 * time.Second)
	for i := 0; ; i++ {
		status, _, hdr, _ := postTraced(t, ts, `{"exp": "gbp", "tag": "b`+string(rune('a'+i%26))+`"}`, "", false)
		if status == http.StatusTooManyRequests {
			ra := hdr.Get("Retry-After")
			if ra == "" || ra == "0" {
				t.Fatalf("cold queue-full Retry-After = %q, want >= 1", ra)
			}
			return
		}
		if status != http.StatusAccepted {
			t.Fatalf("submit = %d", status)
		}
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
	}
}
