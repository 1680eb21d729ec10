package serve

import (
	"sync"
	"time"

	"sarmany/internal/obs"
)

// Status is a job's lifecycle state.
type Status string

// The job lifecycle: Queued (admitted, waiting for an execution slot),
// Running (executing), then Done or Failed. A resubmission of a
// Failed job re-enters at Queued; Done results are immutable.
const (
	StatusQueued  Status = "queued"
	StatusRunning Status = "running"
	StatusDone    Status = "done"
	StatusFailed  Status = "failed"
)

// JobInfo is the public view of one job record — the GET /v1/jobs/{id}
// response body.
type JobInfo struct {
	// ID is the content-addressed job identifier.
	ID string `json:"id"`
	// Spec is the submitted job specification.
	Spec JobSpec `json:"spec"`
	// Status is the lifecycle state.
	Status Status `json:"status"`
	// Cached reports whether the result was replayed from the shared
	// content-addressed cache instead of freshly simulated.
	Cached bool `json:"cached,omitempty"`
	// Error carries the failure message when Status is "failed".
	Error string `json:"error,omitempty"`
	// SubmittedAt is the first-submission timestamp (RFC 3339).
	SubmittedAt time.Time `json:"submitted_at"`
	// DurationSeconds is the job's execution wall clock (0 until done).
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
	// RunID is the run-ledger entry recorded for the completed job, when
	// ledger recording is enabled.
	RunID string `json:"run_id,omitempty"`
	// TraceID is the W3C trace identifier of the request that owns this
	// record (the first submission; attached duplicates keep their own
	// IDs in the X-Trace-Id response header). It correlates the record
	// with structured logs and the ledger entry's embedded span tree.
	TraceID string `json:"trace_id,omitempty"`
}

// traceState bundles one admitted request's tracing handles: the
// collector plus the open stage spans whose ends are owned by later
// pipeline stages. All fields may be nil (unsampled request) — every
// span operation is nil-safe.
type traceState struct {
	trace *obs.ReqTrace
	root  *obs.ReqSpan // whole-request span, ended at ledger time
	queue *obs.ReqSpan // queue.wait, ended when an execution slot is acquired
	exec  *obs.ReqSpan // execute stage, parent of the sweep's child spans
}

// record is one job's mutable server-side state. The completion channel
// closes exactly once, on the Queued/Running -> Done/Failed transition,
// so any number of waiters (wait-mode submitters, pollers) can block on
// the same execution.
type record struct {
	mu    sync.Mutex
	info  JobInfo
	raw   []byte        // result envelope bytes (Done only)
	done  chan struct{} // closed on completion
	trace traceState    // owning request's trace handles (zero when unsampled)
}

// setTrace stores the owning request's trace handles. Called before the
// job is admitted for execution, so the executing side always sees them.
func (r *record) setTrace(ts traceState) {
	r.mu.Lock()
	r.trace = ts
	r.mu.Unlock()
}

// traceHandles returns the record's trace handles (zero-valued, and
// therefore all-nil-safe, for unsampled requests).
func (r *record) traceHandles() traceState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.trace
}

// beginExec marks the slot-acquired boundary in the record's trace: the
// queue.wait span ends and the execute stage span opens. It returns the
// execute span, the parent of the sweep's spans for this job.
func (r *record) beginExec() *obs.ReqSpan {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.info.Status == StatusQueued {
		r.info.Status = StatusRunning
	}
	r.trace.queue.End()
	r.trace.exec = r.trace.root.Child("execute")
	return r.trace.exec
}

func (r *record) snapshot() JobInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.info
}

func (r *record) result() ([]byte, JobInfo) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.raw, r.info
}

// store maps content-addressed job IDs to their records. It is the
// idempotency layer: submitting a job whose ID is already Queued,
// Running or Done attaches to the existing record instead of executing
// again — duplicate requests are single-flighted across tenants.
type store struct {
	mu   sync.Mutex
	jobs map[string]*record
}

func newStore() *store { return &store{jobs: make(map[string]*record)} }

// get returns the record for id, if any.
func (s *store) get(id string) (*record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.jobs[id]
	return r, ok
}

// admit returns the record for id, creating a fresh Queued one when none
// exists or the previous attempt Failed. traceID is the submitting
// request's trace identifier, stamped on a fresh record only (an
// attached duplicate keeps the owner's). The second result reports
// whether the caller owns a new submission (and must enqueue it).
func (s *store) admit(id string, spec JobSpec, traceID string, now time.Time) (*record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.jobs[id]; ok {
		r.mu.Lock()
		st := r.info.Status
		r.mu.Unlock()
		if st != StatusFailed {
			return r, false
		}
	}
	r := &record{
		info: JobInfo{ID: id, Spec: spec, Status: StatusQueued, SubmittedAt: now, TraceID: traceID},
		done: make(chan struct{}),
	}
	s.jobs[id] = r
	return r, true
}

// len returns the stored record count.
func (s *store) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}

// complete resolves the record and wakes every waiter. err == "" means
// success.
func (r *record) complete(raw []byte, cached bool, duration time.Duration, err, runID string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.info.Status == StatusDone || r.info.Status == StatusFailed {
		return
	}
	if err != "" {
		r.info.Status = StatusFailed
		r.info.Error = err
	} else {
		r.info.Status = StatusDone
		r.raw = raw
	}
	r.info.Cached = cached
	r.info.DurationSeconds = duration.Seconds()
	r.info.RunID = runID
	close(r.done)
}
