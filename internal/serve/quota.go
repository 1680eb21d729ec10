package serve

import (
	"fmt"
	"math"
	"sync"
	"time"
)

// QuotaConfig is the per-tenant admission budget: a token bucket holding
// Burst tokens refilled at JobsPerSec. A zero JobsPerSec disables quota
// enforcement entirely.
type QuotaConfig struct {
	// JobsPerSec is the sustained per-tenant submission rate (0 = no
	// quota).
	JobsPerSec float64
	// Burst is the bucket capacity — how many jobs a tenant may submit
	// back to back before the rate limit bites (<= 0 means
	// max(1, ceil(JobsPerSec))).
	Burst int
}

// QuotaError is the typed admission failure for an exhausted tenant
// budget.
type QuotaError struct {
	// Tenant is the exhausted budget's owner.
	Tenant string
	// RetryAfter is how long until the bucket holds a whole token again.
	RetryAfter time.Duration
}

// Error names the over-quota tenant and its refill hint.
func (e *QuotaError) Error() string {
	return fmt.Sprintf("serve: tenant %q over quota, retry after %v", e.Tenant, e.RetryAfter)
}

// quotas tracks one token bucket per tenant. Buckets materialize on
// first use, full. A bucket that has refilled to Burst admits exactly
// like a fresh one, so full buckets are forgotten: at most once per
// refill period (Burst/JobsPerSec), admit sweeps the map and deletes
// them. The map therefore holds only tenants seen within about two
// refill periods, and each sweep's cost is paid for by the admissions
// that filled the map since the last one.
type quotas struct {
	cfg    QuotaConfig
	refill time.Duration // time for an empty bucket to refill to Burst
	mu     sync.Mutex
	b      map[string]*bucket
	swept  time.Time // last sweep of full buckets
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newQuotas(cfg QuotaConfig) *quotas {
	if cfg.JobsPerSec > 0 && cfg.Burst <= 0 {
		cfg.Burst = int(math.Max(1, math.Ceil(cfg.JobsPerSec)))
	}
	q := &quotas{cfg: cfg, b: make(map[string]*bucket)}
	if cfg.JobsPerSec > 0 {
		q.refill = time.Duration(float64(cfg.Burst) / cfg.JobsPerSec * float64(time.Second))
	}
	return q
}

// level returns bk's token count refilled up to now, capped at Burst.
func (q *quotas) level(bk *bucket, now time.Time) float64 {
	if dt := now.Sub(bk.last).Seconds(); dt > 0 {
		return math.Min(float64(q.cfg.Burst), bk.tokens+dt*q.cfg.JobsPerSec)
	}
	return bk.tokens
}

// admit spends one token from tenant's bucket, or returns a *QuotaError
// with the time until a whole token refills.
func (q *quotas) admit(tenant string, now time.Time) error {
	if q.cfg.JobsPerSec <= 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if now.Sub(q.swept) >= q.refill {
		for t, bk := range q.b {
			if q.level(bk, now) >= float64(q.cfg.Burst) {
				delete(q.b, t)
			}
		}
		q.swept = now
	}
	bk, ok := q.b[tenant]
	if !ok {
		bk = &bucket{tokens: float64(q.cfg.Burst), last: now}
		q.b[tenant] = bk
	}
	if now.After(bk.last) {
		bk.tokens = q.level(bk, now)
		bk.last = now
	}
	if bk.tokens >= 1 {
		bk.tokens--
		return nil
	}
	wait := time.Duration((1 - bk.tokens) / q.cfg.JobsPerSec * float64(time.Second))
	return &QuotaError{Tenant: tenant, RetryAfter: wait}
}
