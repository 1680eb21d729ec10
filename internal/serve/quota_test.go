package serve

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestQuotaExhaustionTyped is the satellite edge case: an exhausted
// tenant budget returns a typed *QuotaError with a refill hint, while
// other tenants keep their own full buckets.
func TestQuotaExhaustionTyped(t *testing.T) {
	q := newQuotas(QuotaConfig{JobsPerSec: 2, Burst: 2})
	now := time.Unix(100, 0)
	for i := 0; i < 2; i++ {
		if err := q.admit("alpha", now); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	var qe *QuotaError
	err := q.admit("alpha", now)
	if !errors.As(err, &qe) {
		t.Fatalf("err = %v, want *QuotaError", err)
	}
	if qe.Tenant != "alpha" || qe.RetryAfter <= 0 || qe.RetryAfter > time.Second {
		t.Errorf("QuotaError = %+v (RetryAfter should be (0, 1s] at 2 jobs/s)", qe)
	}
	// A different tenant draws from its own bucket.
	if err := q.admit("beta", now); err != nil {
		t.Errorf("tenant beta rejected: %v", err)
	}
	// Refill: half a second restores one whole token at 2 jobs/s.
	if err := q.admit("alpha", now.Add(600*time.Millisecond)); err != nil {
		t.Errorf("alpha after refill: %v", err)
	}
}

// TestQuotaUnlimited: a zero config admits everything.
func TestQuotaUnlimited(t *testing.T) {
	q := newQuotas(QuotaConfig{})
	now := time.Unix(100, 0)
	for i := 0; i < 1000; i++ {
		if err := q.admit("anyone", now); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
}

// TestQuotaForgetsFullBuckets: a tenant whose bucket has refilled to
// Burst leaves no state behind, so distinct tenants cannot grow the
// quota map without bound.
func TestQuotaForgetsFullBuckets(t *testing.T) {
	cfg := QuotaConfig{JobsPerSec: 2, Burst: 4}
	q := newQuotas(cfg)
	now := time.Unix(100, 0)
	for i := 0; i < 10000; i++ {
		if err := q.admit(fmt.Sprintf("tenant-%d", i), now); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	now = now.Add(time.Duration(float64(cfg.Burst) / cfg.JobsPerSec * float64(time.Second)))
	if err := q.admit("late", now); err != nil {
		t.Fatal(err)
	}
	if n := len(q.b); n > 2 {
		t.Errorf("quota map holds %d buckets after every tenant refilled, want <= 2", n)
	}
	// A forgotten tenant starts over with a full burst.
	for i := 0; i < cfg.Burst; i++ {
		if err := q.admit("tenant-0", now); err != nil {
			t.Fatalf("forgotten tenant admit %d: %v", i, err)
		}
	}
	var qe *QuotaError
	if err := q.admit("tenant-0", now); !errors.As(err, &qe) {
		t.Errorf("admit past the burst: err = %v, want *QuotaError", err)
	}
}
