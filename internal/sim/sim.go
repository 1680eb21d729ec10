// Package sim provides the deterministic virtual-time primitives the
// Epiphany chip model is built on. Simulated cores run as goroutines, each
// carrying its own cycle counter; they synchronize through two primitives:
//
//   - Chan, a capacity-limited FIFO carrying timestamped messages with
//     credit-based back-pressure. The receiver's clock advances to at
//     least the message availability time; a sender that finds the buffer
//     full advances to the time a slot was freed. With a single producer
//     and a single consumer per channel (how the autofocus pipeline uses
//     them), all timestamps are independent of goroutine scheduling.
//
//   - Rendezvous, an N-party barrier whose last arriver runs a resolution
//     function before anyone is released. The Epiphany model uses the
//     resolution step to settle off-chip bandwidth contention for the
//     phase that just ended, from the complete set of per-core traffic
//     reports — again independent of arrival order.
//
// This "timestamped process network" style is sufficient for the paper's
// two mappings (SPMD compute/barrier phases and an MPMD streaming
// pipeline) and keeps every simulation bit-reproducible, which the test
// suite relies on.
package sim

import "sync"

// Time is virtual time in clock cycles (fractional cycles allowed).
type Time = float64

// msg is one queued item with the time it becomes visible to the receiver.
type msg[T any] struct {
	val T
	at  Time
}

// Chan is a single-producer single-consumer FIFO of timestamped values
// with a fixed capacity.
type Chan[T any] struct {
	data   chan msg[T]
	credit chan Time
}

// NewChan returns a channel with the given buffer capacity (number of
// in-flight messages). Capacity must be at least 1.
func NewChan[T any](capacity int) *Chan[T] {
	if capacity < 1 {
		panic("sim: channel capacity must be >= 1")
	}
	c := &Chan[T]{
		data:   make(chan msg[T], capacity),
		credit: make(chan Time, capacity),
	}
	for i := 0; i < capacity; i++ {
		c.credit <- 0
	}
	return c
}

// Send enqueues v at sender time now; the message becomes visible to the
// receiver after dur (the modeled transfer latency). If the buffer is
// full, the sender blocks until the receiver frees a slot, and the send is
// retimed to that moment (back-pressure). Send returns the sender's new
// local time: the cycle at which the send issued.
func (c *Chan[T]) Send(now Time, v T, dur Time) Time {
	freed := <-c.credit
	if freed > now {
		now = freed
	}
	c.data <- msg[T]{val: v, at: now + dur}
	return now
}

// Recv dequeues the next message at receiver time now, blocking until one
// exists. It returns the value and the receiver's new local time: the
// maximum of now and the message availability time.
func (c *Chan[T]) Recv(now Time) (T, Time) {
	m := <-c.data
	if m.at > now {
		now = m.at
	}
	c.credit <- now
	return m.val, now
}

// Rendezvous is a reusable N-party barrier. The last goroutine to arrive
// runs the resolution function (while all others wait) and then everyone
// is released. It is the synchronization point at which the chip model
// settles shared-resource contention.
type Rendezvous struct {
	n      int
	mu     sync.Mutex
	cond   *sync.Cond
	count  int
	gen    uint64
	action func()
}

// NewRendezvous returns a barrier for n parties.
func NewRendezvous(n int) *Rendezvous {
	if n < 1 {
		panic("sim: rendezvous needs at least one party")
	}
	r := &Rendezvous{n: n}
	r.cond = sync.NewCond(&r.mu)
	return r
}

// Wait blocks until all n parties have called Wait. The last arriver runs
// resolve (if non-nil) before releasing the others; every party must pass
// the same resolve on a given round (conventionally all pass the same
// function value, or only the model's designated closure).
func (r *Rendezvous) Wait(resolve func()) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if resolve != nil {
		r.action = resolve
	}
	gen := r.gen
	r.count++
	if r.count == r.n {
		if r.action != nil {
			r.action()
			r.action = nil
		}
		r.count = 0
		r.gen++
		r.cond.Broadcast()
		return
	}
	for gen == r.gen {
		r.cond.Wait()
	}
}
