package server

import (
	"sync"
	"time"

	"repro/internal/telemetry"
)

// breaker is a consecutive-failure circuit breaker. After threshold
// consecutive job failures it opens: admission for its scope (one
// tenant, or the whole pipeline for the global breaker) is rejected
// with ErrBreakerOpen until the cooldown elapses, at which point the
// breaker closes again with a clean failure count. The point is to
// stop a failing tenant (or a sick pipeline) from burning worker time
// on jobs that will fail anyway, and to give operators a metric
// (server_breaker_state / server_breaker_trips_total) that says so.
type breaker struct {
	mu          sync.Mutex
	threshold   int
	cooldown    time.Duration
	consecutive int
	openUntil   time.Time
	trips       *telemetry.Counter
	state       *telemetry.Gauge
}

// newBreaker returns a breaker; threshold < 0 disables it (it never
// opens). trips/state may be nil-handle telemetry instruments.
func newBreaker(threshold int, cooldown time.Duration, trips *telemetry.Counter, state *telemetry.Gauge) *breaker {
	return &breaker{threshold: threshold, cooldown: cooldown, trips: trips, state: state}
}

// isOpen reports whether the breaker rejects admission at now.
func (b *breaker) isOpen(now time.Time) bool {
	if b.threshold < 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return now.Before(b.openUntil)
}

// closeIfCooled closes a breaker whose cooldown has elapsed and forgets
// the failure streak that opened it.
func (b *breaker) closeIfCooled(now time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.openUntil.IsZero() && !now.Before(b.openUntil) {
		b.openUntil = time.Time{}
		b.consecutive = 0
		b.state.Set(0)
	}
}

// recordFailure counts one failed job; it reports true exactly when
// this failure trips the breaker open.
func (b *breaker) recordFailure(now time.Time) bool {
	if b.threshold < 0 {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.consecutive++
	if b.consecutive >= b.threshold && !now.Before(b.openUntil) && b.openUntil.IsZero() {
		b.openUntil = now.Add(b.cooldown)
		b.trips.Inc()
		b.state.Set(1)
		return true
	}
	return false
}

// recordSuccess resets the failure streak.
func (b *breaker) recordSuccess() {
	if b.threshold < 0 {
		return
	}
	b.mu.Lock()
	b.consecutive = 0
	b.mu.Unlock()
}
