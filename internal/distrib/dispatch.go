package distrib

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/health"
	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// workItem is one queue entry: a request index, possibly a hedge copy.
type workItem struct {
	ri    int
	hedge bool
}

// slot is one request index's dispatch state (under dispatch.mu).
type slot struct {
	done     bool      // a response won
	hedged   bool      // its one hedge was launched
	inflight int       // copies out with workers
	attempts int       // failed exchanges charged against MaxAttempts
	started  time.Time // when its only in-flight copy was claimed
}

// dispatch is the state of one DispatchContext call: what the caller, its
// worker loops and its monitor share.
type dispatch struct {
	c    *Coordinator
	ctx  context.Context
	reqs []WorkRequest

	// Resolved once by newDispatch.
	workers       []*workerConn
	plan          *faultinject.Plan
	hub           *telemetry.Hub
	parent, span  *telemetry.Span
	cm            coordMetrics
	retry         RetryPolicy
	probeInterval time.Duration

	// queue is sized for the worst case — every attempt plus one hedge per
	// index — so sends never block.
	queue chan workItem
	// done closes when the dispatch is over: every index has a winner, or
	// the first failure was recorded in err.
	done    chan struct{}
	pending atomic.Int64 // indices without a winner
	alive   atomic.Int64 // workers still serving this dispatch

	mu        sync.Mutex
	over      bool
	err       error
	slots     []slot
	samples   []time.Duration // winners' service times: the hedger's p95
	order     []int           // claimed indices in claim order (Stats.ServeOrder)
	responses []*WorkResponse
}

// stragglerMinSamples is how many completed exchanges the hedger needs
// before the running p95 is meaningful.
const stragglerMinSamples = 3

// Dispatch is DispatchContext without a deadline.
func (c *Coordinator) Dispatch(reqs []WorkRequest) ([]*WorkResponse, error) {
	return c.DispatchContext(context.Background(), reqs)
}

// DispatchContext ships every partition to the worker pool and collects
// responses indexed by request position.
//
// Partitions are pulled from a shared queue, so fast workers take more
// of them. A worker whose exchange fails (connection error, injected
// fault, or RequestTimeout expiry) is dropped immediately — its
// connection closed, its outstanding partition re-queued to the
// survivors after a backoff (Retry). The dispatch fails only when a
// partition exhausts Retry.MaxAttempts, a worker reports an
// application-level error (resp.Err — deterministic, so re-execution
// cannot help), or zero workers survive.
//
// With StragglerFactor set, a hedging monitor watches in-flight
// partitions and re-issues stragglers to idle workers (see the field
// doc). The dispatch returns as soon as every partition has a winning
// response — it does not wait out a straggler whose result lost; such a
// worker finishes its exchange in the background and then observes the
// completed dispatch.
//
// Cancelling ctx aborts the dispatch: every worker connection is closed
// (unblocking any exchange in flight — the pool does not survive a
// cancellation) and the context's error is returned.
func (c *Coordinator) DispatchContext(ctx context.Context, reqs []WorkRequest) ([]*WorkResponse, error) {
	d := c.newDispatch(ctx, reqs)
	if len(d.workers) == 0 {
		return nil, fmt.Errorf("distrib: no workers connected")
	}
	if len(reqs) == 0 {
		return nil, nil
	}
	d.start()
	select {
	case <-d.done:
	case <-ctx.Done():
		// Exchanges blocked mid-read must be unblocked too, so a dispatch
		// this ends severs every connection.
		if d.finish(fmt.Errorf("distrib: dispatch aborted: %w", ctx.Err())) {
			for _, w := range d.workers {
				c.removeWorker(w)
			}
		}
	}
	d.span.End() // nothing is claimed once done is closed, so order is final
	c.mu.Lock()
	c.serveOrder = d.order
	c.mu.Unlock()
	if d.err != nil {
		return nil, d.err
	}
	return d.responses, nil
}

func (c *Coordinator) newDispatch(ctx context.Context, reqs []WorkRequest) *dispatch {
	d := &dispatch{
		c: c, ctx: ctx, reqs: reqs,
		retry:         c.Retry.withDefaults(),
		probeInterval: c.ProbeInterval,
		done:          make(chan struct{}),
		slots:         make([]slot, len(reqs)),
		responses:     make([]*WorkResponse, len(reqs)),
	}
	if d.probeInterval <= 0 {
		d.probeInterval = 5 * time.Millisecond
	}
	c.mu.Lock()
	d.workers = append([]*workerConn(nil), c.workers...)
	d.plan, d.hub, d.parent, d.cm = c.plan, c.hub, c.parent, c.cm
	c.mu.Unlock()
	d.queue = make(chan workItem, len(reqs)*(d.retry.MaxAttempts+1))
	d.pending.Store(int64(len(reqs)))
	d.alive.Store(int64(len(d.workers)))
	return d
}

// start opens the dispatch span, fills the queue and launches the monitor
// and the worker loops; each ends once done is closed (a worker loop
// after the exchange it is in).
func (d *dispatch) start() {
	reqs := d.reqs
	d.span = d.hub.Start(d.parent, "distrib.dispatch",
		telemetry.Int("partitions", len(reqs)), telemetry.Int("workers", len(d.workers)))
	for i := range reqs { // before any worker goroutine reads them
		if reqs[i].TraceID == 0 {
			reqs[i].TraceID = uint64(d.span.ID())
		}
	}
	// Largest partitions first: the dispatch finishes when its slowest
	// partition does (§5's slowest-node bound), so the biggest must
	// never be the one still queued when the pool drains.
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ra, rb := &reqs[order[a]], &reqs[order[b]]
		return len(ra.Owned)+len(ra.Shadow) > len(rb.Owned)+len(rb.Shadow)
	})
	for _, i := range order {
		d.queue <- workItem{ri: i}
	}
	if d.c.StragglerFactor > 0 || d.c.Health != nil {
		go d.monitor()
	}
	for _, w := range d.workers {
		go d.workerLoop(w)
	}
}

// finish ends the dispatch: with err nil because the last index won, else
// with the first failure. It reports whether this call was the one that
// ended it; later calls are no-ops.
func (d *dispatch) finish(err error) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.over {
		return false
	}
	d.over, d.err = true, err
	close(d.done)
	return true
}

// sleep waits out t and reports whether the dispatch is still running.
func (d *dispatch) sleep(t time.Duration) bool {
	timer := time.NewTimer(t)
	defer timer.Stop()
	select {
	case <-d.done:
		return false
	case <-timer.C:
		return true
	}
}

// monitor is the dispatch's one ticker: straggler hedging and in-flight
// slow-crossing observation, whichever is enabled.
func (d *dispatch) monitor() {
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-d.done:
			return
		case <-tick.C:
		}
		if d.c.StragglerFactor > 0 {
			d.hedgeStragglers()
		}
		if d.c.Health != nil {
			d.observeSlow()
		}
	}
}

// hedgeStragglers queues a second copy of any index whose single
// in-flight attempt has outlived StragglerFactor × the running p95 — at
// most one hedge per index, and none before stragglerMinSamples winners.
func (d *dispatch) hedgeStragglers() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.samples) < stragglerMinSamples {
		return
	}
	sorted := slices.Clone(d.samples)
	slices.Sort(sorted)
	p95 := sorted[int(0.95*float64(len(sorted)-1))] // nearest rank
	threshold := time.Duration(float64(p95) * d.c.StragglerFactor)
	for ri := range d.slots {
		s := &d.slots[ri]
		if s.done || s.hedged || s.inflight != 1 || time.Since(s.started) <= threshold {
			continue
		}
		s.hedged = true
		d.queue <- workItem{ri: ri, hedge: true}
		d.cm.hedgesLaunched.Inc()
		d.hub.Event(d.span, "distrib.hedge", telemetry.Int("leaf", d.reqs[ri].Leaf))
	}
}

// observeSlow emits one health observation per crossing of the class slow
// threshold while a worker's real dispatch item is in flight, so a
// limping worker accumulates evidence before its operation completes (or
// its hedge wins).
func (d *dispatch) observeSlow() {
	thr := d.c.Health.SlowThreshold("worker")
	if thr <= 0 {
		return
	}
	for _, w := range d.workers {
		b := w.busySince.Load()
		if b == 0 || w.dead.Load() {
			continue
		}
		elapsed := time.Since(time.Unix(0, b))
		if elapsed > time.Duration(w.slowCrossings.Load()+1)*thr {
			w.slowCrossings.Add(1)
			d.c.Health.ObserveInFlight(w.comp, elapsed)
		}
	}
}

// claim takes a dequeued item for a worker. It refuses an index that
// already has a winner (a hedge or requeue that lost) and anything once
// the dispatch is over.
func (d *dispatch) claim(it workItem) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &d.slots[it.ri]
	if d.over || s.done {
		return false
	}
	if s.inflight++; s.inflight == 1 {
		s.started = time.Now()
	}
	d.order = append(d.order, it.ri)
	return true
}

// settle returns a claimed copy of ri that produced nothing, and reports
// whether the index is still covered: won already, or another copy is in
// flight. Only an uncovered index needs a redispatch.
func (d *dispatch) settle(ri int) (covered bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &d.slots[ri]
	s.inflight--
	return s.done || s.inflight > 0
}

// won records a clean response. The first one per index wins: it is
// stored, OnResponse fires (once per index, on this receiving goroutine)
// and only then does the index stop counting as pending, so the dispatch
// cannot return with a hook still running. A later copy's response is
// discarded. It reports whether this was the dispatch's last index.
func (d *dispatch) won(it workItem, resp *WorkResponse, took time.Duration) (last bool) {
	d.mu.Lock()
	s := &d.slots[it.ri]
	s.inflight--
	if s.done {
		d.mu.Unlock()
		return false
	}
	s.done = true
	d.samples = append(d.samples, took)
	d.responses[it.ri] = resp
	d.mu.Unlock()
	if it.hedge {
		d.cm.hedgesWon.Inc()
		d.hub.Event(d.span, "distrib.hedge_won", telemetry.Int("leaf", d.reqs[it.ri].Leaf))
	}
	if d.c.OnResponse != nil {
		d.c.OnResponse(it.ri, resp)
	}
	if d.pending.Add(-1) > 0 {
		return false
	}
	d.finish(nil)
	return true
}

// lost is the one way a worker leaves a dispatch: its connection is
// closed and it is dropped from the pool, the index it held (ri < 0:
// none) is redispatched if nothing else covers it, and the dispatch fails
// when no worker survives. A cancelled dispatch requeues nothing.
func (d *dispatch) lost(w *workerConn, ri int, cause error) {
	d.c.removeWorker(w)
	covered := ri < 0 || d.settle(ri)
	if d.ctx.Err() != nil {
		return
	}
	if !covered {
		d.redispatch(ri, cause, true)
	}
	if d.alive.Add(-1) == 0 {
		d.finish(fmt.Errorf("distrib: no surviving workers: %w", cause))
	}
}

// redispatch hands an uncovered index back to the pool after a backoff.
// It is the one place that spends: a failed attempt counts against
// MaxAttempts (a verified-corruption redispatch does not — nothing bad
// was trusted and re-execution is free), and either kind takes a
// distrib.redispatch budget token. Out of attempts or budget, the
// dispatch fails.
func (d *dispatch) redispatch(ri int, cause error, countsAttempt bool) {
	leaf, attempt := d.reqs[ri].Leaf, 1
	if countsAttempt {
		d.mu.Lock()
		d.slots[ri].attempts++
		attempt = d.slots[ri].attempts
		d.mu.Unlock()
		if attempt >= d.retry.MaxAttempts {
			d.finish(fmt.Errorf("distrib: leaf %d failed on %d workers, giving up: %w", leaf, attempt, cause))
			return
		}
	}
	if !d.c.Budget.Take("distrib.redispatch") {
		d.finish(fmt.Errorf("distrib: leaf %d redispatch after %w: %w", leaf, cause, health.ErrBudgetExhausted))
		return
	}
	if countsAttempt {
		d.cm.retries.Inc()
		d.hub.Event(d.span, "distrib.retry", telemetry.Int("leaf", leaf), telemetry.Int("attempt", attempt))
	}
	delay := d.retry.backoff(attempt)
	go func() {
		if d.sleep(delay) {
			d.queue <- workItem{ri: ri}
		}
	}()
}

// probe pings a quarantined worker so it can earn Probation, then waits
// out ProbeInterval; a probe that errors loses the worker like any failed
// exchange. It reports whether the worker should keep going.
func (d *dispatch) probe(w *workerConn) bool {
	begin := time.Now()
	resp, err := d.c.exchange(w, &WorkRequest{Ping: true}, d.c.RequestTimeout)
	ok := err == nil && resp.Ping
	d.c.Health.ObserveProbe(w.comp, time.Since(begin), ok)
	d.cm.probes.Inc()
	d.hub.Event(d.span, "distrib.probe", telemetry.Int("worker", w.idx), telemetry.Bool("ok", ok))
	if err != nil {
		d.lost(w, -1, err)
		return false
	}
	return d.sleep(d.probeInterval)
}

// workerLoop is one worker's share of the dispatch: probe while
// quarantined (a quarantined worker takes no partitions), else pull,
// claim and run items until the dispatch is over or the worker is lost.
func (d *dispatch) workerLoop(w *workerConn) {
	for {
		for d.c.Health.Quarantined(w.comp) {
			if !d.probe(w) {
				return
			}
		}
		var it workItem
		select {
		case <-d.done:
			return
		case it = <-d.queue:
		}
		if d.claim(it) && !d.run(w, it) {
			return
		}
	}
}

// run performs a claimed item's exchange and routes its outcome. It
// reports whether the worker should pull another item.
func (d *dispatch) run(w *workerConn, it workItem) bool {
	if err := checkConnFault(d.plan, w); err != nil {
		// Injected connection fault: sever exactly as a crashed worker
		// node would.
		d.lost(w, it.ri, err)
		return false
	}
	begin := time.Now()
	w.busySince.Store(begin.UnixNano())
	w.slowCrossings.Store(0)
	resp, err := d.c.exchange(w, &d.reqs[it.ri], d.c.RequestTimeout)
	w.busySince.Store(0)
	switch {
	case errors.Is(err, integrity.ErrChecksum) && d.ctx.Err() == nil:
		return d.corrupted(w, it.ri, err)
	case err != nil:
		d.c.Health.ObserveError(w.comp)
		d.lost(w, it.ri, err)
		return false
	}
	w.corruptSince.Store(0) // clean exchange ends any corruption streak
	if resp.Err != "" {
		d.finish(fmt.Errorf("distrib: worker %d leaf %d: %s", w.pid, resp.Leaf, resp.Err))
		return false
	}
	took := time.Since(begin)
	d.c.Health.ObserveSuccess(w.comp, took)
	d.cm.recordStages(d.hub, d.parent != nil, d.span, begin, resp)
	return !d.won(it, resp, took)
}

// corrupted handles an exchange that failed CRC past its retransmit
// budget: nothing was trusted, so the index is redispatched without
// consuming MaxAttempts and the worker keeps serving — until its streak
// of such exchanges outlives Retry.MaxElapsed, when it is lost like a
// crashed node. It reports whether the worker survives.
func (d *dispatch) corrupted(w *workerConn, ri int, cause error) bool {
	now := time.Now()
	first := w.corruptSince.Load()
	if first == 0 {
		first = now.UnixNano()
		w.corruptSince.Store(first)
	}
	d.c.Health.ObserveCorruption(w.comp)
	d.cm.corruptRedispatch.Inc()
	d.hub.Event(d.span, "distrib.corrupt_redispatch",
		telemetry.Int("leaf", d.reqs[ri].Leaf), telemetry.Int("worker", w.idx))
	if !d.settle(ri) {
		d.redispatch(ri, cause, false)
	}
	if now.Sub(time.Unix(0, first)) <= d.retry.MaxElapsed {
		return true
	}
	d.lost(w, -1, cause)
	d.hub.Event(d.span, "distrib.worker_corrupt_removed", telemetry.Int("worker", w.idx))
	return false
}
