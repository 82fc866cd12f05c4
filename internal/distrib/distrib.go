// Package distrib runs Mr. Scan's cluster phase across real operating
// system process boundaries: a coordinator partitions the input and ships
// each partition over TCP to worker processes, which run the GPGPU DBSCAN
// locally and return cluster summaries and labels; the coordinator then
// merges and sweeps exactly as the in-process pipeline does.
//
// This is the deployment shape of the real system — MRNet backends on
// separate Titan nodes receiving work from the tree — realized with
// nothing but the standard library: fixed-record binary messages
// (codec.go) in versioned, CRC32C-checksummed envelopes over TCP
// (envelope.go). The
// in-process pipeline (internal/mrscan) remains the fast path; this
// package exists so the clustering protocol demonstrably survives a
// process boundary, including one that corrupts bits in flight.
package distrib

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/faultinject"
	"repro/internal/gdbscan"
	"repro/internal/geom"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/health"
	"repro/internal/integrity"
	"repro/internal/merge"
	"repro/internal/telemetry"
)

// WorkRequest is one partition shipped to a worker.
type WorkRequest struct {
	Leaf     int
	Eps      float64
	MinPts   int
	DenseBox bool // gdbscan.Options.DenseBox: Eps cells and dense boxes on
	// Owned points first; Shadow completes the Eps-neighborhoods.
	Owned  []geom.Point
	Shadow []geom.Point
	// Ping asks the worker for a liveness acknowledgement instead of
	// work (coordinator heartbeats).
	Ping bool
	// Done tells the worker to exit after acknowledging.
	Done bool
	// TraceID ties the exchange to the coordinator's trace; the worker
	// echoes it. DispatchContext stamps requests that carry none with its
	// dispatch span's ID.
	TraceID uint64
}

// WorkResponse is a worker's result for one partition.
type WorkResponse struct {
	Leaf        int
	Summaries   []*merge.Summary
	Labels      []int32 // over Owned only
	NumClusters int
	// Ping acknowledges a heartbeat.
	Ping bool
	// Err carries a worker-side failure.
	Err string
	// TraceID echoes the request's.
	TraceID uint64
	// Worker-side stage times in nanoseconds: decoding the request, the
	// GPGPU DBSCAN, building the summaries. What is left of the
	// coordinator's round trip is encoding and the wire.
	DecodeNS, ClusterNS, SummariseNS int64
}

// Hello is the first message a worker sends after dialing in.
type Hello struct {
	Pid int
}

// IsConnClosed reports whether err is the far end closing the connection
// — what a worker sees when the coordinator drops it after a failure or
// shuts down without a Done message, including mid-envelope. Workers
// treat it as a normal exit. It classifies by type: a payload that fails
// to decode (integrity.ErrMalformed) is not a closed connection, whatever
// its text says.
func IsConnClosed(err error) bool {
	for _, closed := range []error{io.EOF, net.ErrClosed, syscall.ECONNRESET, syscall.EPIPE, integrity.ErrTorn} {
		if errors.Is(err, closed) {
			return true
		}
	}
	return false
}

// WorkerOptions tunes a worker's behavior.
type WorkerOptions struct {
	// Delay is added before serving each work request (pings are not
	// delayed) — a simulated slow node for straggler-mitigation tests
	// and experiments.
	Delay time.Duration
	// LimpOps, when positive, limits Delay to the first LimpOps work
	// requests: the worker limps and then recovers — the gray-failure
	// shape that exercises quarantine, probation, and re-admission.
	// Zero keeps Delay on every request.
	LimpOps int
}

// Worker dials the coordinator and serves work requests until a Done
// request or connection loss. Each request runs the same GPGPU DBSCAN +
// summary construction as an in-process leaf.
func Worker(coordAddr string, pid int) error {
	return WorkerWithOptions(coordAddr, pid, WorkerOptions{})
}

// WorkerWithOptions is Worker with behavior overrides.
func WorkerWithOptions(coordAddr string, pid int, opt WorkerOptions) error {
	conn, err := net.Dial("tcp", coordAddr)
	if err != nil {
		return fmt.Errorf("distrib: worker dialing coordinator: %w", err)
	}
	defer conn.Close()
	link := wire.NewLink(conn, integrity.Hooks{})
	// Tolerate one corrupt receipt more than the coordinator will
	// retransmit (initial send + maxEnvelopeRetries resends): the
	// coordinator must always exhaust its budget first and fail with
	// ErrChecksum on its side, where the dispatch layer redispatches the
	// partition — rather than this side closing the connection and turning
	// verified corruption into a generic conn loss.
	link.Tolerate = maxEnvelopeRetries + 1
	if err := link.Send(envData, appendHello(link.Begin(helloLen), &Hello{Pid: pid})); err != nil {
		return fmt.Errorf("distrib: worker hello: %w", err)
	}
	// One simulated device and one workspace for the connection's
	// lifetime: a worker serves many partitions back-to-back, and the
	// device buffer pool plus host scratch amortize across all of them
	// exactly as on a cluster-phase leaf.
	var scratch workerScratch
	served := 0
	for {
		_, p, err := link.Recv(envData)
		if err != nil {
			return fmt.Errorf("distrib: worker receiving: %w", err)
		}
		begin := time.Now()
		req, slab, err := decodeRequestInto(p, scratch.slab)
		scratch.slab = slab
		if err != nil {
			return fmt.Errorf("distrib: worker receiving: %w", err)
		}
		if req.Done {
			return nil
		}
		var resp *WorkResponse
		if req.Ping {
			resp = &WorkResponse{Leaf: req.Leaf, Ping: true}
		} else {
			decodeNS := time.Since(begin).Nanoseconds()
			if opt.Delay > 0 && (opt.LimpOps == 0 || served < opt.LimpOps) {
				time.Sleep(opt.Delay)
			}
			served++
			resp = serve(req, slab[:len(req.Owned)+len(req.Shadow)], &scratch)
			resp.DecodeNS = decodeNS
		}
		resp.TraceID = req.TraceID
		if err := link.Send(envData, appendResponse(link.Begin(resp.BinarySize()), resp)); err != nil {
			return fmt.Errorf("distrib: worker replying: %w", err)
		}
	}
}

// workerScratch is the state a worker process reuses across the
// partitions it serves: its simulated device (with buffer pool), the
// gdbscan host workspace, the summary sort buffers and the slab every
// request's owned + shadow records decode into. Nothing in a reply points
// into the slab: the labels are gdbscan's own and the summaries copy
// their points.
type workerScratch struct {
	dev  *gpusim.Device
	ws   gdbscan.Workspace
	sum  merge.Scratch
	slab []geom.Point
}

// serve executes one partition, exactly like a cluster-phase leaf;
// combined is req.Owned followed by req.Shadow in one slice.
func serve(req *WorkRequest, combined []geom.Point, scratch *workerScratch) *WorkResponse {
	resp := &WorkResponse{Leaf: req.Leaf}
	if scratch.dev == nil {
		scratch.dev = gpusim.New(gpusim.K20(), nil)
	}
	begin := time.Now()
	res, err := gdbscan.Cluster(scratch.dev, combined, gdbscan.Options{
		Params:    geom.Params{Eps: req.Eps, MinPts: req.MinPts},
		DenseBox:  req.DenseBox,
		Workspace: &scratch.ws,
	})
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.ClusterNS = time.Since(begin).Nanoseconds()
	begin = time.Now()
	sums, err := scratch.sum.BuildSummaries(grid.New(req.Eps), req.Leaf, combined, len(req.Owned), res.Labels, res.Core, res.NumClusters)
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.SummariseNS = time.Since(begin).Nanoseconds()
	resp.Summaries = sums
	resp.Labels = res.Labels[:len(req.Owned)]
	resp.NumClusters = res.NumClusters
	return resp
}

// RetryPolicy governs re-dispatch of partitions after worker failures:
// a partition whose worker dies is re-queued to a surviving worker after
// an exponential backoff with jitter. The zero value gets defaults from
// withDefaults. Re-execution is safe because DBSCAN partitions are
// deterministic and side-effect-free.
type RetryPolicy struct {
	// MaxAttempts bounds how many workers one partition may be sent to
	// before the run fails (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the first re-dispatch (default
	// 5ms); each further attempt doubles it.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 250ms).
	MaxDelay time.Duration
	// MaxElapsed caps how long one worker may keep failing exchanges
	// with verified payload corruption (default 2s). Corruption
	// redispatches do not consume MaxAttempts — re-execution is free and
	// no bad data was trusted — so this is the bound that removes a
	// persistently-corrupting worker from the pool, exactly as a crashed
	// one would be. The clock starts at a worker's first corrupt
	// exchange and resets on its next clean one.
	MaxElapsed time.Duration
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 3
	}
	if r.BaseDelay <= 0 {
		r.BaseDelay = 5 * time.Millisecond
	}
	if r.MaxDelay <= 0 {
		r.MaxDelay = 250 * time.Millisecond
	}
	if r.MaxElapsed <= 0 {
		r.MaxElapsed = 2 * time.Second
	}
	return r
}

// backoff returns the delay before re-dispatch attempt `attempt`
// (1-based), exponential with up to 50% additive jitter.
func (r RetryPolicy) backoff(attempt int) time.Duration {
	d := r.BaseDelay
	for i := 1; i < attempt && d < r.MaxDelay; i++ {
		d *= 2
	}
	if d > r.MaxDelay {
		d = r.MaxDelay
	}
	return d + time.Duration(rand.Int63n(int64(d)/2+1))
}

// Stats counts fault-tolerance events on the coordinator. It is a
// read-side view over the coordinator's telemetry counters (see
// SetTelemetry) — the registry is the single source of truth, so the
// same numbers appear in the Prometheus exposition and the JSON run
// report of the distributed CLIs.
type Stats struct {
	// Reassigned counts partitions re-queued after a worker failure.
	Reassigned int
	// WorkersLost counts workers dropped (connection errors, timeouts,
	// failed heartbeats).
	WorkersLost int
	// HedgesLaunched counts straggler partitions speculatively re-issued
	// to a second worker (StragglerFactor); HedgesWon counts hedges that
	// finished before the original attempt — each one is tail latency
	// the mitigation removed.
	HedgesLaunched int
	HedgesWon      int
	// CorruptionRedispatches counts partitions re-queued because an
	// exchange failed CRC verification past its retransmit budget.
	// These do not consume a partition's MaxAttempts; they are bounded
	// per worker by RetryPolicy.MaxElapsed.
	CorruptionRedispatches int
	// ServeOrder records the request indices in the order the last
	// finished dispatch handed them to workers (retries and hedges
	// included). The dispatch queues partitions largest first, so its head
	// is the biggest partition — the slowest-node bound (§5) made
	// observable.
	ServeOrder []int
}

// Coordinator accepts worker connections and dispatches partitions.
// Configure the exported policy fields before calling Dispatch.
type Coordinator struct {
	// Retry governs partition re-dispatch after worker failures.
	Retry RetryPolicy
	// RequestTimeout bounds each send+receive exchange with a worker;
	// an expired deadline marks the worker dead and re-queues its
	// partition. Zero disables deadlines (a hung worker then blocks the
	// run — set a timeout in production).
	RequestTimeout time.Duration
	// StragglerFactor enables hedged dispatch when > 0: a partition
	// whose in-flight time exceeds StragglerFactor × the running p95 of
	// completed service times (after a few samples exist) is
	// speculatively re-issued to an idle worker. The first result wins;
	// the loser's result is discarded on arrival, and a loser still
	// sitting in the queue is skipped. This is the classic defense
	// against the paper's observation that "the time of the cluster
	// phase is dictated by the slowest node" (§5.1.1). At most one hedge
	// is launched per partition. Values ≤ 1 are aggressive; 2–4 is
	// typical. Zero disables hedging.
	StragglerFactor float64
	// OnResponse, when set, is invoked once per partition with the
	// winning response, from the worker goroutine that received it (so
	// calls are concurrent). The distributed CLI uses it to write
	// per-partition checkpoints as results stream in.
	OnResponse func(index int, resp *WorkResponse)
	// Health, when set, scores every worker (component "worker.<idx>",
	// class "worker"): exchange latencies against the fleet p50, errors,
	// and verified corruption. A quarantined worker stops receiving
	// partitions and is instead probed with cheap pings every
	// ProbeInterval until it earns Probation; clean real work from
	// Probation re-admits it. Set Health before SetTelemetry so its
	// scores export on the run hub.
	Health *health.Tracker
	// Budget, when set, meters partition redispatches (site
	// "distrib.redispatch") — both failure requeues and corruption
	// redispatches. Exhaustion fails the dispatch loudly instead of
	// letting correlated gray faults degrade into a silent retry storm.
	Budget *health.Budget
	// ProbeInterval spaces probes to a quarantined worker (default 5ms).
	ProbeInterval time.Duration

	ln      net.Listener
	mu      sync.Mutex
	workers []*workerConn
	// acceptSeq numbers workers in accept order across AcceptWorkers
	// calls, so WorkerFaultSite indices stay unique for the
	// coordinator's lifetime.
	acceptSeq int
	plan      *faultinject.Plan
	closed    bool
	// serveOrder is the last finished dispatch's Stats.ServeOrder.
	serveOrder []int
	hub        *telemetry.Hub
	parent     *telemetry.Span
	cm         coordMetrics
}

// coordMetrics caches the coordinator's counter handles. The hub is
// installed at construction (a private one until SetTelemetry), so the
// counters are always live and Stats() reads them back.
type coordMetrics struct {
	retries           *telemetry.Counter
	workersLost       *telemetry.Counter
	hedgesLaunched    *telemetry.Counter
	hedgesWon         *telemetry.Counter
	corruptRedispatch *telemetry.Counter
	probes            *telemetry.Counter
	// stages are distrib_worker_stage_seconds{stage=…}: the worker-side
	// times every winning-or-losing real response reports.
	stages [len(workerStages)]*telemetry.Histogram
}

// workerStages is the metric's whole label set, in WorkResponse order.
var workerStages = [...]string{"decode", "cluster", "summarise"}

func resolveCoordMetrics(h *telemetry.Hub) coordMetrics {
	var stages [len(workerStages)]*telemetry.Histogram
	for i, name := range workerStages {
		stages[i] = h.Histogram("distrib_worker_stage_seconds", telemetry.DefSecondsBuckets(), "stage", name)
	}
	return coordMetrics{
		stages:            stages,
		retries:           h.Counter("distrib_retries_total"),
		workersLost:       h.Counter("distrib_workers_lost_total"),
		hedgesLaunched:    h.Counter("distrib_hedges_launched_total"),
		hedgesWon:         h.Counter("distrib_hedges_won_total"),
		corruptRedispatch: h.Counter("distrib_corrupt_redispatches_total"),
		probes:            h.Counter("distrib_probes_total"),
	}
}

// WorkerComponent names the health component for the i-th accepted
// worker, as tracked by the Health field.
func WorkerComponent(i int) string { return fmt.Sprintf("worker.%d", i) }

// SetTelemetry points the coordinator's counters, dispatch spans, and
// fault-tolerance events at a run-level hub, carrying over counts
// accumulated on the private default hub. The Health tracker and retry
// Budget (if installed) inherit the same hub.
func (c *Coordinator) SetTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	c.mu.Lock()
	old := c.cm
	c.hub = h
	c.cm = resolveCoordMetrics(h)
	c.cm.retries.Add(old.retries.Value())
	c.cm.workersLost.Add(old.workersLost.Value())
	c.cm.hedgesLaunched.Add(old.hedgesLaunched.Value())
	c.cm.hedgesWon.Add(old.hedgesWon.Value())
	c.cm.corruptRedispatch.Add(old.corruptRedispatch.Value())
	c.cm.probes.Add(old.probes.Value())
	c.mu.Unlock()
	c.Health.SetTelemetry(h)
	c.Budget.SetTelemetry(h)
}

// SetTraceParent nests the coordinator's spans and events under s.
func (c *Coordinator) SetTraceParent(s *telemetry.Span) {
	c.mu.Lock()
	c.parent = s
	c.mu.Unlock()
}

func (c *Coordinator) telemetry() (*telemetry.Hub, *telemetry.Span) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hub, c.parent
}

func (c *Coordinator) faultPlan() *faultinject.Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.plan
}

type workerConn struct {
	// mu serializes request/response exchanges, so heartbeats can
	// interleave with dispatch without corrupting the envelope stream.
	mu sync.Mutex
	// link is the connection's end of the wire: its buffers are reused by
	// every exchange (under mu).
	link *integrity.Link
	pid  int
	// idx is the worker's accept order — the index WorkerFaultSite and
	// WorkerComponent (site, comp) name. Stable across removals of other
	// workers.
	idx  int
	site faultinject.Site
	comp string
	dead atomic.Bool
	// corruptSince is the UnixNano of the worker's first corrupt
	// exchange in the current streak (0 = clean); when the streak
	// outlives RetryPolicy.MaxElapsed the worker is removed.
	corruptSince atomic.Int64
	// busySince is the UnixNano at which the worker's current real
	// dispatch item was pulled (0 = idle). Set at pull time — before the
	// exchange can block behind the connection mutex — so a limping
	// worker's in-flight time is visible to the health monitor while the
	// operation is still running.
	busySince atomic.Int64
	// slowCrossings counts how many multiples of the class slow
	// threshold the current in-flight operation has already been
	// reported at, so the monitor emits one observation per crossing.
	slowCrossings atomic.Int64
}

var errWorkerDead = fmt.Errorf("distrib: worker connection already closed")

// exchange performs one request/response round trip on the worker's
// link, bounded by timeout when positive. A round trip whose corruption
// outlasts the retransmit budget fails with integrity.ErrChecksum and
// the dispatch layer redispatches the partition.
func (c *Coordinator) exchange(w *workerConn, req *WorkRequest, timeout time.Duration) (*WorkResponse, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead.Load() {
		return nil, errWorkerDead
	}
	if timeout > 0 {
		if err := w.link.Conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
		defer w.link.Conn.SetDeadline(time.Time{})
	}
	if err := w.link.Send(envData, appendRequest(w.link.Begin(req.wireSize()), req)); err != nil {
		return nil, err
	}
	_, p, err := w.link.Recv(envData)
	if err != nil {
		return nil, err
	}
	resp, err := decodeResponse(p)
	if err == nil && resp.TraceID != req.TraceID {
		err = fmt.Errorf("distrib: worker %d answered trace %d with trace %d", w.pid, req.TraceID, resp.TraceID)
	}
	return resp, err
}

// linkHooks is the coordinator's side of a worker link: fault injection
// flips wire bits send-side at distrib.request and at site, the worker's
// own (the request the worker receives; at most one site per write, so
// injections and detections stay one-to-one) and receive-side at
// distrib.response (the response as it crossed the wire). The worker
// keeps no ledger, so every CRC failure is booked here on the shared
// integrity counters, labeled by injection site: the worker's when its
// NACK arrives, and with our own the retransmit it asks for.
func (c *Coordinator) linkHooks(site faultinject.Site) integrity.Hooks {
	detected := func(site faultinject.Site, healed bool) {
		hub, parent := c.telemetry()
		hub.Counter(integrity.MetricDetected, "site", string(site)).Inc()
		hub.Event(parent, "integrity.corruption.detected",
			telemetry.String("site", string(site)), telemetry.Bool("healed", healed))
	}
	retransmit := func() {
		hub, _ := c.telemetry()
		hub.Counter("distrib_envelope_retransmits_total").Inc()
	}
	return integrity.Hooks{
		OnSend: func(n int) (*faultinject.Corruption, error) {
			plan := c.faultPlan()
			for _, s := range [...]faultinject.Site{faultinject.DistribRequest, site} {
				if cr := plan.CorruptCheck(s, int64(n)); cr != nil {
					return cr, nil
				}
			}
			return nil, nil
		},
		OnRecv: func(n int) *faultinject.Corruption {
			return c.faultPlan().CorruptCheck(faultinject.DistribResponse, int64(n))
		},
		Detected: func(healed bool) {
			detected(faultinject.DistribResponse, healed)
			if healed {
				retransmit()
			}
		},
		Rejected:   detected,
		Retransmit: retransmit,
		Masked: func(site faultinject.Site) {
			hub, _ := c.telemetry()
			hub.Counter(integrity.MetricMasked, "site", string(site)).Inc()
		},
	}
}

// recordStages observes a response's worker-side stage times and, when a
// trace parent is set, lays them end to end from the exchange's start as
// child spans of the dispatch span (the worker's clock never crosses the
// wire, only its durations). Nil handles and a nil hub record nothing.
func (cm *coordMetrics) recordStages(hub *telemetry.Hub, traced bool, dsp *telemetry.Span, begin time.Time, resp *WorkResponse) {
	for i, ns := range [...]int64{resp.DecodeNS, resp.ClusterNS, resp.SummariseNS} {
		d := time.Duration(ns)
		cm.stages[i].Observe(d.Seconds())
		if traced {
			hub.RecordWall(dsp, "distrib.worker."+workerStages[i], begin, d, telemetry.Int("leaf", resp.Leaf))
		}
		begin = begin.Add(d)
	}
}

// NewCoordinator listens for workers on a loopback port.
func NewCoordinator() (*Coordinator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("distrib: coordinator listen: %w", err)
	}
	c := &Coordinator{ln: ln, hub: telemetry.New(nil)}
	c.cm = resolveCoordMetrics(c.hub)
	return c, nil
}

// Addr returns the address workers must dial.
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// SetFaultPlan installs the fault plan consulted before every worker
// exchange: the distrib.conn site fires for any worker, and the
// per-worker sites returned by WorkerFaultSite target one worker
// deterministically. A firing rule severs the connection, exactly as a
// crashed worker node would.
func (c *Coordinator) SetFaultPlan(p *faultinject.Plan) {
	c.mu.Lock()
	c.plan = p
	c.mu.Unlock()
}

// WorkerFaultSite returns the fault site consulted before each exchange
// with the i-th connected worker (accept order), for targeted
// kill-a-worker tests. A corrupt rule armed on the same site flips a
// wire bit of only that worker's requests, for targeted
// persistent-corrupter tests.
func WorkerFaultSite(i int) faultinject.Site {
	return faultinject.Site(fmt.Sprintf("distrib.worker.%d", i))
}

// Stats returns fault-tolerance counters, read back from the telemetry
// registry.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Reassigned:             int(c.cm.retries.Value()),
		WorkersLost:            int(c.cm.workersLost.Value()),
		HedgesLaunched:         int(c.cm.hedgesLaunched.Value()),
		HedgesWon:              int(c.cm.hedgesWon.Value()),
		CorruptionRedispatches: int(c.cm.corruptRedispatch.Value()),
		ServeOrder:             c.serveOrder,
	}
}

// AcceptWorkers blocks until n workers have dialed in and identified
// themselves. A positive timeout bounds the whole accept loop — workers
// that fail to launch must not hang the coordinator forever.
func (c *Coordinator) AcceptWorkers(n int, timeout time.Duration) error {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if tl, ok := c.ln.(*net.TCPListener); ok {
		tl.SetDeadline(deadline) // zero time clears any prior deadline
		defer tl.SetDeadline(time.Time{})
	}
	for i := 0; i < n; i++ {
		conn, err := c.ln.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				return fmt.Errorf("distrib: timed out after %v waiting for worker %d of %d: %w", timeout, i+1, n, err)
			}
			return fmt.Errorf("distrib: accepting worker %d: %w", i, err)
		}
		c.mu.Lock()
		seq := c.acceptSeq
		c.acceptSeq++
		c.mu.Unlock()
		w := &workerConn{link: wire.NewLink(conn, integrity.Hooks{}), idx: seq, site: WorkerFaultSite(seq), comp: WorkerComponent(seq)}
		if !deadline.IsZero() {
			conn.SetReadDeadline(deadline)
		}
		// The hello rides the same checksummed frame as every other
		// message, so a peer from another protocol revision (or plain
		// garbage on the port) is rejected here with a ProtocolError
		// naming the mismatched field, not deep inside a dispatch.
		_, p, err := w.link.Recv(envData)
		var hello Hello
		if err == nil {
			hello, err = decodeHello(p)
		}
		if err != nil {
			conn.Close()
			return fmt.Errorf("distrib: worker %d hello: %w", i, err)
		}
		conn.SetReadDeadline(time.Time{})
		w.pid = hello.Pid
		w.link.Hooks = c.linkHooks(w.site) // injection starts with the first request
		c.mu.Lock()
		c.workers = append(c.workers, w)
		c.mu.Unlock()
	}
	return nil
}

// NumWorkers returns the number of connected workers.
func (c *Coordinator) NumWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.workers)
}

// removeWorker drops a dead worker: the connection is closed promptly so
// neither end keeps encoding into a wedged stream, and the worker no
// longer receives dispatches.
func (c *Coordinator) removeWorker(w *workerConn) {
	if w.dead.Swap(true) {
		return
	}
	w.link.Conn.Close()
	c.mu.Lock()
	c.workers = slices.DeleteFunc(c.workers, func(o *workerConn) bool { return o == w })
	hub, parent, cm := c.hub, c.parent, c.cm
	c.mu.Unlock()
	hub.Event(parent, "distrib.worker_lost", telemetry.Int("pid", w.pid))
	cm.workersLost.Inc()
}

// Heartbeat pings every connected worker in parallel (bounded by
// timeout, default 2s) and drops the ones that fail to acknowledge.
// It returns the number of surviving workers. Call it between
// dispatches to evict workers that died while idle; during a dispatch,
// per-request deadlines perform the same detection inline.
func (c *Coordinator) Heartbeat(timeout time.Duration) int {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	c.mu.Lock()
	workers := append([]*workerConn(nil), c.workers...)
	plan := c.plan
	hub, parent := c.hub, c.parent
	c.mu.Unlock()
	sp := hub.Start(parent, "distrib.heartbeat", telemetry.Int("workers", len(workers)))
	defer sp.End()
	var wg sync.WaitGroup
	for _, w := range workers {
		wg.Add(1)
		go func(w *workerConn) {
			defer wg.Done()
			if err := checkConnFault(plan, w); err != nil {
				c.removeWorker(w)
				return
			}
			resp, err := c.exchange(w, &WorkRequest{Ping: true}, timeout)
			if err != nil || !resp.Ping {
				c.removeWorker(w)
			}
		}(w)
	}
	wg.Wait()
	return c.NumWorkers()
}

// checkConnFault consults the generic and per-worker connection fault
// sites.
func checkConnFault(plan *faultinject.Plan, w *workerConn) error {
	if err := plan.Check(faultinject.DistribConn); err != nil {
		return err
	}
	return plan.Check(w.site)
}

// Shutdown tells every worker to exit and closes the listener. It is
// idempotent: repeated calls (or a Shutdown racing a failure path) are
// no-ops.
func (c *Coordinator) Shutdown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	workers := c.workers
	c.workers = nil
	c.mu.Unlock()
	// Worker mutexes are taken without c.mu held: exchange nests
	// c.mu inside w.mu (for plan and telemetry reads), so holding
	// c.mu here would deadlock against any in-flight exchange — a
	// probe of a quarantined worker, a hedge, or a late original.
	for _, w := range workers {
		w.mu.Lock()
		// Best effort: the close below ends the worker too. A goodbye is
		// not an exchange — nobody will answer it — so no fault rule may fire.
		_ = w.link.SendClean(envData, appendRequest(w.link.Begin(requestHdr), &WorkRequest{Done: true}))
		w.link.Conn.Close()
		w.mu.Unlock()
		w.dead.Store(true)
	}
	c.ln.Close()
}
