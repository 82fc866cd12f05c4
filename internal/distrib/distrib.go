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
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/dbscan"
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
	// lastSent backs the NACK protocol: whenever the coordinator's CRC
	// rejects our last envelope, recvVerified resends these bytes.
	lastSent := sealEnvelope(appendHello(newEnvelope(nil, helloLen), &Hello{Pid: pid}), envData)
	var recvBuf []byte
	if _, err := conn.Write(lastSent); err != nil {
		return fmt.Errorf("distrib: worker hello: %w", err)
	}
	// One simulated device and one workspace for the connection's
	// lifetime: a worker serves many partitions back-to-back, and the
	// device buffer pool plus host scratch amortize across all of them
	// exactly as on a cluster-phase leaf.
	var scratch workerScratch
	served := 0
	for {
		p, err := recvVerified(conn, &lastSent, &recvBuf)
		if err != nil {
			return fmt.Errorf("distrib: worker receiving: %w", err)
		}
		begin := time.Now()
		req, err := decodeRequest(p)
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
			resp = serve(req, &scratch)
			resp.DecodeNS = decodeNS
		}
		resp.TraceID = req.TraceID
		lastSent = sealEnvelope(appendResponse(newEnvelope(lastSent, resp.wireSize()), resp), envData)
		if _, err := conn.Write(lastSent); err != nil {
			return fmt.Errorf("distrib: worker replying: %w", err)
		}
	}
}

// workerScratch is the state a worker process reuses across the
// partitions it serves: its simulated device (with buffer pool) and the
// gdbscan host workspace.
type workerScratch struct {
	dev *gpusim.Device
	ws  gdbscan.Workspace
}

// serve executes one partition, exactly like a cluster-phase leaf.
func serve(req *WorkRequest, scratch *workerScratch) *WorkResponse {
	resp := &WorkResponse{Leaf: req.Leaf}
	combined := make([]geom.Point, 0, len(req.Owned)+len(req.Shadow))
	combined = append(combined, req.Owned...)
	combined = append(combined, req.Shadow...)
	if scratch.dev == nil {
		scratch.dev = gpusim.New(gpusim.K20(), nil)
	}
	begin := time.Now()
	res, err := gdbscan.Cluster(scratch.dev, combined, gdbscan.Options{
		Params:    dbscan.Params{Eps: req.Eps, MinPts: req.MinPts},
		DenseBox:  req.DenseBox,
		Workspace: &scratch.ws,
	})
	if err != nil {
		resp.Err = err.Error()
		return resp
	}
	resp.ClusterNS = time.Since(begin).Nanoseconds()
	begin = time.Now()
	sums, err := merge.BuildSummaries(grid.New(req.Eps), req.Leaf, combined, len(req.Owned), res.Labels, res.Core, res.NumClusters)
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
	// ServeOrder records the request indices in the order they were
	// handed to workers, across every dispatch of this coordinator. The
	// dispatch queues partitions largest first, so the head of each
	// dispatch's window is its biggest partition — the slowest-node
	// bound (§5) made observable.
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
	acceptSeq  int
	plan       *faultinject.Plan
	closed     bool
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

type workerConn struct {
	// mu serializes request/response exchanges, so heartbeats can
	// interleave with dispatch without corrupting the envelope stream.
	mu   sync.Mutex
	conn net.Conn
	// sendBuf and recvBuf are the last request envelope and response
	// payload, reused by the next exchange (under mu).
	sendBuf, recvBuf []byte
	pid              int
	// idx is the worker's accept order — the index WorkerFaultSite
	// targets for per-worker injection. Stable across removals of other
	// workers.
	idx  int
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

// exchange performs one request/response round trip over the
// checksummed envelope protocol, bounded by timeout when positive.
// Coordinator-side fault injection flips wire bits here: send-side at
// distrib.request and the per-worker site (the request the worker
// receives), receive-side at distrib.response (the response as it
// crossed the wire). Every CRC failure — the worker's (signalled by its
// NACK) or our own — is counted as a detection; an exchange that
// exhausts maxEnvelopeRetries fails with ErrPayloadCorrupt and the
// dispatch layer redispatches the partition.
func (c *Coordinator) exchange(w *workerConn, req *WorkRequest, timeout time.Duration) (*WorkResponse, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.dead.Load() {
		return nil, errWorkerDead
	}
	c.mu.Lock()
	plan := c.plan
	c.mu.Unlock()
	if timeout > 0 {
		if err := w.conn.SetDeadline(time.Now().Add(timeout)); err != nil {
			return nil, err
		}
		defer w.conn.SetDeadline(time.Time{})
	}
	wire := sealEnvelope(appendRequest(newEnvelope(w.sendBuf, req.wireSize()), req), envData)
	w.sendBuf = wire
	sendSites := []faultinject.Site{faultinject.DistribRequest, WorkerFaultSite(w.idx)}
	// send emits the request envelope, flipping one wire bit for the
	// write when a corrupt rule fires (at most one site per attempt, so
	// injections and detections stay one-to-one). The envelope itself
	// stays clean: a retransmit re-consults the plan rather than
	// replaying the flip.
	send := func() (injected faultinject.Site, err error) {
		var flip *byte
		var mask byte
		for _, s := range sendSites {
			if cr := plan.CorruptCheck(s, int64(len(wire)-envHdrLen)); cr != nil {
				flip, mask, injected = &wire[envHdrLen+cr.Offset], 1<<cr.Bit, s
				*flip ^= mask
				break
			}
		}
		_, err = w.conn.Write(wire)
		if flip != nil {
			*flip ^= mask
		}
		return injected, err
	}
	pending, err := send()
	if err != nil {
		return nil, err
	}
	nacks, resends := 0, 0
	for {
		kind, p, crc, err := readEnvelope(w.conn, &w.recvBuf)
		if err != nil {
			if pending != "" {
				// The flipped request died with the connection before
				// any verifier saw it: masked, not detected.
				c.corruptionMasked(pending)
			}
			return nil, err
		}
		switch kind {
		case envNack:
			// The worker's CRC caught our corrupted request.
			if pending != "" {
				c.corruptionDetected(pending, resends < maxEnvelopeRetries)
				pending = ""
			}
			resends++
			if resends > maxEnvelopeRetries {
				return nil, fmt.Errorf("distrib: worker %d rejected %d retransmits: %w", w.pid, resends, ErrPayloadCorrupt)
			}
			c.envelopeRetransmit()
			if pending, err = send(); err != nil {
				return nil, err
			}
		case envData:
			injSite := faultinject.Site("")
			if len(p) > 0 {
				if cr := plan.CorruptCheck(faultinject.DistribResponse, int64(len(p))); cr != nil {
					p[cr.Offset] ^= 1 << cr.Bit
					injSite = faultinject.DistribResponse
				}
			}
			if integrity.Checksum(p) != crc {
				if injSite == "" {
					injSite = faultinject.DistribResponse
				}
				nacks++
				healed := nacks <= maxEnvelopeRetries
				c.corruptionDetected(injSite, healed)
				if !healed {
					return nil, fmt.Errorf("distrib: worker %d: giving up after %d corrupt responses: %w", w.pid, nacks, ErrPayloadCorrupt)
				}
				c.envelopeRetransmit()
				if _, err := w.conn.Write(nackEnvelope); err != nil {
					return nil, err
				}
				continue
			}
			if pending != "" {
				// Unreachable in the current protocol (a corrupted
				// request is always NACKed first), kept so the ledger
				// cannot leak an injection.
				c.corruptionMasked(pending)
			}
			resp, err := decodeResponse(p)
			if err == nil && resp.TraceID != req.TraceID {
				err = fmt.Errorf("distrib: worker %d answered trace %d with trace %d", w.pid, req.TraceID, resp.TraceID)
			}
			return resp, err
		default:
			return nil, fmt.Errorf("distrib: unknown envelope kind %d", kind)
		}
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

// corruptionDetected counts one CRC-caught corruption on the shared
// integrity counter, labeled by injection site.
func (c *Coordinator) corruptionDetected(site faultinject.Site, healed bool) {
	hub, parent := c.telemetry()
	hub.Counter(integrity.MetricDetected, "site", string(site)).Inc()
	hub.Event(parent, "integrity.corruption.detected",
		telemetry.String("site", string(site)), telemetry.Bool("healed", healed))
}

// corruptionMasked counts an injected flip that no verifier ever saw
// (the connection died first).
func (c *Coordinator) corruptionMasked(site faultinject.Site) {
	hub, _ := c.telemetry()
	hub.Counter(integrity.MetricMasked, "site", string(site)).Inc()
}

func (c *Coordinator) envelopeRetransmit() {
	hub, _ := c.telemetry()
	hub.Counter("distrib_envelope_retransmits_total").Inc()
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
		ServeOrder:             append([]int(nil), c.serveOrder...),
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
		w := &workerConn{conn: conn, idx: seq}
		if !deadline.IsZero() {
			conn.SetReadDeadline(deadline)
		}
		// The hello rides the same checksummed envelope as every other
		// message, so a peer from another protocol revision (or plain
		// garbage on the port) is rejected here with a ProtocolError
		// naming the mismatched field, not deep inside a dispatch.
		kind, p, crc, err := readEnvelope(conn, &w.recvBuf)
		if err != nil {
			conn.Close()
			return fmt.Errorf("distrib: worker %d hello: %w", i, err)
		}
		if kind != envData || integrity.Checksum(p) != crc {
			conn.Close()
			return fmt.Errorf("distrib: worker %d hello: %w", i, ErrPayloadCorrupt)
		}
		hello, err := decodeHello(p)
		if err != nil {
			conn.Close()
			return fmt.Errorf("distrib: worker %d hello: %w", i, err)
		}
		conn.SetReadDeadline(time.Time{})
		w.pid = hello.Pid
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
	w.conn.Close()
	c.mu.Lock()
	for i, o := range c.workers {
		if o == w {
			c.workers = append(c.workers[:i], c.workers[i+1:]...)
			break
		}
	}
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
			if err := checkConnFault(plan, w.idx); err != nil {
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
func checkConnFault(plan *faultinject.Plan, wi int) error {
	if err := plan.Check(faultinject.DistribConn); err != nil {
		return err
	}
	return plan.Check(WorkerFaultSite(wi))
}

// workItem is one queue entry: a request index, possibly a hedge copy.
type workItem struct {
	ri    int
	hedge bool
}

// quantile returns the q-quantile (0..1) of d (nearest-rank on a sorted
// copy). Callers guarantee len(d) > 0.
func quantile(d []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := int(q * float64(len(s)-1))
	return s[idx]
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
	c.mu.Lock()
	workers := append([]*workerConn(nil), c.workers...)
	plan := c.plan
	hub, parent, cm := c.hub, c.parent, c.cm
	c.mu.Unlock()
	retry := c.Retry.withDefaults()
	timeout := c.RequestTimeout
	tracker, budget := c.Health, c.Budget
	probeInterval := c.ProbeInterval
	if probeInterval <= 0 {
		probeInterval = 5 * time.Millisecond
	}
	if len(workers) == 0 {
		return nil, fmt.Errorf("distrib: no workers connected")
	}
	if len(reqs) == 0 {
		return nil, nil
	}
	dsp := hub.Start(parent, "distrib.dispatch",
		telemetry.Int("partitions", len(reqs)), telemetry.Int("workers", len(workers)))
	defer dsp.End()
	for i := range reqs { // before any worker goroutine reads them
		if reqs[i].TraceID == 0 {
			reqs[i].TraceID = uint64(dsp.ID())
		}
	}

	responses := make([]*WorkResponse, len(reqs))
	// Sized for the worst case — every attempt plus one hedge per index
	// — so queue sends never block.
	queue := make(chan workItem, len(reqs)*(retry.MaxAttempts+1))
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
		queue <- workItem{ri: i}
	}
	attempts := make([]int, len(reqs)) // guarded by hmu

	var (
		pending  atomic.Int64
		alive    atomic.Int64
		allDone  = make(chan struct{})
		abort    = make(chan struct{})
		failOnce sync.Once
		failMu   sync.Mutex
		failErr  error

		// Per-index dispatch state and the service-time samples feeding
		// the straggler monitor.
		hmu       sync.Mutex
		done      = make([]bool, len(reqs))
		inflight  = make([]int, len(reqs))
		started   = make([]time.Time, len(reqs))
		hedged    = make([]bool, len(reqs))
		durations []time.Duration
	)
	pending.Store(int64(len(reqs)))
	alive.Store(int64(len(workers)))
	fail := func(err error) {
		failMu.Lock()
		if failErr == nil {
			failErr = err
		}
		failMu.Unlock()
		failOnce.Do(func() { close(abort) })
	}
	// requeue hands a failed partition back to the pool after a backoff,
	// or aborts the run when the partition is out of attempts or the
	// retry budget denies the redispatch.
	requeue := func(ri int, cause error) {
		hmu.Lock()
		attempts[ri]++
		out := attempts[ri] >= retry.MaxAttempts
		n := attempts[ri]
		hmu.Unlock()
		if out {
			fail(fmt.Errorf("distrib: leaf %d failed on %d workers, giving up: %w",
				reqs[ri].Leaf, n, cause))
			return
		}
		if !budget.Take("distrib.redispatch") {
			fail(fmt.Errorf("distrib: leaf %d redispatch after %w: %w",
				reqs[ri].Leaf, cause, health.ErrBudgetExhausted))
			return
		}
		cm.retries.Inc()
		hub.Event(dsp, "distrib.retry",
			telemetry.Int("leaf", reqs[ri].Leaf), telemetry.Int("attempt", n))
		delay := retry.backoff(n)
		go func() {
			time.Sleep(delay)
			queue <- workItem{ri: ri}
		}()
	}

	// Cancellation watcher: a dead context must unblock exchanges that
	// are mid-Decode, so it severs every connection.
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				fail(fmt.Errorf("distrib: dispatch aborted: %w", ctx.Err()))
				for _, w := range workers {
					c.removeWorker(w)
				}
			case <-allDone:
			case <-abort:
			}
		}()
	}

	// Straggler monitor: hedge any partition whose single in-flight
	// attempt has outlived StragglerFactor × the running p95.
	if c.StragglerFactor > 0 {
		go func() {
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-allDone:
					return
				case <-abort:
					return
				case <-tick.C:
				}
				hmu.Lock()
				if len(durations) < stragglerMinSamples {
					hmu.Unlock()
					continue
				}
				p95 := quantile(durations, 0.95)
				threshold := time.Duration(float64(p95) * c.StragglerFactor)
				var launched int
				for ri := range reqs {
					if done[ri] || hedged[ri] || inflight[ri] != 1 {
						continue
					}
					if time.Since(started[ri]) <= threshold {
						continue
					}
					hedged[ri] = true
					launched++
					queue <- workItem{ri: ri, hedge: true}
					hub.Event(dsp, "distrib.hedge", telemetry.Int("leaf", reqs[ri].Leaf))
				}
				hmu.Unlock()
				if launched > 0 {
					cm.hedgesLaunched.Add(int64(launched))
				}
			}
		}()
	}

	// Health monitor: while a worker's real dispatch item is in flight,
	// emit one observation per crossing of the class slow threshold, so
	// a limping worker accumulates evidence before its operation
	// completes (or its hedge wins).
	if tracker != nil {
		go func() {
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-allDone:
					return
				case <-abort:
					return
				case <-tick.C:
				}
				thr := tracker.SlowThreshold("worker")
				if thr <= 0 {
					continue
				}
				c.mu.Lock()
				live := append([]*workerConn(nil), c.workers...)
				c.mu.Unlock()
				for _, w := range live {
					b := w.busySince.Load()
					if b == 0 {
						continue
					}
					elapsed := time.Since(time.Unix(0, b))
					k := w.slowCrossings.Load()
					if elapsed > time.Duration(k+1)*thr {
						w.slowCrossings.Add(1)
						tracker.ObserveInFlight(WorkerComponent(w.idx), elapsed)
					}
				}
			}
		}()
	}

	// probe pings a quarantined worker so it can earn Probation; a probe
	// that errors removes the worker like any failed exchange. Returns
	// false when the dispatch (or the worker) is finished.
	probe := func(w *workerConn) bool {
		comp := WorkerComponent(w.idx)
		begin := time.Now()
		resp, err := c.exchange(w, &WorkRequest{Ping: true}, timeout)
		ok := err == nil && resp.Ping
		tracker.ObserveProbe(comp, time.Since(begin), ok)
		cm.probes.Inc()
		hub.Event(dsp, "distrib.probe",
			telemetry.Int("worker", w.idx), telemetry.Bool("ok", ok))
		if err != nil {
			c.removeWorker(w)
			if alive.Add(-1) == 0 {
				fail(fmt.Errorf("distrib: no surviving workers: %w", err))
			}
			return false
		}
		select {
		case <-abort:
			return false
		case <-allDone:
			return false
		case <-time.After(probeInterval):
			return true
		}
	}

	for _, w := range workers {
		go func(w *workerConn) {
			comp := WorkerComponent(w.idx)
			for {
				// A quarantined worker takes no partitions: it is probed
				// until it earns Probation (or the dispatch ends).
				for tracker.Quarantined(comp) {
					if !probe(w) {
						return
					}
				}
				var it workItem
				select {
				case <-abort:
					return
				case <-allDone:
					return
				case it = <-queue:
				}
				ri := it.ri
				hmu.Lock()
				if done[ri] {
					hmu.Unlock()
					continue // hedge or requeue that already lost
				}
				inflight[ri]++
				if inflight[ri] == 1 {
					started[ri] = time.Now()
				}
				hmu.Unlock()
				c.mu.Lock()
				c.serveOrder = append(c.serveOrder, ri)
				c.mu.Unlock()
				if err := checkConnFault(plan, w.idx); err != nil {
					// Injected connection fault: sever exactly as a
					// crashed worker node would.
					c.removeWorker(w)
					hmu.Lock()
					inflight[ri]--
					covered := done[ri] || inflight[ri] > 0
					hmu.Unlock()
					if !covered {
						requeue(ri, err)
					}
					if alive.Add(-1) == 0 {
						fail(fmt.Errorf("distrib: leaf %d: no surviving workers: %w", reqs[ri].Leaf, err))
					}
					return
				}
				begin := time.Now()
				w.busySince.Store(begin.UnixNano())
				w.slowCrossings.Store(0)
				resp, err := c.exchange(w, &reqs[ri], timeout)
				w.busySince.Store(0)
				if errors.Is(err, ErrPayloadCorrupt) && ctx.Err() == nil {
					// Verified corruption: the exchange failed CRC past
					// its retransmit budget, so nothing was trusted and
					// re-execution is free. Redispatch after a backoff
					// WITHOUT consuming the partition's MaxAttempts; a
					// worker whose corruption streak outlives
					// Retry.MaxElapsed is removed like a crashed node.
					now := time.Now()
					first := w.corruptSince.Load()
					if first == 0 {
						first = now.UnixNano()
						w.corruptSince.Store(first)
					}
					tracker.ObserveCorruption(comp)
					hmu.Lock()
					inflight[ri]--
					covered := done[ri] || inflight[ri] > 0
					hmu.Unlock()
					cm.corruptRedispatch.Inc()
					hub.Event(dsp, "distrib.corrupt_redispatch",
						telemetry.Int("leaf", reqs[ri].Leaf), telemetry.Int("worker", w.idx))
					if !covered {
						if !budget.Take("distrib.redispatch") {
							fail(fmt.Errorf("distrib: leaf %d redispatch after %w: %w",
								reqs[ri].Leaf, err, health.ErrBudgetExhausted))
							return
						}
						delay := retry.backoff(1)
						go func() {
							time.Sleep(delay)
							queue <- workItem{ri: ri}
						}()
					}
					if now.Sub(time.Unix(0, first)) > retry.MaxElapsed {
						c.removeWorker(w)
						hub.Event(dsp, "distrib.worker_corrupt_removed", telemetry.Int("worker", w.idx))
						if alive.Add(-1) == 0 {
							fail(fmt.Errorf("distrib: leaf %d: no surviving workers: %w", reqs[ri].Leaf, err))
						}
						return
					}
					continue
				}
				if err != nil {
					c.removeWorker(w)
					tracker.ObserveError(comp)
					hmu.Lock()
					inflight[ri]--
					// Another copy in flight (or already won) covers
					// this index; re-queue only an uncovered one.
					covered := done[ri] || inflight[ri] > 0
					hmu.Unlock()
					if ctx.Err() != nil {
						return
					}
					if !covered {
						requeue(ri, err)
					}
					if alive.Add(-1) == 0 {
						fail(fmt.Errorf("distrib: leaf %d: no surviving workers: %w", reqs[ri].Leaf, err))
					}
					return
				}
				w.corruptSince.Store(0) // clean exchange ends any corruption streak
				if resp.Err != "" {
					fail(fmt.Errorf("distrib: worker %d leaf %d: %s", w.pid, resp.Leaf, resp.Err))
					return
				}
				tracker.ObserveSuccess(comp, time.Since(begin))
				cm.recordStages(hub, parent != nil, dsp, begin, resp)
				hmu.Lock()
				inflight[ri]--
				if done[ri] {
					hmu.Unlock()
					continue // lost the race: discard
				}
				done[ri] = true
				durations = append(durations, time.Since(begin))
				hmu.Unlock()
				responses[ri] = resp
				if it.hedge {
					cm.hedgesWon.Inc()
					hub.Event(dsp, "distrib.hedge_won", telemetry.Int("leaf", reqs[ri].Leaf))
				}
				if c.OnResponse != nil {
					c.OnResponse(ri, resp)
				}
				if pending.Add(-1) == 0 {
					close(allDone)
					return
				}
			}
		}(w)
	}
	select {
	case <-allDone:
		return responses, nil
	case <-abort:
		failMu.Lock()
		err := failErr
		failMu.Unlock()
		return nil, err
	}
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
		// Best effort: the close below ends the worker too.
		_, _ = w.conn.Write(sealEnvelope(appendRequest(newEnvelope(nil, requestHdr), &WorkRequest{Done: true}), envData))
		w.conn.Close()
		w.mu.Unlock()
		w.dead.Store(true)
	}
	c.ln.Close()
}
