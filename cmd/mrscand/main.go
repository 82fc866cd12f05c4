// Command mrscand serves the Mr. Scan pipeline as a long-running,
// overload-robust clustering service. Tenants POST jobs to the HTTP
// API; the server applies admission control (bounded per-tenant queues,
// point quotas, circuit breakers), schedules jobs across a worker pool
// with per-job deadlines and phase retries, sheds load gracefully by
// degrading to subsampled clustering past the overload watermarks, and
// drains on SIGTERM — admission stops, in-flight jobs get the drain
// deadline to finish, and whatever remains is checkpointed to the state
// directory for the next instance to resume.
//
// The state directory is crash-consistent, not merely restart-
// consistent: a job's spec, input, and queued record are fsynced (files
// and directories, in write-ahead order) before Submit acknowledges it,
// so an acknowledged job survives power failure, not just a graceful
// drain. On startup the previous instance's journal is replayed — a
// torn final record (crash mid-append) is repaired and counted, while
// interior journal corruption refuses startup loudly rather than
// guessing.
//
//	mrscand -addr :8080 -state-dir /var/lib/mrscand
//
//	curl -s localhost:8080/api/v1/jobs -d '{"tenant":"acme",
//	  "eps":0.1,"min_pts":20,"dataset":{"dist":"twitter","n":4000}}'
//	curl -s localhost:8080/api/v1/jobs/job-000001
//	curl -s localhost:8080/api/v1/jobs/job-000001/result
//	curl -s localhost:8080/metrics
//
// Long-lived sliding-window streams live next to the batch jobs: create
// one with POST /api/v1/streams, feed ticks of timestamped points to
// .../points, and read labels from .../clusters or .../snapshot. Stream
// windows are checkpointed to the state directory on every tick, so a
// restarted instance recovers each stream with its labels intact.
//
//	curl -s localhost:8080/api/v1/streams -d '{"tenant":"acme",
//	  "eps":0.1,"min_pts":10,"window_ticks":30}'
//	curl -s localhost:8080/api/v1/streams/stream-000001/points \
//	  -d '{"points":[{"id":1,"x":0.5,"y":0.5}]}'
//	curl -s localhost:8080/api/v1/streams/stream-000001/clusters
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/health"
	"repro/internal/mrscan"
	"repro/internal/server"
)

// Connection limits of the HTTP server, beside the per-body byte limits
// server.Handler sets itself. A body may be hundreds of megabytes (a
// tenant's whole point quota inline), so the read timeout is generous;
// the header timeout is what stops a client that never sends a request.
const (
	readHeaderTimeout = 10 * time.Second
	readTimeout       = 5 * time.Minute
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "HTTP listen address")
		workers      = flag.Int("workers", 2, "concurrent pipeline executors")
		queueTenant  = flag.Int("queue-per-tenant", 16, "queued-job bound per tenant")
		queueTotal   = flag.Int("queue-total", 0, "queued-job bound across tenants (0 = 4x per-tenant)")
		quota        = flag.Int64("tenant-quota", 4<<20, "queued+running input-point quota per tenant (<0 disables)")
		jobTimeout   = flag.Duration("job-timeout", 5*time.Minute, "per-job deadline")
		drainTimeout = flag.Duration("drain-timeout", 5*time.Second, "grace for in-flight jobs on SIGTERM before suspension")
		retries      = flag.Int("retries", 3, "per-phase retry attempts per job")
		breaker      = flag.Int("breaker-threshold", 3, "consecutive failures tripping a tenant breaker (<0 disables)")
		cooldown     = flag.Duration("breaker-cooldown", 5*time.Second, "how long a tripped breaker rejects admissions")
		degradeDepth = flag.Int("degrade-queue-depth", 0, "queue-depth watermark for degraded mode (0 = 3/4 of queue-total, <0 disables)")
		degradeP95   = flag.Duration("degrade-p95", 0, "p95 job-latency watermark for degraded mode (0 disables)")
		sampleRate   = flag.Float64("sample-rate", 0.8, "degraded-mode subsample rate in (0,1)")
		stateDir     = flag.String("state-dir", "", "durable directory for drain/resume (empty disables)")
		streamsCap   = flag.Int("streams-per-tenant", 4, "concurrent sliding-window streams per tenant (<0 disables the cap)")
		retryBudget  = flag.Int("health-retry-budget", 0, "shared phase-retry token budget across all jobs (0 = unlimited); exhaustion fails jobs loudly instead of retrying")
		retryRefill  = flag.Float64("health-retry-refill", 1, "retry-budget tokens refilled per second")
	)
	flag.Parse()

	retry := mrscan.RetryPolicy{MaxAttempts: *retries, Backoff: 10 * time.Millisecond}
	if *retryBudget > 0 {
		retry.Budget = health.NewBudget(*retryBudget, *retryRefill)
	}

	s, err := server.New(server.Config{
		Workers:           *workers,
		QueuePerTenant:    *queueTenant,
		QueueTotal:        *queueTotal,
		TenantQuota:       *quota,
		JobTimeout:        *jobTimeout,
		DrainTimeout:      *drainTimeout,
		Retry:             retry,
		BreakerThreshold:  *breaker,
		BreakerCooldown:   *cooldown,
		DegradeQueueDepth: *degradeDepth,
		DegradeP95:        *degradeP95,
		SampleRate:        *sampleRate,
		StateDir:          *stateDir,
		StreamsPerTenant:  *streamsCap,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "mrscand: %v\n", err)
		os.Exit(1)
	}
	if n := len(s.Jobs()); n > 0 {
		log.Printf("mrscand: recovered %d journaled job(s) from %s", n, *stateDir)
	}
	if n := len(s.Streams()); n > 0 {
		log.Printf("mrscand: recovered %d stream(s) with windows intact from %s", n, *stateDir)
	}
	if torn := s.Hub().Counter("server_journal_torn_tail_total").Value(); torn > 0 {
		log.Printf("mrscand: repaired a torn journal tail (crash mid-append) in %s", *stateDir)
	}

	httpSrv := &http.Server{
		Addr: *addr, Handler: s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout,
		IdleTimeout: idleTimeout, MaxHeaderBytes: maxHeaderBytes,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("mrscand: serving on %s (workers=%d, state-dir=%q)", *addr, *workers, *stateDir)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case sig := <-sigc:
		log.Printf("mrscand: %v: draining (grace %v)", sig, *drainTimeout)
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "mrscand: http: %v\n", err)
			os.Exit(1)
		}
		return
	}

	// Stop admission and give in-flight jobs the drain grace; whatever
	// does not finish is suspended with its checkpoints staged to the
	// state directory for the next instance.
	s.Drain()
	s.Close()
	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutCtx)
	suspended := 0
	for _, st := range s.Jobs() {
		if st.State == server.StateSuspended {
			suspended++
		}
	}
	if suspended > 0 {
		log.Printf("mrscand: drained; %d jobs suspended for resume from %q", suspended, *stateDir)
	} else {
		log.Printf("mrscand: drained clean")
	}
}
