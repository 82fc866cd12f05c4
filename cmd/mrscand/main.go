// Command mrscand serves the Mr. Scan pipeline as a long-running,
// overload-robust clustering service. Tenants POST jobs to the HTTP
// API; the server applies admission control (bounded per-tenant queues,
// point quotas, circuit breakers), schedules jobs across a worker pool
// with per-job deadlines and phase retries, runs every admitted job at
// full quality, and drains on SIGTERM — admission stops, in-flight jobs
// get the drain deadline to finish, and whatever remains is checkpointed
// to the state directory for the next instance to resume. Progress lines
// go to stdout, errors to stderr.
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
	"io"
	"log"
	"net"
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
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// options is a parsed command line: the listen address and the server's
// configuration.
type options struct {
	addr string
	cfg  server.Config
}

// run is the command behind main: it parses args, starts the server,
// serves HTTP until stop delivers a signal, then drains. It returns the
// exit status — 2 for a bad command line, 1 for a server that cannot
// start or a listener that fails.
func run(args []string, stdout, stderr io.Writer, stop <-chan os.Signal) int {
	o, err := parseFlags(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	logger := log.New(stdout, "", log.LstdFlags)
	s, err := server.New(o.cfg)
	if err != nil {
		fmt.Fprintf(stderr, "mrscand: %v\n", err)
		return 1
	}
	if n := len(s.Jobs()); n > 0 {
		logger.Printf("mrscand: recovered %d journaled job(s) from %s", n, o.cfg.StateDir)
	}
	if n := len(s.Streams()); n > 0 {
		logger.Printf("mrscand: recovered %d stream(s) with windows intact from %s", n, o.cfg.StateDir)
	}
	if torn := s.Hub().Counter("server_journal_torn_tail_total").Value(); torn > 0 {
		logger.Printf("mrscand: repaired a torn journal tail (crash mid-append) in %s", o.cfg.StateDir)
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		s.Close()
		fmt.Fprintf(stderr, "mrscand: %v\n", err)
		return 1
	}
	httpSrv := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: readHeaderTimeout, ReadTimeout: readTimeout,
		IdleTimeout: idleTimeout, MaxHeaderBytes: maxHeaderBytes,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	logger.Printf("mrscand: serving on %s (workers=%d, state-dir=%q)", ln.Addr(), o.cfg.Workers, o.cfg.StateDir)

	select {
	case sig := <-stop:
		logger.Printf("mrscand: %v: draining (grace %v)", sig, o.cfg.DrainTimeout)
	case err := <-errc:
		s.Close()
		fmt.Fprintf(stderr, "mrscand: http: %v\n", err)
		return 1
	}
	drain(logger, s, httpSrv, o.cfg.StateDir)
	return 0
}

// parseFlags reads the command line into options. Every error it returns
// has already been reported on stderr.
func parseFlags(args []string, stderr io.Writer) (*options, error) {
	flags := flag.NewFlagSet("mrscand", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		addr         = flags.String("addr", ":8080", "HTTP listen address")
		workers      = flags.Int("workers", 2, "concurrent pipeline executors")
		queueTenant  = flags.Int("queue-per-tenant", 16, "queued-job bound per tenant")
		queueTotal   = flags.Int("queue-total", 0, "queued-job bound across tenants (0 = 4x per-tenant)")
		quota        = flags.Int64("tenant-quota", 4<<20, "queued+running input-point quota per tenant (<0 disables)")
		jobTimeout   = flags.Duration("job-timeout", 5*time.Minute, "per-job deadline")
		drainTimeout = flags.Duration("drain-timeout", 5*time.Second, "grace for in-flight jobs on SIGTERM before suspension")
		retries      = flags.Int("retries", 3, "per-phase retry attempts per job")
		breaker      = flags.Int("breaker-threshold", 3, "consecutive failures tripping a tenant breaker (<0 disables)")
		cooldown     = flags.Duration("breaker-cooldown", 5*time.Second, "how long a tripped breaker rejects admissions")
		stateDir     = flags.String("state-dir", "", "durable directory for drain/resume (empty disables)")
		streamsCap   = flags.Int("streams-per-tenant", 4, "concurrent sliding-window streams per tenant (<0 disables the cap)")
		retryBudget  = flags.Int("health-retry-budget", 0, "shared phase-retry token budget across all jobs (0 = unlimited); exhaustion fails jobs loudly instead of retrying")
		retryRefill  = flags.Float64("health-retry-refill", 1, "retry-budget tokens refilled per second")
	)
	if err := flags.Parse(args); err != nil {
		return nil, err
	}
	retry := mrscan.RetryPolicy{MaxAttempts: *retries, Backoff: 10 * time.Millisecond}
	if *retryBudget > 0 {
		retry.Budget = health.NewBudget(*retryBudget, *retryRefill)
	}
	return &options{addr: *addr, cfg: server.Config{
		Workers:          *workers,
		QueuePerTenant:   *queueTenant,
		QueueTotal:       *queueTotal,
		TenantQuota:      *quota,
		JobTimeout:       *jobTimeout,
		DrainTimeout:     *drainTimeout,
		Retry:            retry,
		BreakerThreshold: *breaker,
		BreakerCooldown:  *cooldown,
		StateDir:         *stateDir,
		StreamsPerTenant: *streamsCap,
	}}, nil
}

// drain stops admission and gives in-flight jobs the drain grace;
// whatever does not finish is suspended with its checkpoints staged to
// the state directory for the next instance. Then the listener closes.
func drain(logger *log.Logger, s *server.Server, httpSrv *http.Server, stateDir string) {
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
		logger.Printf("mrscand: drained; %d jobs suspended for resume from %q", suspended, stateDir)
	} else {
		logger.Printf("mrscand: drained clean")
	}
}
