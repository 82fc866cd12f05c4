// Command chaos runs the seeded end-to-end integrity harness: each seed
// generates a random fault schedule (errors, silent bit flips, node
// kills, stragglers, process death), runs the full pipeline under it,
// and audits the invariants — labels match a fault-free reference (or
// quality ≥ the floor, or a loud fail-stop), every injected corruption
// is detected/masked/latent with zero silent escapes, and the run stays
// inside its wall-time bound.
//
//	chaos -seeds 20                 # seeds 1..20
//	chaos -seeds 5 -seed-base 100   # seeds 100..104
//	chaos -seeds 20 -out report.json
//
// With -mode overload it instead storms the job server: multi-tenant
// bursts past queue capacity with seeded faults, a mid-campaign drain
// and restart on the same state directory, and the serving-contract
// audit — typed rejections only, zero silent drops, quality floors met.
//
//	chaos -mode overload -seeds 10
//
// With -mode crash it simulates power failure instead of runtime
// faults: a probe run enumerates every durability-relevant file-system
// operation, then each sampled operation becomes a crash point — power
// is lost exactly there, unsynced writes drop and tear, unsynced
// renames vanish — and the restarted process must lose nothing it
// acknowledged: checkpointed phases restore instead of recomputing,
// journaled jobs are re-admitted and terminate, recovery is idempotent
// under a second crash, and the final labels equal the fault-free
// reference exactly. The -drop-syncs / -drop-dir-syncs mutation flags
// turn chosen fsyncs into lies; a correct harness must then FAIL.
//
//	chaos -mode crash -seeds 10 -crash-points 20
//	chaos -mode crash -seeds 2 -drop-syncs '*.ckpt*'   # must FAIL
//
// With -mode stream it audits the sliding-window streaming engine: a
// seeded firehose is fed through the server with a drain/restart in the
// middle and, later, a power cut inside a tick's save (snapshot
// published, manifest not yet committed); invalid batches are injected
// along the way, and after every tick and every recovery the served
// labels must exactly equal a fault-free reference engine fed the same
// sequence.
//
//	chaos -mode stream -seeds 10
//
// With -mode gray it injects gray failures — faults that pass every
// liveness check: a 20x-slow worker, a flapping tree link, a degraded
// OST, transient phase errors under an exhausted retry budget — and
// audits the adaptive health layer: sick components quarantined within
// -gray-quarantine-dispatches dispatches with zero false quarantines,
// labels byte-identical to a fault-free reference, retry spend inside
// the shared token budget, and wall time within -gray-wall-factor of
// the healthy baseline.
//
//	chaos -mode gray -seeds 5
//	chaos -mode gray -seeds 5 -gray-workers 8 -gray-slow-factor 20
//
// Exit status is nonzero if any run FAILs (loud fail-stop runs are
// acceptable; silent corruption, bad labels, or dropped jobs are not).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/chaos"
)

func main() {
	var (
		mode     = flag.String("mode", "pipeline", "campaign kind: pipeline | overload | crash | stream")
		seeds    = flag.Int("seeds", 20, "number of seeded schedules to run")
		seedBase = flag.Int64("seed-base", 1, "first seed")
		points   = flag.Int("points", 0, "dataset points per run (0 = mode default)")
		leaves   = flag.Int("leaves", 0, "cluster-phase leaves (0 = mode default)")
		rate     = flag.Float64("fault-rate", 0, "fault schedule intensity in (0,1] (0 = mode default)")
		duration = flag.Duration("duration", 2*time.Minute, "wall-time bound per run")
		floor    = flag.Float64("quality-floor", 0, "minimum DBDC quality vs the fault-free reference (0 = mode default)")
		tenants  = flag.Int("tenants", 0, "overload mode: concurrent tenants (0 = default)")
		jobs     = flag.Int("jobs-per-tenant", 0, "overload mode: burst size per tenant (0 = default)")
		out      = flag.String("out", "", "write the JSON campaign report to this file")

		crashPoints  = flag.Int("crash-points", 0, "crash mode: pipeline crash points per seed (0 = default, <0 disables the leg)")
		journalPts   = flag.Int("journal-crash-points", 0, "crash mode: job-journal crash points per seed (0 = default, <0 disables the leg)")
		journalJobs  = flag.Int("journal-jobs", 0, "crash mode: submit burst size of the journal workload (0 = default)")
		dropSyncs    = flag.String("drop-syncs", "", "crash mode mutation: file fsyncs matching this pattern silently lie (campaign must FAIL)")
		dropDirSyncs = flag.Bool("drop-dir-syncs", false, "crash mode mutation: every directory sync silently lies (campaign must FAIL)")

		ticks   = flag.Int("ticks", 0, "stream mode: firehose length in ticks (0 = default)")
		perTick = flag.Int("per-tick", 0, "stream mode: points per tick (0 = default)")
		window  = flag.Int("window-ticks", 0, "stream mode: sliding window in ticks (0 = default)")

		grayWorkers    = flag.Int("gray-workers", 0, "gray mode: dispatch fleet size (0 = default 8)")
		grayPartitions = flag.Int("gray-partitions", 0, "gray mode: partitions per dispatch (0 = default 72)")
		graySlow       = flag.Int("gray-slow-factor", 0, "gray mode: slowdown of the limping worker (0 = default 20)")
		grayBudget     = flag.Int("gray-retry-budget", 0, "gray mode: shared retry token budget per leg (0 = default 64)")
		grayWall       = flag.Float64("gray-wall-factor", 0, "gray mode: wall-time bound vs healthy baseline (0 = default 1.5)")
		grayK          = flag.Int("gray-quarantine-dispatches", 0, "gray mode: dispatches allowed before quarantine (0 = default 2)")
	)
	flag.Parse()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	switch *mode {
	case "pipeline":
		opt := chaos.Options{
			Seeds:        chaos.Seeds(*seedBase, *seeds),
			Points:       *points,
			Leaves:       *leaves,
			FaultRate:    *rate,
			RunTimeout:   *duration,
			QualityFloor: *floor,
			Logf:         logf,
		}
		rpt := chaos.Run(opt)
		writeReport(*out, rpt)
		fmt.Printf("chaos: %d runs: %d ok, %d faulted (fail-stop), %d FAILED\n",
			len(rpt.Runs), rpt.OK, rpt.Faulted, rpt.Failed)
		if rpt.Failed > 0 {
			for _, r := range rpt.Runs {
				if r.Outcome == chaos.OutcomeFail {
					fmt.Printf("  seed %d: %s\n", r.Seed, r.Reason)
				}
			}
			os.Exit(1)
		}
	case "overload":
		rpt := chaos.RunOverload(chaos.OverloadOptions{
			Seeds:         chaos.Seeds(*seedBase, *seeds),
			Tenants:       *tenants,
			JobsPerTenant: *jobs,
			Points:        *points,
			Leaves:        *leaves,
			FaultRate:     *rate,
			RunTimeout:    *duration,
			DegradedFloor: *floor,
			Logf:          logf,
		})
		writeReport(*out, rpt)
		fmt.Printf("chaos overload: %d runs: %d ok, %d FAILED\n",
			len(rpt.Runs), rpt.OK, rpt.Failed)
		if rpt.Failed > 0 {
			for _, r := range rpt.Runs {
				if r.Outcome == chaos.OutcomeFail {
					fmt.Printf("  seed %d: %s\n", r.Seed, r.Reason)
				}
			}
			os.Exit(1)
		}
	case "crash":
		rpt := chaos.RunCrash(chaos.CrashOptions{
			Seeds:              chaos.Seeds(*seedBase, *seeds),
			Points:             *points,
			Leaves:             *leaves,
			CrashPoints:        *crashPoints,
			JournalCrashPoints: *journalPts,
			JournalJobs:        *journalJobs,
			RunTimeout:         *duration,
			DropSyncs:          *dropSyncs,
			DropDirSyncs:       *dropDirSyncs,
			Logf:               logf,
		})
		writeReport(*out, rpt)
		fmt.Printf("chaos crash: %d seeds, %d crash points: %d ok, %d FAILED\n",
			len(rpt.Runs), rpt.CrashPoints, rpt.OK, rpt.Failed)
		if rpt.Failed > 0 {
			for _, r := range rpt.Runs {
				if r.Outcome == chaos.OutcomeFail {
					fmt.Printf("  seed %d: %s\n", r.Seed, r.Reason)
				}
			}
			os.Exit(1)
		}
	case "stream":
		rpt := chaos.RunStream(chaos.StreamOptions{
			Seeds:       chaos.Seeds(*seedBase, *seeds),
			Ticks:       *ticks,
			PerTick:     *perTick,
			WindowTicks: *window,
			RunTimeout:  *duration,
			Logf:        logf,
		})
		writeReport(*out, rpt)
		fmt.Printf("chaos stream: %d runs: %d ok, %d FAILED\n",
			len(rpt.Runs), rpt.OK, rpt.Failed)
		if rpt.Failed > 0 {
			for _, r := range rpt.Runs {
				if r.Outcome == chaos.OutcomeFail {
					fmt.Printf("  seed %d: %s\n", r.Seed, r.Reason)
				}
			}
			os.Exit(1)
		}
	case "gray":
		rpt := chaos.RunGray(chaos.GrayOptions{
			Seeds:                   chaos.Seeds(*seedBase, *seeds),
			Workers:                 *grayWorkers,
			Partitions:              *grayPartitions,
			Points:                  *points,
			SlowFactor:              *graySlow,
			RetryBudget:             *grayBudget,
			WallFactor:              *grayWall,
			MaxQuarantineDispatches: *grayK,
			RunTimeout:              *duration,
			Logf:                    logf,
		})
		writeReport(*out, rpt)
		fmt.Printf("chaos gray: %d runs: %d ok, %d FAILED\n",
			len(rpt.Runs), rpt.OK, rpt.Failed)
		if rpt.Failed > 0 {
			for _, r := range rpt.Runs {
				for _, l := range r.Legs {
					if !l.OK {
						fmt.Printf("  seed %d leg %s: %s\n", r.Seed, l.Name, l.Reason)
					}
				}
			}
			os.Exit(1)
		}
	default:
		fmt.Fprintf(os.Stderr, "chaos: unknown -mode %q (want pipeline, overload, crash, stream or gray)\n", *mode)
		os.Exit(2)
	}
}

func writeReport(path string, rpt any) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(rpt, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "chaos: encoding report: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "chaos: writing report: %v\n", err)
		os.Exit(1)
	}
}
