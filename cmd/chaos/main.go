// Command chaos runs the seeded chaos campaigns of internal/chaos: one
// scenario run per seed, each audited against a fault-free reference,
// behind one runner (seed loop, per-seed deadline, verdict, report). The
// scenario files carry what each mode injects and which invariants it
// audits; -mode picks one:
//
//	pipeline  random fault schedules (errors, silent bit flips, node
//	          kills, stragglers, process death) under the full pipeline:
//	          labels match or fail-stop loudly, zero silent corruption
//	          escapes (internal/chaos/chaos.go)
//	overload  multi-tenant bursts past queue capacity, a drain and a
//	          restart per seed: typed rejections only, zero silent
//	          drops, quality floors met (overload.go)
//	crash     power failure at every sampled durability-relevant
//	          file-system operation: nothing acknowledged is lost,
//	          recovery is idempotent, labels exact (crash.go)
//	stream    a firehose through a drain/restart and a power cut inside
//	          a tick's save: served labels equal the reference engine's
//	          after every tick (stream.go)
//	gray      faults that pass every liveness check — a 20x-slow worker,
//	          a flapping link, a degraded OST, a starved retry budget:
//	          exact-sick-set quarantine within two dispatches, exact
//	          labels, bounded retry spend and wall time (gray.go)
//
//	chaos -seeds 20 -out chaos-report.json   # seeds 1..20, pipeline
//	chaos -seeds 5 -seed-base 100            # seeds 100..104
//	chaos -mode overload -seeds 10
//	chaos -mode crash -seeds 10 -crash-points 20
//	chaos -mode crash -seeds 2 -drop-syncs '*.ckpt*'   # mutation: must FAIL
//	chaos -mode gray -seeds 5 -gray-workers 8 -gray-slow-factor 20
//
// Every mode takes -seeds, -seed-base, -duration (one seed's wall-time
// budget) and -out; the other flags are the chosen mode's own, and
// chaos -mode M -h lists them. The -drop-syncs / -drop-dir-syncs
// mutation flags turn chosen fsyncs into lies; a correct crash harness
// must then FAIL.
//
// Exit status is 1 if any run FAILs (loud fail-stop runs are acceptable;
// silent corruption, bad labels, or dropped jobs are not) and 2 on a bad
// command line.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/chaos"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// result is what the one summary/exit path needs of a finished
// campaign, whatever its mode; it is also what -out marshals.
type result interface {
	Summary() string
	Failures() []string
}

// campaign runs a bound scenario under the shared campaign settings.
type campaign func(context.Context, chaos.Campaign) result

// modes is the mode table. bind registers the mode's own flags on fs,
// each bound straight into a field of the scenario's options, and
// returns the campaign to run once they are parsed.
var modes = []struct {
	name string
	bind func(fs *flag.FlagSet) campaign
}{
	{"pipeline", func(fs *flag.FlagSet) campaign {
		var o chaos.Options
		fs.IntVar(&o.Points, "points", 0, "dataset points per run (0 = 6000)")
		fs.IntVar(&o.Leaves, "leaves", 0, "cluster-phase leaves (0 = 4)")
		fs.Float64Var(&o.FaultRate, "fault-rate", 0, "fault schedule intensity in (0,1] (0 = 0.6)")
		fs.Float64Var(&o.QualityFloor, "quality-floor", 0, "minimum DBDC quality of a run's labels vs the fault-free reference (0 = 0.995)")
		return func(ctx context.Context, c chaos.Campaign) result { return chaos.Run(ctx, c, o) }
	}},
	{"overload", func(fs *flag.FlagSet) campaign {
		var o chaos.OverloadOptions
		fs.IntVar(&o.Tenants, "tenants", 0, "concurrent tenants (0 = 3)")
		fs.IntVar(&o.JobsPerTenant, "jobs-per-tenant", 0, "burst size per tenant (0 = 6)")
		fs.IntVar(&o.Points, "points", 0, "dataset points per job (0 = 4000)")
		fs.IntVar(&o.Leaves, "leaves", 0, "cluster-phase leaves per job (0 = 2)")
		fs.Float64Var(&o.FaultRate, "fault-rate", 0, "share of jobs carrying a fault plan, in (0,1] (0 = 0.5)")
		return func(ctx context.Context, c chaos.Campaign) result { return chaos.Run(ctx, c, o) }
	}},
	{"crash", func(fs *flag.FlagSet) campaign {
		var o chaos.CrashOptions
		fs.IntVar(&o.Points, "points", 0, "dataset points per pipeline run (0 = 2000)")
		fs.IntVar(&o.Leaves, "leaves", 0, "cluster-phase leaves (0 = 4)")
		fs.IntVar(&o.CrashPoints, "crash-points", 0, "pipeline crash points per seed (0 = 20, <0 disables the leg)")
		fs.IntVar(&o.JournalCrashPoints, "journal-crash-points", 0, "job-journal crash points per seed (0 = 4, <0 disables the leg)")
		fs.IntVar(&o.JournalJobs, "journal-jobs", 0, "submit burst size of the journal workload (0 = 3)")
		fs.StringVar(&o.DropSyncs, "drop-syncs", "", "mutation: file fsyncs matching this pattern silently lie (campaign must FAIL)")
		fs.BoolVar(&o.DropDirSyncs, "drop-dir-syncs", false, "mutation: every directory sync silently lies (campaign must FAIL)")
		return func(ctx context.Context, c chaos.Campaign) result { return chaos.Run(ctx, c, o) }
	}},
	{"stream", func(fs *flag.FlagSet) campaign {
		var o chaos.StreamOptions
		fs.IntVar(&o.Ticks, "ticks", 0, "firehose length in ticks (0 = 12)")
		fs.IntVar(&o.PerTick, "per-tick", 0, "points per tick (0 = 300)")
		fs.IntVar(&o.WindowTicks, "window-ticks", 0, "sliding window in ticks (0 = 4)")
		return func(ctx context.Context, c chaos.Campaign) result { return chaos.Run(ctx, c, o) }
	}},
	{"gray", func(fs *flag.FlagSet) campaign {
		var o chaos.GrayOptions
		fs.IntVar(&o.Points, "points", 0, "worker-leg dataset points (0 = 4000)")
		fs.IntVar(&o.Workers, "gray-workers", 0, "dispatch fleet size (0 = 8)")
		fs.IntVar(&o.SlowFactor, "gray-slow-factor", 0, "slowdown of the limping worker (0 = 20)")
		return func(ctx context.Context, c chaos.Campaign) result { return chaos.Run(ctx, c, o) }
	}},
}

func modeNames(sep string) string {
	names := make([]string, len(modes))
	for i, m := range modes {
		names[i] = m.name
	}
	return strings.Join(names, sep)
}

// modeArg finds -mode in args ahead of parsing, because which other
// flags exist depends on it.
func modeArg(args []string) string {
	for i, a := range args {
		name, value, inline := strings.Cut(strings.TrimLeft(a, "-"), "=")
		switch {
		case name != "mode" || !strings.HasPrefix(a, "-"):
		case inline:
			return value
		case i+1 < len(args):
			return args[i+1]
		}
	}
	return modes[0].name
}

// run is the whole command: pick the mode, parse its flags, run the
// campaign, write the report, print the summary and any failures.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.String("mode", modes[0].name, "campaign kind: "+modeNames(" | "))
	seeds := fs.Int("seeds", 20, "number of seeded schedules to run")
	seedBase := fs.Int64("seed-base", 1, "first seed")
	duration := fs.Duration("duration", 2*time.Minute, "wall-time budget per seed")
	out := fs.String("out", "", "write the JSON campaign report to this file")

	var bound campaign
	name := modeArg(args)
	for _, m := range modes {
		if m.name == name {
			bound = m.bind(fs)
		}
	}
	if bound == nil {
		fmt.Fprintf(stderr, "chaos: unknown -mode %q (want %s)\n", name, modeNames(", "))
		return 2
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	rpt := bound(context.Background(), chaos.Campaign{
		Seeds:      chaos.Seeds(*seedBase, *seeds),
		RunTimeout: *duration,
		Logf:       func(format string, args ...any) { fmt.Fprintf(stderr, "chaos "+name+": "+format+"\n", args...) },
	})
	if *out != "" {
		data, err := json.MarshalIndent(rpt, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, data, 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "chaos: writing report: %v\n", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, rpt.Summary())
	failures := rpt.Failures()
	for _, f := range failures {
		fmt.Fprintf(stdout, "  %s\n", f)
	}
	if len(failures) > 0 {
		return 1
	}
	return 0
}
