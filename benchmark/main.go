// Command benchmark is the repository's benchmark: five workloads
// through the three real front doors (mrscan.RunPoints, the distrib
// coordinator over loopback TCP, the job/stream server over loopback
// HTTP), eight end-to-end metrics measured with tracing off, and
// per-layer metrics from a separate traced run that replays the
// pipeline stage by stage under the benchmark's own spans. See
// README.md in this directory and BENCHMARK.json at the repo root.
//
//	go run ./benchmark                         every workload, both runs, a table
//	go run ./benchmark -workload batch_io -trace 0 -seed 7 -seconds 10
//	go run ./benchmark -quick                  a tenth of the sizes, seconds not minutes
//	go run ./benchmark -aa                     the timed set twice; fails if they disagree
//	go run ./benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and end with the driver's JSON line; empty runs all five")
		seed         = flag.Int64("seed", 1, "inputs are generated from this seed")
		secs         = flag.Float64("seconds", runSeconds, "measuring time per workload")
		trace        = flag.Int("trace", -1, "0: end-to-end metrics, span recorder off; 1: per-layer metrics from the traced run; -1: both")
		quick        = flag.Bool("quick", false, "a tenth of the sizes and a tenth of the time; output is marked not comparable")
		out          = flag.String("out", "", "append this invocation's results to a JSON file (read by -compare)")
		aa           = flag.Bool("aa", false, "run the timed set twice and exit non-zero if any end-to-end metric disagrees by more than its bound")
		compare      = flag.Bool("compare", false, "compare two -out files: -compare old.json new.json")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	switch {
	case *spec:
		os.Stdout.Write(benchmarkJSON())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(errors.New("-compare needs two files: old.json new.json"))
		}
		ok, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	names := workloadNames()
	if *workloadName != "" {
		if !knownWorkload(*workloadName) {
			fatal(fmt.Errorf("unknown workload %q (have %v)", *workloadName, names))
		}
		names = []string{*workloadName}
	}
	tmpRoot, err := makeTmpRoot()
	if err != nil {
		fatal(err)
	}
	run := &invocation{
		seed:     *seed,
		sz:       sizing{div: 1},
		duration: time.Duration(*secs * float64(time.Second)),
		tmpRoot:  tmpRoot,
		traceDir: filepath.Join("benchmark", "out"),
		kernel:   refKernel,
	}
	if *quick {
		run.sz.div = 10
		run.duration /= 10
	}
	code, err := run.main(names, *trace, *aa, *workloadName != "", *out)
	os.RemoveAll(tmpRoot)
	if err != nil {
		fatal(err)
	}
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// makeTmpRoot makes the directory state dirs and checkpoint probes live
// in: under .bench_build in the working directory (the checkout, which
// the benchmark must not write outside of), else the system's.
func makeTmpRoot() (string, error) {
	base := ".bench_build"
	if err := os.MkdirAll(base, 0o755); err != nil {
		base = os.TempDir()
	}
	return os.MkdirTemp(base, "run-")
}

// invocation is one execution of the command.
type invocation struct {
	seed     int64
	sz       sizing
	duration time.Duration
	tmpRoot  string
	traceDir string // traced runs write trace-<workload>.json here
	// kernel times the host-speed probe, in ms (refKernel; tests pass a
	// constant so they need not pay for it sixty times).
	kernel func() float64
}

// main runs the requested modes and returns the exit code: 1 when any
// correctness check or the A/A comparison failed.
func (inv *invocation) main(names []string, trace int, aa, driver bool, outFile string) (int, error) {
	rec := runRecord{Seed: inv.seed, Quick: inv.sz.quick(), Seconds: inv.duration.Seconds()}
	failed := false
	if trace != 1 {
		results, err := inv.timedSet(names)
		if err != nil {
			return 1, err
		}
		rec.Workloads = results
		if aa {
			again, err := inv.timedSet(names)
			if err != nil {
				return 1, err
			}
			if !agree(os.Stdout, results, again) {
				failed = true
			}
		}
	}
	if trace != 0 {
		for _, name := range names {
			layers, err := inv.tracedRun(name)
			if err != nil {
				return 1, fmt.Errorf("%s traced run: %w", name, err)
			}
			rec.attach(name, layers)
		}
	}
	for _, r := range rec.Workloads {
		printResult(os.Stdout, r, inv.sz.quick())
		if !r.Correct {
			failed = true
		}
	}
	if outFile != "" {
		if err := appendRun(outFile, rec); err != nil {
			return 1, err
		}
	}
	if driver {
		// The driver reads the last line of standard output.
		line, err := json.Marshal(rec.Workloads[0].driverLine(trace == 1))
		if err != nil {
			return 1, err
		}
		fmt.Println(string(line))
	}
	if failed {
		return 1, nil
	}
	return 0, nil
}
