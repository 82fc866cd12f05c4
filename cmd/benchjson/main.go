// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON file, so CI can archive benchmark runs and
// tooling can diff them across commits, and compares a run against a
// committed baseline to gate performance regressions.
//
// Usage:
//
//	go test -bench=. -benchmem ./... | go run ./cmd/benchjson -o BENCH_run.json
//	go run ./cmd/benchjson -o BENCH_run.json bench.txt
//	go run ./cmd/benchjson -compare BENCH_14.json -match '^BenchmarkCluster' BENCH_run.json
//
// It understands the standard benchmark line —
//
//	BenchmarkName-8   1000000   1234 ns/op   512 B/op   3 allocs/op
//
// — including custom metrics (any extra "value unit" pairs), and tags
// each benchmark with the `pkg:` header it appeared under. Lines that
// are not benchmark results (test output, PASS/ok) are ignored.
//
// With -compare, the input (a JSON document produced by an earlier
// benchjson run, or raw bench text) is matched against the baseline by
// package + name — the host's GOMAXPROCS suffix ("-8") is stripped, so
// baselines transfer between machines with different core counts — and
// the command exits nonzero if any matched benchmark's wall clock
// (ns/op) regressed by more than -threshold percent, if its allocation
// (B/op, where the baseline recorded one) grew by more than
// -bytes-threshold percent, or if a baseline benchmark selected by -match
// is missing from the run (deleting the gated benchmark must not pass the
// gate). Bytes get the tighter gate because they repeat: B/op moves by
// well under 1 % between runs of these benchmarks where ns/op moves by
// tens. Growth below bytesNoiseFloor is never a failure: a row that
// allocates a kilobyte doubles when the runtime parks one more goroutine.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Package     string  `json:"package,omitempty"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds any custom b.ReportMetric units beyond the three
	// standard ones, keyed by unit (e.g. "quality/op").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Run is the output document.
type Run struct {
	GoOS       string      `json:"goos,omitempty"`
	GoArch     string      `json:"goarch,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH_run.json", "output JSON file (- for stdout)")
	compare := flag.String("compare", "", "baseline JSON file; compare the input run against it instead of converting")
	threshold := flag.Float64("threshold", 20, "ns/op regression threshold in percent for -compare")
	bytesThreshold := flag.Float64("bytes-threshold", 5, "B/op regression threshold in percent for -compare (rows whose baseline has no B/op are skipped)")
	match := flag.String("match", "", "regexp selecting benchmark names for -compare (default: all baseline benchmarks)")
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	if *compare != "" {
		base, err := readRunFile(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		cur, err := readRun(in)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		report, failed, err := compareRuns(base, cur, *threshold, *bytesThreshold, *match)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Print(report)
		if failed {
			os.Exit(1)
		}
		return
	}
	run, err := parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if err := write(*out, run); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks -> %s\n", len(run.Benchmarks), *out)
}

// readRunFile loads a run document from a file (JSON or bench text).
func readRunFile(path string) (*Run, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readRun(f)
}

// readRun sniffs the input: a JSON document produced by benchjson, or
// raw `go test -bench` text to parse on the fly.
func readRun(in io.Reader) (*Run, error) {
	data, err := io.ReadAll(in)
	if err != nil {
		return nil, err
	}
	if trimmed := bytes.TrimSpace(data); len(trimmed) > 0 && trimmed[0] == '{' {
		var run Run
		if err := json.Unmarshal(trimmed, &run); err != nil {
			return nil, fmt.Errorf("parsing JSON run: %w", err)
		}
		return &run, nil
	}
	return parse(bytes.NewReader(data))
}

// bytesNoiseFloor is the B/op growth the bytes gate ignores whatever the
// percentage: the allocation-free kernels (Classify: 0.8-6 KB/op over six
// -benchtime=3x captures) move by that much on runtime bookkeeping alone.
// Rows of 320 KB/op and more — all but five — are gated at the percentage.
const bytesNoiseFloor = 16 << 10

// benchKey identifies a benchmark across runs: package plus name with
// the trailing GOMAXPROCS suffix ("-8") removed, so a baseline captured
// on one machine gates runs from another.
var procSuffix = regexp.MustCompile(`-\d+$`)

func benchKey(b *Benchmark) string {
	return b.Package + " " + procSuffix.ReplaceAllString(b.Name, "")
}

// compareRuns diffs cur against base on ns/op and, where the baseline row
// has one, on B/op. It returns a human report, whether the gate failed,
// and any setup error (bad regexp). Failures: a matched benchmark's ns/op
// regressing past thresholdPct or its B/op past bytesPct, or a matched
// baseline benchmark absent from cur.
func compareRuns(base, cur *Run, thresholdPct, bytesPct float64, match string) (string, bool, error) {
	var re *regexp.Regexp
	if match != "" {
		var err error
		if re, err = regexp.Compile(match); err != nil {
			return "", false, fmt.Errorf("bad -match regexp: %w", err)
		}
	}
	curBy := make(map[string]*Benchmark, len(cur.Benchmarks))
	for i := range cur.Benchmarks {
		curBy[benchKey(&cur.Benchmarks[i])] = &cur.Benchmarks[i]
	}
	var sb strings.Builder
	failed := false
	compared := 0
	for i := range base.Benchmarks {
		b := &base.Benchmarks[i]
		if re != nil && !re.MatchString(b.Name) {
			continue
		}
		key := benchKey(b)
		c, ok := curBy[key]
		if !ok {
			fmt.Fprintf(&sb, "MISSING  %-60s baseline %.0f ns/op, absent from run\n", key, b.NsPerOp)
			failed = true
			continue
		}
		compared++
		deltaPct := 0.0
		if b.NsPerOp > 0 {
			deltaPct = (c.NsPerOp - b.NsPerOp) / b.NsPerOp * 100
		}
		verdict := "ok      "
		if deltaPct > thresholdPct {
			verdict = "REGRESS "
			failed = true
		}
		fmt.Fprintf(&sb, "%s %-60s %14.0f -> %14.0f ns/op  %+7.1f%%\n",
			verdict, key, b.NsPerOp, c.NsPerOp, deltaPct)
		if b.BytesPerOp > 0 {
			bytesDelta := (c.BytesPerOp - b.BytesPerOp) / b.BytesPerOp * 100
			if bytesDelta > bytesPct && c.BytesPerOp-b.BytesPerOp > bytesNoiseFloor {
				fmt.Fprintf(&sb, "REGRESS  %-60s %14.0f -> %14.0f B/op   %+7.1f%%\n",
					key, b.BytesPerOp, c.BytesPerOp, bytesDelta)
				failed = true
			}
		}
	}
	if compared == 0 && !failed {
		fmt.Fprintf(&sb, "benchjson: no baseline benchmarks matched\n")
		failed = true
	}
	fmt.Fprintf(&sb, "benchjson: compared %d benchmarks against baseline (threshold %+.0f%% ns/op, %+.0f%% B/op)\n", compared, thresholdPct, bytesPct)
	return sb.String(), failed, nil
}

func write(path string, run *Run) error {
	w := os.Stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(run)
}

func parse(in io.Reader) (*Run, error) {
	run := &Run{Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	pkg := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg: "))
			continue
		case strings.HasPrefix(line, "goos: "):
			run.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos: "))
			continue
		case strings.HasPrefix(line, "goarch: "):
			run.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch: "))
			continue
		case strings.HasPrefix(line, "cpu: "):
			run.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu: "))
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		b, ok := parseLine(line)
		if !ok {
			continue // sub-benchmark log output starting with "Benchmark"
		}
		b.Package = pkg
		run.Benchmarks = append(run.Benchmarks, b)
	}
	return run, sc.Err()
}

// parseLine parses one result line: name, iteration count, then
// "value unit" pairs.
func parseLine(line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Name: fields[0], Iterations: iters}
	seenNs := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			b.NsPerOp = val
			seenNs = true
		case "B/op":
			b.BytesPerOp = val
		case "allocs/op":
			b.AllocsPerOp = val
		default:
			if b.Metrics == nil {
				b.Metrics = make(map[string]float64)
			}
			b.Metrics[unit] = val
		}
	}
	return b, seenNs
}
