package main

import (
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkFig9aPartitionTime/leaves=32-8         	       2	 512345678 ns/op	  1048576 B/op	    2048 allocs/op
BenchmarkFig11Quality-8                         	       1	1234567890 ns/op	         0.9981 quality/op
PASS
ok  	repro	3.210s
pkg: repro/internal/dsu
BenchmarkUnionFind-8   	 1000000	      1234 ns/op	     512 B/op	       3 allocs/op
Benchmark output that is not a result line
--- BENCH: BenchmarkUnionFind-8
ok  	repro/internal/dsu	1.234s
`

func TestParse(t *testing.T) {
	run, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if run.GoOS != "linux" || run.GoArch != "amd64" || run.CPU != "AMD EPYC 7B13" {
		t.Errorf("metadata = %q/%q/%q", run.GoOS, run.GoArch, run.CPU)
	}
	if len(run.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(run.Benchmarks), run.Benchmarks)
	}
	b := run.Benchmarks[0]
	if b.Package != "repro" || !strings.HasPrefix(b.Name, "BenchmarkFig9aPartitionTime/") {
		t.Errorf("first benchmark = %s %s", b.Package, b.Name)
	}
	if b.Iterations != 2 || b.NsPerOp != 512345678 || b.BytesPerOp != 1048576 || b.AllocsPerOp != 2048 {
		t.Errorf("first benchmark values = %+v", b)
	}
	if q := run.Benchmarks[1].Metrics["quality/op"]; q != 0.9981 {
		t.Errorf("custom metric quality/op = %v, want 0.9981", q)
	}
	last := run.Benchmarks[2]
	if last.Package != "repro/internal/dsu" || last.Name != "BenchmarkUnionFind-8" || last.NsPerOp != 1234 {
		t.Errorf("last benchmark = %+v", last)
	}
}

func TestParseIgnoresMalformed(t *testing.T) {
	run, err := parse(strings.NewReader("BenchmarkBroken-8 notanumber 5 ns/op\nBenchmarkNoNs-8 10 3 widgets/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Benchmarks) != 0 {
		t.Fatalf("malformed lines parsed as %+v", run.Benchmarks)
	}
}

func run(benches ...Benchmark) *Run { return &Run{Benchmarks: benches} }

func TestCompareWithinThreshold(t *testing.T) {
	base := run(Benchmark{Package: "repro", Name: "BenchmarkCluster/parts=4", NsPerOp: 100})
	cur := run(Benchmark{Package: "repro", Name: "BenchmarkCluster/parts=4", NsPerOp: 110})
	report, failed, err := compareRuns(base, cur, 20, 5, "")
	if err != nil || failed {
		t.Fatalf("10%% slowdown under 20%% threshold failed: %v\n%s", err, report)
	}
}

func TestCompareRegressionFails(t *testing.T) {
	base := run(Benchmark{Package: "repro", Name: "BenchmarkCluster", NsPerOp: 100})
	cur := run(Benchmark{Package: "repro", Name: "BenchmarkCluster", NsPerOp: 125})
	report, failed, err := compareRuns(base, cur, 20, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatalf("25%% regression passed a 20%% gate:\n%s", report)
	}
}

func TestCompareImprovementPasses(t *testing.T) {
	base := run(Benchmark{Package: "repro", Name: "BenchmarkCluster", NsPerOp: 100})
	cur := run(Benchmark{Package: "repro", Name: "BenchmarkCluster", NsPerOp: 50})
	if _, failed, _ := compareRuns(base, cur, 20, 5, ""); failed {
		t.Fatal("a 50% improvement must pass")
	}
}

func TestCompareStripsProcSuffix(t *testing.T) {
	// Baseline captured on a 1-core host, run produced on an 8-core one.
	base := run(Benchmark{Package: "repro", Name: "BenchmarkCluster/parts=4", NsPerOp: 100})
	cur := run(Benchmark{Package: "repro", Name: "BenchmarkCluster/parts=4-8", NsPerOp: 105})
	report, failed, err := compareRuns(base, cur, 20, 5, "")
	if err != nil || failed {
		t.Fatalf("suffix mismatch broke the comparison: %v\n%s", err, report)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := run(
		Benchmark{Package: "repro", Name: "BenchmarkCluster", NsPerOp: 100},
		Benchmark{Package: "repro", Name: "BenchmarkOther", NsPerOp: 100},
	)
	cur := run(Benchmark{Package: "repro", Name: "BenchmarkOther", NsPerOp: 100})
	report, failed, err := compareRuns(base, cur, 20, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if !failed || !strings.Contains(report, "MISSING") {
		t.Fatalf("deleted baseline benchmark passed the gate:\n%s", report)
	}
}

func TestCompareMatchFilter(t *testing.T) {
	base := run(
		Benchmark{Package: "repro", Name: "BenchmarkCluster", NsPerOp: 100},
		Benchmark{Package: "repro", Name: "BenchmarkNoisy", NsPerOp: 100},
	)
	cur := run(
		Benchmark{Package: "repro", Name: "BenchmarkCluster", NsPerOp: 100},
		Benchmark{Package: "repro", Name: "BenchmarkNoisy", NsPerOp: 900},
	)
	// The noisy benchmark regressed 9x, but only Cluster is gated.
	if _, failed, err := compareRuns(base, cur, 20, 5, "^BenchmarkCluster"); err != nil || failed {
		t.Fatal("match filter did not exclude the un-gated benchmark")
	}
	// No benchmark matching the filter at all is a gate failure.
	if _, failed, _ := compareRuns(base, cur, 20, 5, "^BenchmarkAbsent"); !failed {
		t.Fatal("empty comparison must fail, not silently pass")
	}
	// A bad regexp is a setup error.
	if _, _, err := compareRuns(base, cur, 20, 5, "("); err == nil {
		t.Fatal("invalid regexp accepted")
	}
}

func TestCompareBytesGate(t *testing.T) {
	base := run(
		Benchmark{Package: "repro", Name: "BenchmarkRunPoints/sdss", NsPerOp: 100, BytesPerOp: 70_000_000},
		Benchmark{Package: "repro", Name: "BenchmarkNoMem", NsPerOp: 100}, // captured without -benchmem
	)
	within := run(
		Benchmark{Package: "repro", Name: "BenchmarkRunPoints/sdss", NsPerOp: 115, BytesPerOp: 72_000_000},
		Benchmark{Package: "repro", Name: "BenchmarkNoMem", NsPerOp: 100, BytesPerOp: 1 << 30},
	)
	if report, failed, err := compareRuns(base, within, 20, 5, ""); err != nil || failed {
		t.Fatalf("+2.9%% B/op under a 5%% gate (and a row with no baseline B/op) failed: %v\n%s", err, report)
	}
	// Faster, but a second copy of the files is back: the bytes gate
	// fails what the wall-clock gate would wave through.
	grown := run(
		Benchmark{Package: "repro", Name: "BenchmarkRunPoints/sdss", NsPerOp: 90, BytesPerOp: 114_000_000},
		Benchmark{Package: "repro", Name: "BenchmarkNoMem", NsPerOp: 100},
	)
	report, failed, err := compareRuns(base, grown, 20, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	if !failed || !strings.Contains(report, "B/op") || !strings.Contains(report, "REGRESS") {
		t.Fatalf("+63%% B/op passed a 5%% gate:\n%s", report)
	}
	if _, failed, _ := compareRuns(base, grown, 20, 100, ""); failed {
		t.Fatal("-bytes-threshold 100 must let +63% through")
	}
	// A kilobyte row doubling is runtime bookkeeping, not a regression.
	tiny := run(Benchmark{Package: "repro", Name: "BenchmarkClassify", NsPerOp: 100, BytesPerOp: 816})
	if report, failed, _ := compareRuns(tiny, run(Benchmark{Package: "repro", Name: "BenchmarkClassify", NsPerOp: 100, BytesPerOp: 1584}), 20, 5, ""); failed {
		t.Fatalf("+768 B on an 816 B row failed the gate:\n%s", report)
	}
	// Fewer bytes, or none reported by the run, never fail.
	shrunk := run(
		Benchmark{Package: "repro", Name: "BenchmarkRunPoints/sdss", NsPerOp: 100, BytesPerOp: 1},
		Benchmark{Package: "repro", Name: "BenchmarkNoMem", NsPerOp: 100},
	)
	if report, failed, _ := compareRuns(base, shrunk, 20, 5, ""); failed {
		t.Fatalf("an allocation saving failed the gate:\n%s", report)
	}
}
