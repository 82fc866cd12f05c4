package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"testing"
	"time"

	front "repro"
	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/stream"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := percentile(xs, 0.95); err == nil {
		t.Fatal("p95 of 199 samples has 9 beyond it and must be refused")
	}
	xs = append(xs, 200)
	v, err := percentile(xs, 0.95)
	if err != nil || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %v; want 190 with 10 beyond", v, err)
	}
	if _, err := percentile(xs[:15], 0.75); err == nil {
		t.Fatal("p75 of 15 samples must be refused")
	}
	if v, err := percentile(xs[:15], 0.5); err != nil || v != 8 {
		t.Fatalf("median of 1..15 = %v, %v", v, err)
	}
	// The tail the harness picks is always one the helper accepts.
	for n := 1; n <= 1000; n++ {
		p := tailPercentile(n)
		if p < 0.5 || p > 0.95 {
			t.Fatalf("tailPercentile(%d) = %v", n, p)
		}
		if _, err := percentile(xs[:min(n, len(xs))], tailPercentile(min(n, len(xs)))); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
	}
	if tailPercentile(220) != 0.95 {
		t.Fatalf("220 samples support p95, got %v", tailPercentile(220))
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v", q1, q3)
	}
	if s, ok := spreadOf([]float64{1, 2, 3}); ok {
		t.Fatalf("spread of three values should be undefined, got %v", s)
	}
}

func TestSelfTimeSubtractsOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []spanData{
		{ID: 1, Name: "stage", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "leaf", Start: 10 * ms, End: 60 * ms},
		{ID: 3, Parent: 1, Name: "leaf", Start: 40 * ms, End: 90 * ms}, // overlaps span 2
		{ID: 4, Parent: 2, Name: "kernel", Start: 20 * ms, End: 30 * ms},
	}
	self := selfTimes(spans)
	if self["stage"] != 20*ms { // 100 − union(10..90)
		t.Errorf("stage self = %v, want 20ms", self["stage"])
	}
	if self["leaf"] != 90*ms { // (50 − 10) + 50
		t.Errorf("leaf self = %v, want 90ms", self["leaf"])
	}
	if self["kernel"] != 10*ms {
		t.Errorf("kernel self = %v, want 10ms", self["kernel"])
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestDeclarationsMeetTheContract(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		t.Helper()
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloadDecls); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloadDecls {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == mSetup {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("setup_s (unit s, lower) is missing")
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range perLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from the declarations; regenerate it with: go run ./benchmark -spec > BENCHMARK.json")
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes", len(onDisk))
	}
}

func keysOf(m map[string]metricJSON) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(t *testing.T, what string, got []string, want []string) {
	t.Helper()
	sort.Strings(want)
	if len(got) != len(want) {
		t.Errorf("%s: emitted %d names, declared %d:\n emitted  %v\n declared %v", what, len(got), len(want), got, want)
		return
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s: emitted %q where %q is declared", what, got[i], want[i])
		}
	}
}

// TestEmittedSetEqualsDeclared runs every workload at quick size, both
// runs, and checks that what the driver would read is exactly what
// BENCHMARK.json declares — and that no per-layer metric is declared
// that no workload ever measures.
func TestEmittedSetEqualsDeclared(t *testing.T) {
	inv := &invocation{seed: 1, sz: sizing{div: 40}, duration: 120 * time.Millisecond, tmpRoot: t.TempDir(), traceDir: t.TempDir(),
		kernel: func() float64 { return calibNominalMS }}
	results, err := inv.timedSet(workloadNames())
	if err != nil {
		t.Fatal(err)
	}
	var e2e, layers []string
	for _, d := range endToEnd {
		e2e = append(e2e, d.Name)
	}
	for _, d := range perLayer {
		layers = append(layers, d.Name)
	}
	measured := map[string]bool{}
	for _, r := range results {
		if !r.Correct {
			t.Errorf("%s: not correct: %d of %d failed, quality %v, notes %v", r.Workload, r.Failed, r.Attempted, r.EndToEnd[mQuality], r.Notes)
		}
		line := r.driverLine(false)
		sameNames(t, r.Workload+" end-to-end", keysOf(line["metrics"].(map[string]metricJSON)), e2e)
		for k, v := range r.EndToEnd {
			if v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v; end-to-end metrics are never 0", r.Workload, k, v)
			}
		}
		traced, err := inv.tracedRun(r.Workload)
		if err != nil {
			t.Fatalf("%s traced run: %v", r.Workload, err)
		}
		line = traced.driverLine(true)
		sameNames(t, r.Workload+" per-layer", keysOf(line["metrics"].(map[string]metricJSON)), layers)
		for k := range traced.PerLayer {
			measured[k] = true
		}
		if _, err := os.Stat(inv.traceDir + "/trace-" + r.Workload + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", r.Workload, err)
		}
	}
	for _, d := range perLayer {
		if !measured[d.Name] {
			t.Errorf("%s is declared but no workload measures it", d.Name)
		}
	}
}

func TestSeedDeterminesInput(t *testing.T) {
	hash := func(name string, seed int64) uint64 {
		w := newWorkload(name, seed, sizing{div: 40}, t.TempDir())
		defer w.close()
		if err := w.setup(); err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		return w.inputHash()
	}
	for _, name := range workloadNames() {
		a, b, c := hash(name, 1), hash(name, 1), hash(name, 2)
		if a != b {
			t.Errorf("%s: seed 1 gave two inputs: %016x, %016x", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 gave the same input %016x", name, a)
		}
	}
}

func TestStagedReplayMatchesRunPoints(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    *batchWorkload
	}{
		{"twitter", &batchWorkload{gen: dataset.Twitter, n: 5000, sets: 1, seed: 3, eps: 0.1, minPts: 10, leaves: 4}},
		{"sdss", &batchWorkload{gen: dataset.SDSS, n: 5000, sets: 1, seed: 3, eps: 0.00015, minPts: 5, leaves: 4}},
	} {
		pts := tc.w.gen(tc.w.n, tc.w.seed)
		cfg := tc.w.config()
		res, want, err := front.RunPoints(pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.NumClusters < 2 {
			t.Fatalf("%s: input too easy: %d clusters", tc.name, res.NumClusters)
		}
		rec := newRecorder()
		rp, err := stagedReplay(rec, 1, pts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !stream.Isomorphic(rp.labels, want) {
			t.Errorf("%s: replay labels are not cluster-isomorphic to RunPoints'", tc.name)
		}
		totals := totalsByName(rec.finished())
		for _, stage := range []string{"ptio.write_dataset", "partition.distribute", "gdbscan.cluster", "merge.combine", "sweep.run", "mrscan.labels_by_id"} {
			if totals[stage] <= 0 {
				t.Errorf("%s: no time recorded under span %q", tc.name, stage)
			}
		}
	}
}

func TestCorruptedLabelsCountAsFailed(t *testing.T) {
	pts := dataset.Twitter(4000, 5)
	ref, err := dbscan.Cluster(pts, dbscan.Params{Eps: 0.1, MinPts: 10}, dbscan.IndexGrid)
	if err != nil {
		t.Fatal(err)
	}
	in := &clusterInput{pts: pts}
	in.check.ref = ref.Labels

	good := newTally()
	for i := 0; i < 3; i++ {
		good.attempted++
		good.walls = append(good.walls, 0.1)
		good.points += int64(len(pts))
		in.observe(append([]int(nil), ref.Labels...), good)
	}
	in.check.settle(good)
	good.timed, good.cpu, good.allocB = 1, 1, 1
	m, _, err := endToEndMetrics(good, 1)
	if err != nil || good.failed != 0 || m[mOK] != 1 || m[mQuality] != 1 {
		t.Fatalf("clean labels: failed %d, metrics %v, err %v", good.failed, m, err)
	}

	// One op returns a vector with every other point relabelled noise.
	bad := append([]int(nil), ref.Labels...)
	for i := range bad {
		if i%2 == 0 {
			bad[i] = -1
		}
	}
	in.observe(bad, good)
	good.attempted++
	in.check.settle(good)
	if good.failed != 1 {
		t.Fatalf("a deviating label vector must fail its op, failed = %d", good.failed)
	}

	// Every op returns the corrupted vector: the hash is stable, the
	// score is not.
	fresh := &clusterInput{pts: pts}
	fresh.check.ref = ref.Labels
	tl := newTally()
	for i := 0; i < 4; i++ {
		tl.attempted++
		tl.walls = append(tl.walls, 0.1)
		tl.points += int64(len(pts))
		fresh.observe(bad, tl)
	}
	fresh.check.settle(tl)
	tl.timed, tl.cpu, tl.allocB = 1, 1, 1
	m, _, err = endToEndMetrics(tl, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tl.failed != 4 || m[mOK] != 0 || m[mQuality] >= qualityFloor {
		t.Fatalf("corrupted labels: failed %d of %d, ok_share %v, quality %v", tl.failed, tl.attempted, m[mOK], m[mQuality])
	}
}

// stubWorkload completes one 10-point op of a fixed wall per round.
type stubWorkload struct{ wall float64 }

func (s *stubWorkload) setup() error     { return nil }
func (s *stubWorkload) warmup(int) error { return nil }
func (s *stubWorkload) run(_ time.Time, t *tally) {
	t.attempted++
	t.walls = append(t.walls, s.wall)
	t.points += 10
}
func (s *stubWorkload) verify(t *tally)                                     { t.checked++ }
func (s *stubWorkload) traced(*recorder, time.Duration, layerMetrics) error { return nil }
func (s *stubWorkload) inputHash() uint64                                   { return 0 }
func (s *stubWorkload) close()                                              {}

func TestRoundsAreCalibratedAndTheBestThirdKept(t *testing.T) {
	// A host running at half speed: the kernel takes twice its nominal time.
	slowHost := func() float64 { return 2 * calibNominalMS }
	w := &stubWorkload{wall: 1}
	r, err := oneRound(slowHost, w, 0, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.walls[0]; got != 0.5 {
		t.Errorf("calibrated wall = %v, want 0.5 (1 s on a host at half speed)", got)
	}
	if got := r.rawWalls[0]; got != 1 {
		t.Errorf("raw wall = %v, want 1", got)
	}
	if got := r.slowdown; len(got) != 1 || got[0] != 2 {
		t.Errorf("slowdown = %v, want [2]", got)
	}

	// Twelve rounds with distinct throughputs: only the four fastest by
	// the clock feed the timings, all twelve feed correctness.
	var rs []*tally
	for i := 0; i < rounds; i++ {
		tl := newTally()
		tl.attempted, tl.checked, tl.points = 1, 1, 10
		tl.rawTimed, tl.timed = float64(i+1), float64(i+1)
		tl.walls, tl.rawWalls = []float64{float64(i + 1)}, []float64{float64(i + 1)}
		if i == rounds-1 {
			tl.failed = 1
		}
		rs = append(rs, tl)
	}
	p := pool(rs)
	if len(p.walls) != roundsKept || median(p.walls) != 2.5 {
		t.Errorf("kept walls %v, want the %d fastest rounds (1..4)", p.walls, roundsKept)
	}
	if p.attempted != rounds || p.failed != 1 || p.checked != rounds {
		t.Errorf("correctness must count every round: attempted %d failed %d checked %d", p.attempted, p.failed, p.checked)
	}
}

// totalsByName sums span durations per name.
func totalsByName(spans []spanData) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += s.End - s.Start
	}
	return out
}

func TestChromeTraceFansOutConcurrentSiblings(t *testing.T) {
	rec := newRecorder()
	root := rec.start(nil, "stage", 1)
	a := root.child("leaf.a")
	b := root.child("leaf.b") // starts while a is still open
	a.end()
	b.end()
	c := root.child("after") // sequential: back on the stage's lane
	c.end()
	root.end()
	path := t.TempDir() + "/trace.json"
	if err := rec.writeChrome(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			TID  int
			PID  int
		}
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	tid := map[string]int{}
	for _, e := range doc.TraceEvents {
		tid[e.Name] = e.TID
		if e.PID != 1 {
			t.Errorf("%s: pid %d, want the op id 1", e.Name, e.PID)
		}
	}
	if len(tid) != 4 || tid["leaf.a"] != tid["stage"] || tid["leaf.b"] == tid["leaf.a"] || tid["after"] != tid["stage"] {
		t.Errorf("lanes %v: leaf.b must leave the stage's lane, leaf.a and after stay on it", tid)
	}
}
