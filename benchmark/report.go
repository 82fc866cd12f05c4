package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"
)

func workloadNames() []string {
	names := make([]string, len(workloadDecls))
	for i, d := range workloadDecls {
		names[i] = d.Name
	}
	return names
}

func knownWorkload(name string) bool {
	for _, d := range workloadDecls {
		if d.Name == name {
			return true
		}
	}
	return false
}

func newWorkload(name string, seed int64, sz sizing, tmpRoot string) workload {
	switch name {
	case wBatchDense:
		return newBatchDense(seed, sz)
	case wBatchIO:
		return newBatchIO(seed, sz)
	case wDistTCP:
		return newDistTCP(seed, sz)
	case wServeJobs:
		return newServeJobs(seed, sz, tmpRoot)
	case wServeStream:
		return newServeStream(seed, sz, tmpRoot)
	}
	panic("benchmark: unknown workload " + name) // callers check knownWorkload
}

// workloadResult is everything one invocation learned about a workload.
type workloadResult struct {
	Workload  string             `json:"workload"`
	InputHash string             `json:"input_hash"`
	EndToEnd  map[string]float64 `json:"end_to_end,omitempty"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	Samples   int                `json:"samples"`
	TailP     float64            `json:"tail_percentile"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checked   int                `json:"outputs_checked"`
	Correct   bool               `json:"correct"`
	// RawP50 is op_wall_p50_s as the clock read it; Slowdown is the host
	// slowdown factor of each timed round (1 = a quiet reference box).
	RawP50   float64   `json:"raw_op_wall_p50_s,omitempty"`
	Slowdown []float64 `json:"host_slowdown,omitempty"`
	Notes    []string  `json:"notes,omitempty"`
}

// runRecord is one invocation, as -out stores it.
type runRecord struct {
	Seed      int64             `json:"seed"`
	Quick     bool              `json:"quick"`
	Seconds   float64           `json:"seconds"`
	Workloads []*workloadResult `json:"workloads"`
}

func (r *runRecord) attach(name string, layers *workloadResult) {
	for _, w := range r.Workloads {
		if w.Workload == name {
			w.PerLayer = layers.PerLayer
			w.Notes = append(w.Notes, layers.Notes...)
			return
		}
	}
	r.Workloads = append(r.Workloads, layers)
}

// timedSet measures the end-to-end metrics of the named workloads with
// the span recorder off. Each workload is set up setupRepeats times
// (setup_s is the median); the timed rounds are interleaved round-robin
// across the workloads so machine drift hits all alike.
func (inv *invocation) timedSet(names []string) ([]*workloadResult, error) {
	type live struct {
		w      workload
		setups []float64 // calibrated, seconds
		rounds []*tally
	}
	lives := make([]*live, len(names))
	defer func() {
		for _, l := range lives {
			if l != nil && l.w != nil {
				l.w.close()
			}
		}
	}()
	for i, name := range names {
		l := &live{}
		lives[i] = l
		for rep := 0; rep < setupRepeats; rep++ {
			if l.w != nil {
				l.w.close()
			}
			l.w = newWorkload(name, inv.seed, inv.sz, inv.tmpRoot)
			before := inv.kernel()
			t0 := time.Now()
			if err := l.w.setup(); err != nil {
				return nil, fmt.Errorf("%s set-up: %w", name, err)
			}
			raw := time.Since(t0).Seconds()
			l.setups = append(l.setups, raw/slowdownBetween(before, inv.kernel()))
		}
	}
	for round := 0; round < rounds; round++ {
		for i, l := range lives {
			// Back-to-back rounds of a single workload stay warm; when
			// workloads take turns, each turn starts cold.
			warm := round == 0 || len(lives) > 1
			r, err := oneRound(inv.kernel, l.w, round, warm, inv.duration/rounds)
			if err != nil {
				return nil, fmt.Errorf("%s round %d: %w", names[i], round+1, err)
			}
			l.rounds = append(l.rounds, r)
		}
	}
	results := make([]*workloadResult, len(names))
	for i, l := range lives {
		t := pool(l.rounds)
		res := &workloadResult{
			Workload:  names[i],
			InputHash: fmt.Sprintf("%016x", l.w.inputHash()),
			Samples:   len(t.walls),
			Attempted: t.attempted,
			Failed:    t.failed,
			Checked:   t.checked,
			RawP50:    median(t.rawWalls),
			Slowdown:  t.slowdown,
			Notes:     t.notes,
		}
		var err error
		if res.EndToEnd, res.TailP, err = endToEndMetrics(t, median(l.setups)); err != nil {
			return nil, fmt.Errorf("%s: %w", names[i], err)
		}
		res.Correct = res.Failed == 0 && res.Checked > 0 && res.EndToEnd[mQuality] >= qualityFloor
		results[i] = res
	}
	return results, nil
}

// tracedRun produces one workload's per-layer metrics on a fresh set-up
// and writes its spans as a Chrome trace.
func (inv *invocation) tracedRun(name string) (*workloadResult, error) {
	spin := inv.kernel()
	w := newWorkload(name, inv.seed, inv.sz, inv.tmpRoot)
	defer w.close()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	rec := newRecorder()
	m := layerMetrics{}
	if err := w.traced(rec, inv.duration, m); err != nil {
		return nil, err
	}
	m.set("harness.calib_spin_ms", spin)
	spans := rec.finished()
	if err := rec.writeChrome(filepath.Join(inv.traceDir, "trace-"+name+".json")); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	return &workloadResult{
		Workload:  name,
		InputHash: fmt.Sprintf("%016x", w.inputHash()),
		PerLayer:  m,
		Samples:   len(spans),
		Attempted: 1,
		Correct:   true,
		Notes:     selfTimeNotes(spans),
	}, nil
}

// selfTimeNotes lists the five span names with the most self time: the
// first thing to read in a trace.
func selfTimeNotes(spans []spanData) []string {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	if len(names) > 5 {
		names = names[:5]
	}
	notes := make([]string, len(names))
	for i, n := range names {
		notes[i] = fmt.Sprintf("self time %-28s %8.1f ms", n, millis(self[n]))
	}
	return notes
}

// layersOf lists the distinct layer prefixes of metric names, in order.
func layersOf(names []string) string {
	var out []string
	for _, n := range names {
		layer, _, _ := strings.Cut(n, ".")
		if len(out) == 0 || out[len(out)-1] != layer {
			out = append(out, layer)
		}
	}
	return strings.Join(out, " ")
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the object the driver reads from the last line of
// standard output. A per-layer metric the workload did not set reads 0.
func (r *workloadResult) driverLine(traced bool) map[string]any {
	metrics := make(map[string]metricJSON)
	if traced {
		for _, d := range perLayer {
			metrics[d.Name] = metricJSON{r.PerLayer[d.Name], d.Unit}
		}
	} else {
		for _, d := range endToEnd {
			metrics[d.Name] = metricJSON{r.EndToEnd[d.Name], d.Unit}
		}
	}
	return map[string]any{"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": metrics}
}

// printResult prints every metric of one workload by name with its
// unit; timing rows carry their sample count.
func printResult(w io.Writer, r *workloadResult, quick bool) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	tag := ""
	if quick {
		tag = "  [quick: not comparable]"
	}
	fmt.Fprintf(tw, "== %s  input %s%s\n", r.Workload, r.InputHash, tag)
	if r.EndToEnd != nil {
		for _, d := range endToEnd {
			note := ""
			switch d.Name {
			case mWallP50:
				note = fmt.Sprintf("n=%d", r.Samples)
			case mWallTail:
				note = fmt.Sprintf("n=%d p%.0f", r.Samples, r.TailP*100)
			case mQuality:
				note = fmt.Sprintf("%d outputs checked", r.Checked)
			case mOK:
				note = fmt.Sprintf("%d of %d ops", r.Attempted-r.Failed, r.Attempted)
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t%s\n", d.Name, r.EndToEnd[d.Name], d.Unit, note)
		}
		fmt.Fprintf(tw, "  raw op_wall_p50_s\t%.6g\ts\tas the clock read it, before calibration\n", r.RawP50)
	}
	var bypassed []string
	if r.PerLayer != nil {
		for _, d := range perLayer {
			v, ok := r.PerLayer[d.Name]
			if !ok {
				bypassed = append(bypassed, d.Name)
				continue
			}
			fmt.Fprintf(tw, "  %s\t%.6g\t%s\t\n", d.Name, v, d.Unit)
		}
	}
	tw.Flush()
	if len(bypassed) > 0 {
		fmt.Fprintf(w, "  %d metrics read 0 here, the workload bypasses their layers: %s\n", len(bypassed), layersOf(bypassed))
	}
	if r.EndToEnd != nil {
		fmt.Fprintf(w, "  host slowdown per round %.2f; timings from the %d of %d rounds with the highest throughput\n", r.Slowdown, roundsKept, rounds)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// outFile is the document -out maintains: one record per invocation.
type outFile struct {
	Runs []runRecord `json:"runs"`
}

func readOut(path string) (*outFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f outFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func appendRun(path string, rec runRecord) error {
	f, err := readOut(path)
	if errors.Is(err, fs.ErrNotExist) {
		f, err = &outFile{}, nil
	}
	if err != nil {
		return err
	}
	f.Runs = append(f.Runs, rec)
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// worseBy is how much worse new is than old, as a share of old, in the
// metric's own direction (negative = better).
func worseBy(metric string, old, new float64) float64 {
	if old == 0 {
		return 0
	}
	if betterOf(metric) == "higher" {
		return (old - new) / old
	}
	return (new - old) / old
}

// agree is the A/A check: two timed sets of the same code must agree on
// every end-to-end metric within the metric's own bound, either way.
func agree(w io.Writer, a, b []*workloadResult) bool {
	ok := true
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "A/A\tworkload\tmetric\tfirst\tsecond\tdiff\tbound\tverdict")
	for i := range a {
		for _, d := range endToEnd {
			x, y := a[i].EndToEnd[d.Name], b[i].EndToEnd[d.Name]
			diff := worseBy(d.Name, x, y)
			if diff < 0 {
				diff = worseBy(d.Name, y, x)
			}
			verdict := "ok"
			if diff > d.Bound {
				verdict, ok = "DISAGREE", false
			}
			fmt.Fprintf(tw, "\t%s\t%s\t%.6g\t%.6g\t%.1f%%\t%.1f%%\t%s\n", a[i].Workload, d.Name, x, y, diff*100, d.Bound*100, verdict)
		}
		fmt.Fprintf(tw, "\t%s\thost slowdown (median)\t%.2f\t%.2f\t\t\t\n", a[i].Workload, median(a[i].Slowdown), median(b[i].Slowdown))
	}
	tw.Flush()
	return ok
}

// compareFiles prints one row per workload × end-to-end metric: both
// medians over the files' runs, the bound and a verdict. "unresolved"
// means the runs of one side spread wider than the bound, so a
// difference of that size cannot be told from noise.
func compareFiles(w io.Writer, oldPath, newPath string) (bool, error) {
	oldF, err := readOut(oldPath)
	if err != nil {
		return false, err
	}
	newF, err := readOut(newPath)
	if err != nil {
		return false, err
	}
	collect := func(f *outFile) (map[string]map[string][]float64, bool) {
		vals := make(map[string]map[string][]float64)
		quick := false
		for _, run := range f.Runs {
			quick = quick || run.Quick
			for _, r := range run.Workloads {
				if r.EndToEnd == nil {
					continue
				}
				if vals[r.Workload] == nil {
					vals[r.Workload] = make(map[string][]float64)
				}
				for k, v := range r.EndToEnd {
					vals[r.Workload][k] = append(vals[r.Workload][k], v)
				}
			}
		}
		return vals, quick
	}
	oldV, oldQuick := collect(oldF)
	newV, newQuick := collect(newF)
	if oldQuick || newQuick {
		fmt.Fprintln(w, "warning: -quick runs present; their numbers are not comparable")
	}
	ok := true
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median (n)\tnew median (n)\tchange\tbound\tverdict")
	for _, wd := range workloadDecls {
		for _, d := range endToEnd {
			o, n := oldV[wd.Name][d.Name], newV[wd.Name][d.Name]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			om, nm := median(o), median(n)
			worse := worseBy(d.Name, om, nm)
			verdict := "ok"
			oSpread, oHas := spreadOf(o)
			nSpread, nHas := spreadOf(n)
			switch {
			case oHas && oSpread > d.Bound, nHas && nSpread > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict, ok = "regressed", false
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g (%d)\t%.6g (%d)\t%+.1f%%\t%.1f%%\t%s\n",
				wd.Name, d.Name, om, len(o), nm, len(n), (nm-om)/om*100, d.Bound*100, verdict)
		}
	}
	tw.Flush()
	return ok, nil
}
