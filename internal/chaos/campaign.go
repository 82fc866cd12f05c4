package chaos

// The campaign runner: the one seed loop, per-seed deadline, verdict,
// tally, report and log line behind all five modes. A mode is a
// Scenario — an options struct holding its own knobs with a run method
// that drives one seed and audits that mode's invariants. The fixtures
// more than one scenario stands on close the file.

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/mrscan"
	"repro/internal/ptio"
	"repro/internal/server"
)

// Campaign is what every mode's campaign is configured with, whatever
// the scenario.
type Campaign struct {
	// Seeds are the schedules to run, one scenario run per seed.
	Seeds []int64
	// RunTimeout is one seed's wall-time budget (default 2m), all of it:
	// reference runs, every crash point, every leg. A seed that outlives
	// it is a FAIL, not a hang.
	RunTimeout time.Duration
	// Logf, when set, receives one progress line per seed.
	Logf func(format string, args ...any)
}

// Seeds returns [base, base+n) for convenience.
func Seeds(base int64, n int) []int64 {
	s := make([]int64, n)
	for i := range s {
		s[i] = base + int64(i)
	}
	return s
}

// Outcome classifies one audited run.
type Outcome string

const (
	// OutcomeOK: the run completed and every invariant held.
	OutcomeOK Outcome = "ok"
	// OutcomeFaulted: the run failed loudly (fail-stop) — acceptable, as
	// long as the corruption ledger still balances.
	OutcomeFaulted Outcome = "faulted"
	// OutcomeFail: an invariant broke — silent escape, quality below the
	// floor, lost acknowledged state, untyped rejection, or timeout.
	// Campaigns must report zero of these.
	OutcomeFail Outcome = "FAIL"
)

// Verdict is the judgement every audited report carries, whether it is
// a seed's run or one crash point inside it.
type Verdict struct {
	Outcome Outcome `json:"outcome"`
	Reason  string  `json:"reason,omitempty"`
}

func (v *Verdict) fail(reason string) { v.Outcome, v.Reason = OutcomeFail, reason }

// failf stamps r as failed for the formatted reason and hands it back,
// so an audit leaves with `return failf(rep, ...)` at the broken
// invariant.
func failf[R interface{ fail(reason string) }](r R, format string, args ...any) R {
	r.fail(fmt.Sprintf(format, args...))
	return r
}

// Header opens every per-seed report. The scenario decides the verdict;
// the runner stamps Seed and Elapsed.
type Header struct {
	Seed int64 `json:"seed"`
	Verdict
	Elapsed time.Duration `json:"elapsed_ns"`
}

func (h *Header) header() *Header { return h }

// seedReport is what a scenario returns for one seed: a pointer to a
// struct that embeds Header.
type seedReport interface {
	header() *Header
	fail(reason string)
}

// Scenario is one chaos mode. Its knobs are the fields of the
// implementing options struct.
type Scenario[R seedReport] interface {
	// run drives one seeded schedule and audits the mode's invariants.
	// ctx carries the seed's whole budget; run derives what it blocks on
	// from it and never sets a longer deadline of its own.
	run(ctx context.Context, seed int64) R
	// summarize renders the finished campaign's one summary line and
	// returns the campaign-level counts only this mode reports, by JSON
	// name (nil for none); runs, ok and failed are the runner's.
	summarize(rpt *Report[R]) (line string, totals map[string]int)
}

// Report aggregates a campaign of any mode.
type Report[R seedReport] struct {
	Runs []R
	// OK, Faulted and Failed tally the runs by outcome. Only the pipeline
	// scenario produces (and reports) Faulted.
	OK, Faulted, Failed int

	summary string
	totals  map[string]int
}

// Run executes the campaign sequentially (a run is itself concurrent
// inside) and aggregates the report.
func Run[R seedReport](ctx context.Context, c Campaign, s Scenario[R]) *Report[R] {
	if c.RunTimeout <= 0 {
		c.RunTimeout = 2 * time.Minute
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	rpt := &Report[R]{}
	for _, seed := range c.Seeds {
		r := runSeed(ctx, c.RunTimeout, s, seed)
		h := r.header()
		rpt.Runs = append(rpt.Runs, r)
		line := string(h.Outcome)
		switch h.Outcome {
		case OutcomeOK:
			rpt.OK++
		case OutcomeFaulted:
			rpt.Faulted++
		default:
			rpt.Failed++
			line += ": " + h.Reason
		}
		c.Logf("seed %d: %s in %v", seed, line, h.Elapsed.Round(time.Millisecond))
	}
	rpt.summary, rpt.totals = s.summarize(rpt)
	return rpt
}

// runSeed is the only place a seed's deadline is made and enforced.
func runSeed[R seedReport](ctx context.Context, budget time.Duration, s Scenario[R], seed int64) R {
	start := time.Now()
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	r := s.run(ctx, seed)
	h := r.header()
	h.Seed, h.Elapsed = seed, time.Since(start)
	if ctx.Err() != nil && h.Outcome != OutcomeFail {
		failf(r, "seed outlived its %v budget: %v", budget, ctx.Err())
	}
	return r
}

// MarshalJSON writes runs, ok and failed plus the scenario's own
// totals, so each mode's report keeps exactly its keys.
func (r *Report[R]) MarshalJSON() ([]byte, error) {
	out := map[string]any{"runs": r.Runs, "ok": r.OK, "failed": r.Failed}
	for name, n := range r.totals {
		out[name] = n
	}
	return json.Marshal(out)
}

// Summary is the campaign's one-line result.
func (r *Report[R]) Summary() string { return r.summary }

// Failures lists every FAILed seed with its reason.
func (r *Report[R]) Failures() []string {
	var out []string
	for _, run := range r.Runs {
		if h := run.header(); h.Outcome == OutcomeFail {
			out = append(out, fmt.Sprintf("seed %d: %s", h.Seed, h.Reason))
		}
	}
	return out
}

// plainSummary is summarize for the modes with no totals of their own.
func plainSummary[R seedReport](mode string, rpt *Report[R]) (string, map[string]int) {
	return fmt.Sprintf("chaos %s: %d runs: %d ok, %d FAILED", mode, len(rpt.Runs), rpt.OK, rpt.Failed), nil
}

// orDefault sets a knob the caller left unset (zero or negative).
func orDefault[T int | float64](knob *T, def T) {
	if *knob <= 0 {
		*knob = def
	}
}

// paperFloor is the paper's §5.1.3 DBDC quality floor: what a
// full-quality run must score against the fault-free reference when its
// labels are not identical to it.
const paperFloor = 0.995

// The pipeline's file names on every staged file system.
const (
	inputFile  = "input.mrsc"
	outputFile = "output.mrsl"
)

// writeInput writes pts as the pipeline input on fs.
func writeInput(fs *lustre.FS, pts []geom.Point) error {
	return ptio.WriteDataset(fs.Create(inputFile), pts, false)
}

// stagedTitan returns a fresh Titan file system holding pts as the
// pipeline input.
func stagedTitan(pts []geom.Point) (*lustre.FS, error) {
	fs := lustre.New(lustre.Titan(), nil)
	return fs, writeInput(fs, pts)
}

// baseConfig is the pipeline configuration a scenario's faulted runs and
// their fault-free reference share.
func baseConfig(leaves int) mrscan.Config {
	cfg := mrscan.Default(0.1, 20, leaves)
	cfg.IncludeNoise = true
	return cfg
}

// referenceLabels runs the pipeline fault-free on pts and returns its
// labels: the oracle every faulted run of the same points is held to.
func referenceLabels(ctx context.Context, pts []geom.Point, leaves int) ([]int, error) {
	_, labels, err := mrscan.RunPointsContext(ctx, pts, baseConfig(leaves))
	if err != nil {
		return nil, fmt.Errorf("fault-free reference run: %w", err)
	}
	return labels, nil
}

// waitTerminal polls srv until every job in ids is terminal, a job turns
// out to be unknown, or ctx ends.
func waitTerminal(ctx context.Context, srv *server.Server, ids []string) error {
	for {
		pending := ""
		for _, id := range ids {
			st, err := srv.Status(id)
			if err != nil {
				return fmt.Errorf("job %s: %w", id, err)
			}
			if !st.State.Terminal() {
				pending = id
				break
			}
		}
		if pending == "" {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("job %s not terminal: %w", pending, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}
