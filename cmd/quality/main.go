// Command quality evaluates a Mr. Scan output with the paper's §5.1.3
// metric (the DBDC score, Figure 11): either against a sequential DBSCAN
// run on the original input, or against a second labeled output.
//
// Usage:
//
//	quality -input tweets.mrsc -output clusters.mrsl -eps 0.1 -minpts 40
//	quality -a run1.mrsl -b run2.mrsl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/ptio"
	"repro/internal/quality"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: it parses args, scores, prints the
// result to stdout and returns the exit status — 2 for a bad command line,
// 1 for a failed run.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("quality", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		input  = flags.String("input", "", "MRSC input dataset (reference mode)")
		output = flags.String("output", "", "MRSL labeled output to score (reference mode)")
		eps    = flags.Float64("eps", 0.1, "DBSCAN Eps for the reference run")
		minPts = flags.Int("minpts", 40, "DBSCAN MinPts for the reference run")
		fileA  = flags.String("a", "", "first MRSL output (comparison mode)")
		fileB  = flags.String("b", "", "second MRSL output (comparison mode)")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var err error
	switch {
	case *fileA != "" && *fileB != "":
		err = compareOutputs(stdout, *fileA, *fileB)
	case *input != "" && *output != "":
		err = scoreAgainstReference(stdout, *input, *output, *eps, *minPts)
	default:
		fmt.Fprintln(stderr, "quality: need either -input/-output or -a/-b")
		flags.Usage()
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "quality:", err)
		return 1
	}
	return 0
}

func readLabeled(name string) (map[uint64]int64, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	records, err := ptio.ReadLabeled(f)
	if err != nil {
		return nil, err
	}
	out := make(map[uint64]int64, len(records))
	for _, lp := range records {
		if _, dup := out[lp.Point.ID]; dup {
			return nil, fmt.Errorf("%s: point %d labeled twice", name, lp.Point.ID)
		}
		out[lp.Point.ID] = lp.Cluster
	}
	return out, nil
}

func scoreAgainstReference(stdout io.Writer, input, output string, eps float64, minPts int) error {
	in, err := os.Open(input)
	if err != nil {
		return err
	}
	defer in.Close()
	pts, err := ptio.ReadDataset(in)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "running sequential DBSCAN on %d points (eps=%g minPts=%d)...\n", len(pts), eps, minPts)
	ref, err := dbscan.Cluster(pts, geom.Params{Eps: eps, MinPts: minPts})
	if err != nil {
		return err
	}
	got, err := readLabeled(output)
	if err != nil {
		return err
	}
	labels := make([]int, len(pts))
	for i, p := range pts {
		if c, ok := got[p.ID]; ok {
			labels[i] = int(c)
		} else {
			labels[i] = quality.Noise
		}
	}
	score, err := quality.Score(ref.Labels, labels)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "reference clusters: %d\n", ref.NumClusters)
	fmt.Fprintf(stdout, "quality score:      %.5f  (paper's Figure 11 floor: 0.995)\n", score)
	return nil
}

func compareOutputs(stdout io.Writer, fileA, fileB string) error {
	a, err := readLabeled(fileA)
	if err != nil {
		return err
	}
	b, err := readLabeled(fileB)
	if err != nil {
		return err
	}
	// Align by point ID over the union of both outputs; absent = noise.
	ids := make(map[uint64]bool, len(a)+len(b))
	for id := range a {
		ids[id] = true
	}
	for id := range b {
		ids[id] = true
	}
	la := make([]int, 0, len(ids))
	lb := make([]int, 0, len(ids))
	for id := range ids {
		la = append(la, labelOf(a, id))
		lb = append(lb, labelOf(b, id))
	}
	score, err := quality.Score(la, lb)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "points compared: %d\n", len(ids))
	fmt.Fprintf(stdout, "quality score:   %.5f\n", score)
	return nil
}

func labelOf(m map[uint64]int64, id uint64) int {
	if c, ok := m[id]; ok {
		return int(c)
	}
	return quality.Noise
}
