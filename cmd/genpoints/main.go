// Command genpoints generates the paper's synthetic datasets (§4) as
// MRSC binary or text point files on the local file system.
//
// Usage:
//
//	genpoints -dist twitter -n 1000000 -seed 42 -o tweets.mrsc
//	genpoints -dist sdss -n 500000 -format text -o sky.txt
//	genpoints -dist uniform -n 100000 -o noise.mrsc
//	genpoints -dist blobs -n 100000 -blobs 12 -sigma 0.2 -o blobs.mrsc
//
// With -firehose it instead emits a timestamped stream for the sliding-
// window engine: drifting Twitter-style hotspots over background noise,
// one "tick id x y" line per point, in tick order. Feed it to a stream
// via the /api/v1/streams API or replay it in tests.
//
//	genpoints -firehose -ticks 60 -per-tick 5000 -seed 42 -o firehose.txt
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/ptio"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: it parses args, writes the file and
// returns the exit status — 2 for a bad command line, 1 for a failed
// write.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("genpoints", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dist   = fs.String("dist", "twitter", "distribution: twitter | sdss | uniform | blobs")
		n      = fs.Int("n", 100_000, "number of points")
		seed   = fs.Int64("seed", 1, "random seed")
		out    = fs.String("o", "points.mrsc", "output file")
		format = fs.String("format", "bin", "output format: bin | text")
		blobs  = fs.Int("blobs", 10, "blob count (blobs distribution)")
		sigma  = fs.Float64("sigma", 0.2, "blob spread (blobs distribution)")
		weight = fs.Bool("weight", false, "include the per-point weight field")

		firehose = fs.Bool("firehose", false, "generate a timestamped firehose stream instead of a static dataset")
		ticks    = fs.Int("ticks", 60, "firehose: number of ticks")
		perTick  = fs.Int("per-tick", 1000, "firehose: points per tick")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	var err error
	if *firehose {
		err = writeFirehose(stdout, *ticks, *perTick, *seed, *out)
	} else {
		err = writeStatic(stdout, *dist, *n, *seed, *out, *format, *blobs, *sigma, *weight)
	}
	if err != nil {
		fmt.Fprintln(stderr, "genpoints:", err)
		return 1
	}
	return 0
}

// writeFirehose writes one "tick id x y" text line per point, tick-major,
// so the file replays in arrival order.
func writeFirehose(stdout io.Writer, ticks, perTick int, seed int64, out string) error {
	if ticks <= 0 || perTick <= 0 {
		return fmt.Errorf("firehose needs positive -ticks and -per-tick, got %d and %d", ticks, perTick)
	}
	batches := dataset.Firehose(ticks, perTick, seed, dataset.DefaultFirehoseOptions())
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	for ti, batch := range batches {
		for _, p := range batch {
			fmt.Fprintf(w, "%d %d %g %g\n", ti, p.ID, p.X, p.Y)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d firehose points (%d ticks x %d) to %s\n", ticks*perTick, ticks, perTick, out)
	return f.Close()
}

// writeStatic writes n points of one distribution as an MRSC binary or
// text point file.
func writeStatic(stdout io.Writer, dist string, n int, seed int64, out, format string, blobs int, sigma float64, weight bool) error {
	var pts []geom.Point
	world := geom.Rect{MinX: -180, MinY: -90, MaxX: 180, MaxY: 90}
	switch dist {
	case "twitter":
		pts = dataset.Twitter(n, seed)
	case "sdss":
		pts = dataset.SDSS(n, seed)
	case "uniform":
		pts = dataset.Uniform(n, seed, world)
	case "blobs":
		pts = dataset.Blobs(n, blobs, sigma, seed, world)
	default:
		return fmt.Errorf("unknown distribution %q", dist)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	switch format {
	case "bin":
		err = ptio.WriteDataset(f, pts, weight)
	case "text":
		err = ptio.WriteText(f, pts, weight)
	default:
		return fmt.Errorf("unknown format %q", format)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d %s points to %s (%s)\n", n, dist, out, format)
	return f.Close()
}
