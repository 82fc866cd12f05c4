// Command render draws a clustered output (MRSL file) as a PPM image or
// ASCII art — the quickest way to eyeball a Mr. Scan result, in the
// spirit of the paper's Figure 2 renderings of partitioned tweets.
//
// Usage:
//
//	render -input clusters.mrsl -o clusters.ppm -w 1200 -h 800
//	render -input clusters.mrsl -ascii -w 120 -h 40
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/geom"
	"repro/internal/ptio"
	"repro/internal/viz"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the command behind main: it parses args, draws the picture and
// returns the exit status — 2 for a bad command line, 1 for a failed run.
// ASCII art and the PPM's summary line go to stdout.
func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("render", flag.ContinueOnError)
	flags.SetOutput(stderr)
	var (
		input  = flags.String("input", "", "MRSL labeled file (required)")
		out    = flags.String("o", "clusters.ppm", "output PPM file")
		width  = flags.Int("w", 1024, "raster width")
		height = flags.Int("h", 768, "raster height")
		ascii  = flags.Bool("ascii", false, "print ASCII art to stdout instead of writing a PPM")
		noise  = flags.Bool("noise", true, "draw noise points (gray / ',')")
	)
	if err := flags.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *input == "" {
		fmt.Fprintln(stderr, "render: -input is required")
		flags.Usage()
		return 2
	}
	if err := render(stdout, *input, *out, *width, *height, *ascii, *noise); err != nil {
		fmt.Fprintln(stderr, "render:", err)
		return 1
	}
	return 0
}

func render(stdout io.Writer, input, out string, width, height int, ascii, noise bool) error {
	f, err := os.Open(input)
	if err != nil {
		return err
	}
	defer f.Close()
	records, err := ptio.ReadLabeled(f)
	if err != nil {
		return err
	}
	pts := make([]geom.Point, len(records))
	labels := make([]int, len(records))
	for i, lp := range records {
		pts[i] = lp.Point
		labels[i] = int(lp.Cluster)
	}
	if ascii {
		art, err := viz.ASCII(pts, labels, width, height, noise)
		if err != nil {
			return err
		}
		_, err = io.WriteString(stdout, art)
		return err
	}
	dst, err := os.Create(out)
	if err != nil {
		return err
	}
	err = viz.WritePPM(dst, pts, labels, viz.Options{Width: width, Height: height, ShowNoise: noise})
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "rendered %d points to %s (%dx%d)\n", len(records), out, width, height)
	return err
}
