// Package mrscan reproduces "Mr. Scan: Extreme Scale Density-Based
// Clustering using a Tree-Based Network of GPGPU Nodes" (Welton, Samanas
// & Miller, SC13) as a pure-Go library.
//
// Mr. Scan is a distributed DBSCAN with four phases — partition, cluster,
// merge, sweep — executed over an MRNet-style tree of processes whose
// leaves run a GPGPU DBSCAN with the paper's dense-box optimization. The
// hardware of the paper's testbed (Cray Titan: K20 GPUs, Lustre, ALPS) is
// provided as faithful simulators; see DESIGN.md for the substitution
// table.
//
// Quick start:
//
//	pts := mrscan.Twitter(100_000, 42)
//	res, labels, err := mrscan.RunPoints(pts, mrscan.Default(0.1, 40, 8))
//
// The package is a facade over the internal packages; applications that
// need the substrates directly (the tree network, the GPGPU simulator,
// the parallel file system) can use the exported wrappers here, while the
// experiment harness in cmd/experiments regenerates every table and
// figure of the paper's evaluation.
package mrscan

import (
	"context"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/mrscan"
	"repro/internal/ptio"
	"repro/internal/quality"
	"repro/internal/stream"
	"repro/internal/sweep"
)

// Point is a single input datum: unique ID, planar coordinates, optional
// analysis weight.
type Point = geom.Point

// Rect is an axis-aligned rectangle, used to bound generated datasets.
type Rect = geom.Rect

// Noise is the label reported for points in low-density regions.
const Noise = geom.Noise

// Config configures a full Mr. Scan run. The zero value is invalid; start
// from Default.
type Config = mrscan.Config

// Result reports a completed run: cluster count, per-phase times
// (partition / cluster / merge / sweep / GPGPU DBSCAN) and run statistics.
type Result = mrscan.Result

// PhaseTimes is the per-phase wall-clock breakdown (the units of the
// paper's Figures 8–10).
type PhaseTimes = mrscan.PhaseTimes

// FS is the simulated Lustre-style parallel file system runs execute
// against.
type FS = lustre.FS

// LabeledPoint is one output record: a point plus its global cluster ID.
type LabeledPoint = ptio.LabeledPoint

// Default returns the paper's experimental configuration: dense box on,
// partition rebalancing on, 256-way tree fanout, one simulated K20 per
// leaf.
func Default(eps float64, minPts, leaves int) Config {
	return mrscan.Default(eps, minPts, leaves)
}

// NewFS creates a simulated parallel file system with Titan-like striping
// and bandwidth parameters.
func NewFS() *FS {
	return lustre.New(lustre.Titan(), nil)
}

// WriteDataset stores pts as an MRSC dataset file on fs.
func WriteDataset(fs *FS, name string, pts []Point, hasWeight bool) error {
	return ptio.WriteDataset(fs.Create(name), pts, hasWeight)
}

// ReadOutput loads every labeled record from a run's output file.
func ReadOutput(fs *FS, name string) ([]LabeledPoint, error) {
	return sweep.ReadOutput(fs, name)
}

// Run executes the full four-phase pipeline against inputFile on fs,
// writing labeled output to outputFile.
func Run(fs *FS, inputFile, outputFile string, cfg Config) (*Result, error) {
	return mrscan.Run(fs, inputFile, outputFile, cfg)
}

// RunContext is Run under a caller context: cancellation or deadline
// expiry aborts the pipeline at the next phase or tree-hop boundary. The
// returned error wraps the context error, and the partial Result lists
// the phases that completed before the abort — with Config.Checkpoint
// those phases are durable, so a later Resume run picks up where the
// deadline struck. Long-running callers (the mrscand job server, CLIs
// with -deadline) use this entry point.
func RunContext(ctx context.Context, fs *FS, inputFile, outputFile string, cfg Config) (*Result, error) {
	return mrscan.RunContext(ctx, fs, inputFile, outputFile, cfg)
}

// RunPoints is the in-memory convenience entry point: it provisions a
// fresh simulated file system, stores pts, runs the pipeline, and returns
// per-point global cluster labels aligned with pts (-1 = noise). Labels
// are matched to pts by ID, so the IDs must be distinct: a repeated ID
// fails the run with an error that says so.
func RunPoints(pts []Point, cfg Config) (*Result, []int, error) {
	return mrscan.RunPoints(pts, cfg)
}

// RunPointsContext is RunPoints under a caller context, aborting at the
// next phase boundary on cancellation or deadline expiry.
func RunPointsContext(ctx context.Context, pts []Point, cfg Config) (*Result, []int, error) {
	return mrscan.RunPointsContext(ctx, pts, cfg)
}

// DBSCAN runs the reference sequential DBSCAN (Ester et al., KDD'96) — an
// exact cell-graph computation sharing no code with the pipeline, the
// implementation Mr. Scan's quality is measured against. Returns
// per-point labels (-1 = noise).
func DBSCAN(pts []Point, eps float64, minPts int) ([]int, error) {
	res, err := dbscan.Cluster(pts, geom.Params{Eps: eps, MinPts: minPts})
	if err != nil {
		return nil, err
	}
	return res.Labels, nil
}

// Stream is a sliding-window incremental DBSCAN engine: Tick ingests a
// batch of points and expires the batch from WindowTicks ago, repairing
// cluster labels by re-evaluating only the grid cells the tick dirtied
// (plus their neighbor rings). Labels after every tick match a batch
// DBSCAN over the current window contents.
type Stream = stream.Engine

// StreamConfig parameterizes a Stream: Eps/MinPts as in DBSCAN, the
// window length in ticks, and a metrics name and telemetry hub.
type StreamConfig = stream.Config

// StreamTickStats summarizes the incremental work one Tick performed.
type StreamTickStats = stream.TickStats

// StreamSnapshot is a consistent labeled view of a Stream's window.
type StreamSnapshot = stream.Snapshot

// StreamWindowState is a Stream's durable state: the arrival batches
// still inside the window. Labels are recomputed on restore.
type StreamWindowState = stream.WindowState

// NewStream returns an empty sliding-window engine.
func NewStream(cfg StreamConfig) (*Stream, error) {
	return stream.New(cfg)
}

// RestoreStream rebuilds a Stream from saved window state; the restored
// engine reproduces the saving engine's labels exactly.
func RestoreStream(cfg StreamConfig, ws StreamWindowState) (*Stream, error) {
	return stream.Restore(cfg, ws)
}

// Firehose generates a seeded stream of tick batches with drifting
// Twitter-style hotspots — the input shape Stream is built for.
func Firehose(ticks, perTick int, seed int64) [][]Point {
	return dataset.Firehose(ticks, perTick, seed, dataset.DefaultFirehoseOptions())
}

// Quality computes the DBDC quality metric of §5.1.3: the mean over
// points of |A∩B|/|A∪B| between reference and candidate clusters, 0 for
// noise mismatches, 1.0 for identical clusterings.
func Quality(ref, got []int) (float64, error) {
	return quality.Score(ref, got)
}

// Twitter generates n points from the Twitter-like geospatial
// distribution of §4.1 (a weighted mixture over world population centers
// plus background noise), deterministically from seed.
func Twitter(n int, seed int64) []Point {
	return dataset.Twitter(n, seed)
}

// SDSS generates n points resembling Sloan Digital Sky Survey γ-frame
// photo-object detections (§4.2), deterministically from seed.
func SDSS(n int, seed int64) []Point {
	return dataset.SDSS(n, seed)
}

// Uniform generates n points uniformly over r.
func Uniform(n int, seed int64, r Rect) []Point {
	return dataset.Uniform(n, seed, r)
}

// Blobs generates n points in k Gaussian blobs over r — a controlled
// workload for cluster-count tests.
func Blobs(n, k int, sigma float64, seed int64, r Rect) []Point {
	return dataset.Blobs(n, k, sigma, seed, r)
}
