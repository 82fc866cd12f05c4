package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"os"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/gdbscan"
	"repro/internal/geom"
	"repro/internal/gpusim"
	"repro/internal/kdtree"
	"repro/internal/lustre"
	"repro/internal/mrnet"
	pipeline "repro/internal/mrscan"
	"repro/internal/ptio"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// layerMetrics collects the per-layer metrics of one traced run. Every
// declared name a workload does not set reads 0: the workload bypasses
// that layer.
type layerMetrics map[string]float64

var declaredLayer = func() map[string]bool {
	m := make(map[string]bool, len(perLayer))
	for _, d := range perLayer {
		m[d.Name] = true
	}
	return m
}()

func (m layerMetrics) set(name string, v float64) {
	if !declaredLayer[name] {
		panic("benchmark: undeclared per-layer metric " + name) // a typo in this package
	}
	m[name] = v
}

func mbPerS(bytes int64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / d.Seconds()
}

// Probes time one layer's public call directly, a fixed number of
// times, with nothing else running. They cost tenths of a second each.

func probePtio(pts []geom.Point, m layerMetrics) error {
	t0 := time.Now()
	data := ptio.EncodeRecords(pts, false)
	enc := time.Since(t0)
	t0 = time.Now()
	back, err := ptio.DecodeRecords(data, false)
	dec := time.Since(t0)
	if err != nil || len(back) != len(pts) {
		return fmt.Errorf("ptio round trip: %d of %d records, %v", len(back), len(pts), err)
	}
	m.set("ptio.encode_mb_per_s", mbPerS(int64(len(data)), enc))
	m.set("ptio.decode_mb_per_s", mbPerS(int64(len(data)), dec))
	return nil
}

// probeLustre streams a striped file of mib MiB (64 at full size)
// through 1 MiB WriteAt and ReadAt calls, then issues 4 KiB writes at
// scattered offsets.
func probeLustre(mib int, m layerMetrics) error {
	const chunk, small, smallOps = 1 << 20, 4 << 10, 2000
	total := int64(mib) << 20
	fs := lustre.New(lustre.Titan(), nil)
	h := fs.Create("probe.bin")
	buf := make([]byte, chunk)
	for i := range buf {
		buf[i] = byte(i)
	}
	t0 := time.Now()
	for off := int64(0); off < total; off += chunk {
		if _, err := h.WriteAt(buf, off); err != nil {
			return fmt.Errorf("lustre write: %w", err)
		}
	}
	wr := time.Since(t0)
	t0 = time.Now()
	for off := int64(0); off < total; off += chunk {
		if _, err := h.ReadAt(buf, off); err != nil {
			return fmt.Errorf("lustre read: %w", err)
		}
	}
	rd := time.Since(t0)
	t0 = time.Now()
	for i := int64(0); i < smallOps; i++ {
		off := (i * 7919 * small) % (total - small)
		if _, err := h.WriteAt(buf[:small], off); err != nil {
			return fmt.Errorf("lustre small write: %w", err)
		}
	}
	sm := time.Since(t0)
	m.set("lustre.write_mb_per_s", mbPerS(total, wr))
	m.set("lustre.read_mb_per_s", mbPerS(total, rd))
	m.set("lustre.small_write_us", micros(sm)/smallOps)
	return nil
}

func probeGPULaunch(m layerMetrics) error {
	const launches = 2000
	dev := gpusim.New(gpusim.K20(), simclock.New())
	lc := gpusim.GridFor(1, 1)
	t0 := time.Now()
	for i := 0; i < launches; i++ {
		if err := dev.Launch("empty", lc, func(gpusim.KernelCtx) {}); err != nil {
			return fmt.Errorf("gpusim launch: %w", err)
		}
	}
	m.set("gpusim.launch_overhead_us", micros(time.Since(t0))/launches)
	return nil
}

// probeMrnet sends a trivial payload up and down a tree shaped like the
// workload's cluster network.
func probeMrnet(leaves int, m layerMetrics) error {
	const ops = 300
	ctx := context.Background()
	net, err := mrnet.New(leaves, mrnet.DefaultFanout, mrnet.TitanCosts(), simclock.New())
	if err != nil {
		return err
	}
	one := func(int) int64 { return 8 }
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		if _, err := mrnet.Reduce(ctx, net,
			func(int) (int, error) { return 1, nil },
			func(_ *mrnet.Node, in []int) (int, error) { return len(in), nil }, one); err != nil {
			return fmt.Errorf("mrnet reduce: %w", err)
		}
	}
	m.set("mrnet.reduce_overhead_us", micros(time.Since(t0))/ops)
	t0 = time.Now()
	for i := 0; i < ops; i++ {
		if err := mrnet.Multicast(ctx, net, 1, nil, func(int, int) error { return nil }, one); err != nil {
			return fmt.Errorf("mrnet multicast: %w", err)
		}
	}
	m.set("mrnet.multicast_overhead_us", micros(time.Since(t0))/ops)
	return nil
}

// probeTelemetry prices the program's own observability: one span
// opened and closed on a hub, one counter increment.
func probeTelemetry(spans int, m layerMetrics) (spanNS float64) {
	incs := 20 * spans
	hub := telemetry.New(nil)
	t0 := time.Now()
	for i := 0; i < spans; i++ {
		hub.Start(nil, "probe").End()
	}
	spanNS = float64(time.Since(t0)) / float64(spans)
	c := hub.Counter("probe_total")
	t0 = time.Now()
	for i := 0; i < incs; i++ {
		c.Inc()
	}
	m.set("telemetry.span_ns", spanNS)
	m.set("telemetry.counter_inc_ns", float64(time.Since(t0))/float64(incs))
	return spanNS
}

// probeCheckpoint saves and loads payload through a checkpoint.Store on
// a real directory, the backend the job server and the stream server
// use. out must point at a value of payload's type.
func probeCheckpoint(tmpRoot string, payload, out any, m layerMetrics) error {
	const reps = 5
	dir, err := os.MkdirTemp(tmpRoot, "ckpt-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var sized bytes.Buffer
	if err := gob.NewEncoder(&sized).Encode(payload); err != nil {
		return err
	}
	bk, err := checkpoint.DirFS(dir)
	if err != nil {
		return err
	}
	store := checkpoint.NewStore(bk, "probe")
	var save, load []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := store.Save("probe", payload); err != nil {
			return fmt.Errorf("checkpoint save: %w", err)
		}
		save = append(save, time.Since(t0).Seconds())
		t0 = time.Now()
		if err := store.Load("probe", out); err != nil {
			return fmt.Errorf("checkpoint load: %w", err)
		}
		load = append(load, time.Since(t0).Seconds())
	}
	mb := float64(sized.Len()) / 1e6
	m.set("checkpoint.save_mb_per_s", mb/median(save))
	m.set("checkpoint.load_mb_per_s", mb/median(load))
	return nil
}

// clusterProbe is the cluster phase's work on a set of partitions, one
// after another on one device and one workspace: uncontended busy times
// per leaf, plus the exact counts the run produced.
type clusterProbe struct {
	sum, max    time.Duration // gdbscan.Cluster
	kdBuild     time.Duration // Σ kdtree.Workspace.Build
	countRange  time.Duration // per Flat.CountRange call, largest partition
	totalPoints int64
	gstats      gdbscan.Stats
	dev         gpusim.Stats
}

func probeCluster(rec *recorder, parent *span, op int, parts [][]geom.Point, cfg pipeline.Config) (clusterProbe, error) {
	var p clusterProbe
	gpu := cfg.GPU
	gpu.Name = "gpu-probe"
	dev := gpusim.New(gpu, simclock.New())
	var ws gdbscan.Workspace
	var kd kdtree.Workspace
	largest := 0
	for i, pts := range parts {
		p.totalPoints += int64(len(pts))
		if len(pts) > len(parts[largest]) {
			largest = i
		}
		var res *gdbscan.Result
		d, err := timed(rec, parent, "gdbscan.cluster", op, func() error {
			var err error
			res, err = gdbscan.Cluster(dev, pts, clusterOptions(cfg, &ws))
			return err
		})
		if err != nil {
			return p, fmt.Errorf("gdbscan on partition %d: %w", i, err)
		}
		p.sum += d
		if d > p.max {
			p.max = d
		}
		p.gstats.DenseBoxPoints += res.Stats.DenseBoxPoints
		p.gstats.CorePoints += res.Stats.CorePoints
		p.gstats.SeedRounds += res.Stats.SeedRounds
		p.gstats.Collisions += res.Stats.Collisions
		d, _ = timed(rec, parent, "kdtree.build", op, func() error {
			kd.Build(pts, cfg.LeafSize)
			return nil
		})
		p.kdBuild += d
	}
	p.dev = dev.Stats()
	if len(parts) > 0 {
		p.countRange = probeCountRange(&kd, parts[largest], cfg)
	}
	return p, nil
}

// probeCountRange times Flat.CountRange at the workload's Eps and
// MinPts over every point of one partition — the classification
// kernel's inner call.
func probeCountRange(kd *kdtree.Workspace, pts []geom.Point, cfg pipeline.Config) time.Duration {
	if len(pts) == 0 {
		return 0
	}
	_, flat := kd.Build(pts, cfg.LeafSize)
	xs := make([]float64, len(pts))
	ys := make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	t0 := time.Now()
	n := 0
	for i := range pts {
		n += flat.CountRange(xs, ys, xs[i], ys[i], cfg.Eps, int32(i), cfg.MinPts-1)
	}
	kernelSink += n
	return time.Since(t0) / time.Duration(len(pts))
}

func (p clusterProbe) report(m layerMetrics) {
	m.set("kdtree.build_s", seconds(p.kdBuild))
	m.set("kdtree.count_range_ns", float64(p.countRange))
	m.set("gdbscan.cluster_s", seconds(p.sum))
	m.set("gdbscan.max_leaf_s", seconds(p.max))
	if p.totalPoints > 0 {
		m.set("gdbscan.dense_box_point_share", float64(p.gstats.DenseBoxPoints)/float64(p.totalPoints))
		m.set("gdbscan.core_point_share", float64(p.gstats.CorePoints)/float64(p.totalPoints))
	}
	m.set("gdbscan.seed_rounds", float64(p.gstats.SeedRounds))
	m.set("gdbscan.collisions", float64(p.gstats.Collisions))
	m.set("gpusim.kernel_launches", float64(p.dev.KernelLaunches))
	m.set("gpusim.h2d_mb", float64(p.dev.H2DBytes)/1e6)
	m.set("gpusim.d2h_mb", float64(p.dev.D2HBytes)/1e6)
	m.set("gpusim.kernel_wall_s", seconds(p.dev.KernelWall))
	if n := p.dev.PoolHits + p.dev.PoolMisses; n > 0 {
		m.set("gpusim.pool_hit_ratio", float64(p.dev.PoolHits)/float64(n))
	}
}
