package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	front "repro"
	"repro/internal/checkpoint"
	"repro/internal/distrib"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/merge"
	"repro/internal/partition"
	"repro/internal/server"
	"repro/internal/stream"
)

// This file holds each workload's traced run: the front-door op again
// with the span recorder on (its difference from the plain op is the
// tracing overhead), then the layers it crosses, one by one, under the
// benchmark's spans.

// alternate runs op plain and traced in turn for about budget (at least
// twice each) and returns both sets of walls in seconds.
func alternate(rec *recorder, name string, budget time.Duration, op func() error) (plain, traced []float64, err error) {
	deadline := time.Now().Add(budget)
	for i := 0; i < 2 || time.Now().Before(deadline); i++ {
		t0 := time.Now()
		if err := op(); err != nil {
			return nil, nil, err
		}
		plain = append(plain, time.Since(t0).Seconds())
		sp := rec.start(nil, name, i+1)
		t0 = time.Now()
		err := op()
		sp.end()
		if err != nil {
			return nil, nil, err
		}
		traced = append(traced, time.Since(t0).Seconds())
	}
	return plain, traced, nil
}

func overheadShare(plain, traced []float64) float64 {
	if p := median(plain); p > 0 {
		return median(traced)/p - 1
	}
	return 0
}

// replayReps is how many times a traced batch run replays its input.
const replayReps = 3

// The traced batch and dist runs follow the first of the workload's
// inputs through the layers.
func (w *batchWorkload) traced(rec *recorder, budget time.Duration, m layerMetrics) error {
	cfg, in := w.config(), w.ins[0]
	var res *front.Result
	var labels []int
	var opWall time.Duration
	plain, traced, err := alternate(rec, "RunPoints", budget/2, func() error {
		t0 := time.Now()
		var err error
		res, labels, err = front.RunPoints(in.pts, cfg)
		opWall = time.Since(t0)
		return err
	})
	if err != nil {
		return err
	}
	m.set("harness.trace_overhead_share", overheadShare(plain, traced))
	m.set("dataset.generate_s", seconds(in.genTime))
	m.set("dbscan.reference_s", seconds(in.refTime))

	// The driver's own account of the last op.
	tm := res.Times
	m.set("mrscan.phase_partition_s", seconds(tm.Partition))
	m.set("mrscan.phase_cluster_s", seconds(tm.Cluster))
	m.set("mrscan.phase_merge_s", seconds(tm.Merge))
	m.set("mrscan.phase_sweep_s", seconds(tm.Sweep))
	m.set("mrscan.unattributed_s", seconds(opWall-tm.Partition-tm.Cluster-tm.Merge-tm.Sweep))
	m.set("mrscan.sim_total_s", seconds(res.Stats.SimNow))
	spans := float64(len(res.Telemetry.Trace.Spans()))
	m.set("telemetry.spans_per_op", spans)
	m.set("telemetry.spans_dropped", float64(res.Telemetry.Trace.Dropped()))

	// The same input through the layers under the benchmark's spans,
	// replayReps times; the replay with the median wall is reported.
	replays := make([]*replayOut, replayReps)
	for i := range replays {
		rp, err := stagedReplay(rec, i+1, in.pts, cfg)
		if err != nil {
			return err
		}
		if !stream.Isomorphic(rp.labels, labels) {
			return fmt.Errorf("staged replay's labels are not cluster-isomorphic to RunPoints'")
		}
		replays[i] = rp
	}
	sort.Slice(replays, func(i, j int) bool { return replays[i].coverageWall < replays[j].coverageWall })
	rp := replays[replayReps/2]
	opS := median(plain)
	m.set("mrscan.replay_coverage", seconds(rp.coverageWall)/opS)
	m.set("mrscan.labels_by_id_s", seconds(rp.labelsByID))
	m.set("ptio.write_dataset_s", seconds(rp.writeDataset))
	m.set("partition.distribute_s", seconds(rp.distribute))
	m.set("partition.make_plan_s", seconds(rp.makePlan))
	m.set("partition.split_s", seconds(rp.split))
	m.set("partition.read_partition_s", seconds(rp.readPartition))
	m.set("partition.shadow_ratio", float64(rp.dist.WrittenPoints)/float64(rp.dist.TotalPoints))
	m.set("partition.imbalance", float64(rp.dist.Plan.MaxTotal())/rp.dist.Plan.MeanTotal())
	m.set("partition.write_sim_s", seconds(rp.dist.WriteSim))
	m.set("partition.read_sim_s", seconds(rp.dist.ReadSim))
	m.set("lustre.write_ops", float64(rp.fs.WriteOps))
	m.set("lustre.bytes_written", float64(rp.fs.BytesWritten))
	m.set("lustre.read_ops", float64(rp.fs.ReadOps))
	m.set("lustre.bytes_read", float64(rp.fs.BytesRead))
	m.set("lustre.write_seeks", float64(rp.fs.WriteSeeks))
	rp.cluster.report(m)
	m.set("merge.build_summaries_s", seconds(rp.buildSums))
	m.set("merge.combine_s", seconds(rp.combine))
	m.set("merge.assign_ids_s", seconds(rp.assignIDs))
	m.set("merge.summary_wire_mb", float64(rp.wireBytes)/1e6)
	m.set("mrnet.packets", float64(rp.net.Packets))
	m.set("mrnet.bytes", float64(rp.net.Bytes))
	m.set("sweep.run_s", seconds(rp.sweepRun))
	m.set("sweep.read_output_s", seconds(rp.readOutput))

	// Substrate probes.
	if err := probePtio(in.pts, m); err != nil {
		return err
	}
	if err := probeLustre(w.sz.n(64), m); err != nil {
		return err
	}
	if err := probeGPULaunch(m); err != nil {
		return err
	}
	if err := probeMrnet(w.leaves, m); err != nil {
		return err
	}
	spanNS := probeTelemetry(w.sz.n(100_000), m)
	m.set("telemetry.est_share", spanNS*spans/1e9/opS)
	return nil
}

func (w *distWorkload) traced(rec *recorder, budget time.Duration, m layerMetrics) error {
	ctx := context.Background()
	cfg, in := w.config(), w.ins[0]
	plain, traced, err := alternate(rec, "Coordinator.Run", budget/2, func() error {
		_, err := w.coord.Run(in.pts, w.options())
		return err
	})
	if err != nil {
		return err
	}
	m.set("harness.trace_overhead_share", overheadShare(plain, traced))
	m.set("dataset.generate_s", seconds(in.genTime))
	m.set("dbscan.reference_s", seconds(in.refTime))

	// Coordinator.Run, stage by stage, from outside.
	root := rec.start(nil, "replay", 1)
	defer root.end()
	g := grid.New(w.eps)
	var plan *partition.Plan
	d, err := timed(rec, root, "partition.make_plan", 1, func() error {
		var err error
		plan, err = partition.MakePlan(g, g.HistogramOf(in.pts), w.leaves, w.minPts, true)
		return err
	})
	if err != nil {
		return err
	}
	m.set("partition.make_plan_s", seconds(d))
	var split *partition.SplitResult
	d, err = timed(rec, root, "partition.split", 1, func() error {
		var err error
		split, err = partition.Split(plan, in.pts, partition.SplitOptions{})
		return err
	})
	if err != nil {
		return err
	}
	m.set("partition.split_s", seconds(d))
	m.set("partition.imbalance", float64(plan.MaxTotal())/plan.MeanTotal())

	reqs := make([]distrib.WorkRequest, w.leaves)
	parts := make([][]geom.Point, w.leaves)
	var owned, total int
	for leaf := range reqs {
		o, s := split.Partitions[leaf], split.Shadows[leaf]
		reqs[leaf] = distrib.WorkRequest{Leaf: leaf, Eps: w.eps, MinPts: w.minPts, DenseBox: true, Owned: o, Shadow: s}
		parts[leaf] = append(append(make([]geom.Point, 0, len(o)+len(s)), o...), s...)
		owned += len(o)
		total += len(o) + len(s)
	}
	m.set("partition.shadow_ratio", float64(total)/float64(owned))

	var resps []*distrib.WorkResponse
	d, err = timed(rec, root, "distrib.dispatch", 1, func() error {
		var err error
		resps, err = w.coord.DispatchContext(ctx, reqs)
		return err
	})
	if err != nil {
		return err
	}
	m.set("distrib.dispatch_s", seconds(d))

	groups := make([][]*merge.Summary, len(resps))
	var wire int64
	for _, r := range resps {
		groups[r.Leaf] = r.Summaries
		wire += summariesWireSize(r.Summaries)
	}
	m.set("merge.summary_wire_mb", float64(wire)/1e6)
	var final []*merge.Summary
	d, _ = timed(rec, root, "merge.combine", 1, func() error {
		final = merge.Combine(g, w.eps, groups)
		return nil
	})
	m.set("merge.combine_s", seconds(d))
	d, _ = timed(rec, root, "merge.assign_ids", 1, func() error {
		merge.AssignGlobalIDs(final)
		return nil
	})
	m.set("merge.assign_ids_s", seconds(d))

	// The wire: the floor of one exchange, a heartbeat, and the gob
	// codec on the very values the dispatch shipped.
	const floorOps = 50
	tiny := []distrib.WorkRequest{{Leaf: 0, Eps: w.eps, MinPts: w.minPts, DenseBox: true, Owned: in.pts[:1]}}
	var floor, beat []float64
	for i := 0; i < floorOps; i++ {
		t0 := time.Now()
		if _, err := w.coord.DispatchContext(ctx, tiny); err != nil {
			return fmt.Errorf("1-point dispatch: %w", err)
		}
		floor = append(floor, millis(time.Since(t0)))
		t0 = time.Now()
		if alive := w.coord.Heartbeat(0); alive != distWorkers {
			return fmt.Errorf("heartbeat left %d of %d workers", alive, distWorkers)
		}
		beat = append(beat, millis(time.Since(t0)))
	}
	m.set("distrib.roundtrip_floor_ms", median(floor))
	m.set("distrib.heartbeat_ms", median(beat))
	if err := probeGob(reqs, resps, m); err != nil {
		return err
	}
	st := w.coord.Stats()
	m.set("distrib.reassigned", float64(st.Reassigned))
	m.set("distrib.workers_lost", float64(st.WorkersLost))

	// What the workers did with the partitions, uncontended.
	cp, err := probeCluster(rec, root, 1, parts, cfg)
	if err != nil {
		return err
	}
	cp.report(m)
	return nil
}

// probeGob encodes and decodes one op's requests and responses with
// encoding/gob, one encoder per message as the envelope protocol does.
func probeGob(reqs []distrib.WorkRequest, resps []*distrib.WorkResponse, m layerMetrics) error {
	var bufs []*bytes.Buffer
	var size int64
	t0 := time.Now()
	enc := func(v any) error {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(v); err != nil {
			return err
		}
		size += int64(b.Len())
		bufs = append(bufs, &b)
		return nil
	}
	for i := range reqs {
		if err := enc(&reqs[i]); err != nil {
			return err
		}
	}
	for _, r := range resps {
		if err := enc(r); err != nil {
			return err
		}
	}
	encTime := time.Since(t0)
	t0 = time.Now()
	for i, b := range bufs {
		var err error
		if i < len(reqs) {
			err = gob.NewDecoder(b).Decode(new(distrib.WorkRequest))
		} else {
			err = gob.NewDecoder(b).Decode(new(distrib.WorkResponse))
		}
		if err != nil {
			return err
		}
	}
	m.set("distrib.gob_mb_per_op", float64(size)/1e6)
	m.set("distrib.gob_encode_mb_per_s", mbPerS(size, encTime))
	m.set("distrib.gob_decode_mb_per_s", mbPerS(size, time.Since(t0)))
	return nil
}

// jobObservations collects what the serve_jobs clients saw during the
// traced passes, per job.
type jobObservations struct {
	mu       sync.Mutex
	timings  []jobTiming // jobs that completed
	refused  int         // submissions the server did not accept
	degraded int
	total    int
}

func (o *jobObservations) add(jt jobTiming, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.total++
	if errors.Is(err, errRefused) {
		o.refused++
	}
	if err != nil {
		return
	}
	if jt.status.Degraded {
		o.degraded++
	}
	o.timings = append(o.timings, jt)
}

func (w *serveJobsWorkload) traced(rec *recorder, budget time.Duration, m layerMetrics) error {
	if err := w.warmup(0); err != nil {
		return err
	}
	// The same closed loop as the timed rounds, for half the budget; every
	// other pass of a client's bodies runs under the recorder.
	w.rec, w.obs = rec, &jobObservations{}
	plain, traced := newTally(), newTally()
	deadline := time.Now().Add(budget / 2)
	w.drive(time.Now().Add(time.Minute), 2, plain, traced) // one plain and one traced pass at least
	w.drive(deadline, 0, plain, traced)
	obs := w.obs
	w.rec, w.obs = nil, nil
	if plain.failed+traced.failed > 0 || len(plain.walls) == 0 || len(obs.timings) == 0 {
		return fmt.Errorf("traced serve_jobs: %d ops failed: %v", plain.failed+traced.failed, append(plain.notes, traced.notes...))
	}
	m.set("harness.trace_overhead_share", overheadShare(plain.walls, traced.walls))
	var gen, ref time.Duration
	for _, b := range w.bodies() {
		gen += b.in.genTime
		ref += b.in.refTime
	}
	m.set("dataset.generate_s", seconds(gen))
	m.set("dbscan.reference_s", seconds(ref))

	var submit, queue, run, fetch, polls []float64
	for _, jt := range obs.timings {
		submit = append(submit, millis(jt.submit))
		fetch = append(fetch, millis(jt.fetch))
		queue = append(queue, millis(jt.status.Started.Sub(jt.status.Submitted)))
		run = append(run, millis(jt.status.Finished.Sub(jt.status.Started)))
		polls = append(polls, float64(jt.polls))
	}
	m.set("server.submit_http_ms_p50", median(submit))
	m.set("server.queue_wait_ms_p50", median(queue))
	m.set("server.run_ms_p50", median(run))
	m.set("server.result_fetch_ms_p50", median(fetch))
	var pollSum float64
	for _, p := range polls {
		pollSum += p
	}
	m.set("server.polls_per_job", pollSum/float64(len(polls)))
	m.set("server.rejected_share", float64(obs.refused)/float64(obs.total))
	m.set("server.degraded_share", float64(obs.degraded)/float64(obs.total))

	// The state directory holds every job so far: warm-up, plain, traced.
	jobs := len(w.hs.srv.Jobs())
	m.set("server.state_dir_kb_per_job", float64(dirBytes(w.hs.stateDir))/1e3/float64(jobs))

	// Server.Submit without the HTTP edge: admission plus the journal's
	// fsyncs. The jobs are left to finish before the next probe.
	const direct = 20
	small := w.clients[0].bodies[0].in
	var directMS []float64
	for i := 0; i < direct; i++ {
		t0 := time.Now()
		id, err := w.hs.srv.Submit(server.JobSpec{Tenant: "interactive-0", Points: small.pts, Eps: small.eps, MinPts: small.minPts, Leaves: small.leaves})
		if err != nil {
			return fmt.Errorf("direct submit: %w", err)
		}
		directMS = append(directMS, millis(time.Since(t0)))
		// Stay inside the per-tenant queue bound.
		if err := waitJob(w.hs.srv, id); err != nil {
			return err
		}
	}
	m.set("server.submit_direct_ms_p50", median(directMS))

	// A cluster-phase-sized checkpoint: the large job's points + labels.
	large := w.clients[1].bodies[0].in
	payload := ckptPayload{Owned: large.pts, Labels: make([]int32, len(large.pts))}
	return probeCheckpoint(w.tmpRoot, &payload, new(ckptPayload), m)
}

// ckptPayload has the shape of a cluster-phase snapshot.
type ckptPayload struct {
	Owned  []geom.Point
	Labels []int32
}

func waitJob(s *server.Server, id string) error {
	for {
		st, err := s.Status(id)
		if err != nil {
			return err
		}
		if st.State.Terminal() {
			if st.State != server.StateCompleted {
				return fmt.Errorf("job %s ended %s: %s", id, st.State, st.Err)
			}
			return nil
		}
		time.Sleep(jobPollGap)
	}
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil // a file removed mid-walk is not worth failing the probe
	})
	return n
}

func (w *serveStreamWorkload) traced(rec *recorder, budget time.Duration, m layerMetrics) error {
	m.set("dataset.generate_s", seconds(w.genTime))
	if err := w.warmup(0); err != nil {
		return err
	}
	// Ticks over HTTP, alternately plain and traced.
	var plain, traced []float64
	deadline := time.Now().Add(budget / 2)
	for i := 0; (i < 2 || time.Now().Before(deadline)) && w.cursor < len(w.bodies); i++ {
		if i%2 == 1 {
			w.rec = rec
		}
		d, err := w.tick()
		w.rec = nil
		if err != nil {
			return err
		}
		if i%2 == 1 {
			traced = append(traced, d.Seconds())
		} else {
			plain = append(plain, d.Seconds())
		}
	}
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("traced serve_stream: no ticks completed")
	}
	m.set("harness.trace_overhead_share", overheadShare(plain, traced))
	httpMS := median(append(plain, traced...)) * 1e3

	// The same batches straight into an engine, each tick followed by
	// the durable save the server makes.
	dir, err := os.MkdirTemp(w.tmpRoot, "stream-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bk, err := checkpoint.DirFS(dir)
	if err != nil {
		return err
	}
	store := checkpoint.NewStore(bk, "probe")
	scfg := stream.Config{Eps: streamEps, MinPts: streamMinPts, WindowTicks: streamWindow}
	eng, err := stream.New(scfg)
	if err != nil {
		return err
	}
	root := rec.start(nil, "replay", 1)
	defer root.end()
	var engineMS, saveMS []float64
	var dirty, pairs, allocN, allocB float64
	ticks := streamWindow + len(plain) + len(traced)
	for i := 0; i < ticks && i < len(w.batches); i++ {
		b0, n0 := heapAllocs()
		var st stream.TickStats
		d, err := timed(rec, root, "stream.tick", 1, func() error {
			var err error
			st, err = eng.Tick(w.batches[i])
			return err
		})
		if err != nil {
			return err
		}
		b1, n1 := heapAllocs()
		dSave, err := timed(rec, root, "checkpoint.save", 1, func() error {
			return store.Save("window", eng.WindowState())
		})
		if err != nil {
			return err
		}
		if i < streamWindow {
			continue // filling the window is warm-up here too
		}
		engineMS = append(engineMS, millis(d))
		saveMS = append(saveMS, millis(dSave))
		dirty += float64(st.DirtyCells)
		pairs += float64(st.PairsRebuilt)
		allocN += float64(n1 - n0)
		allocB += float64(b1 - b0)
	}
	n := float64(len(engineMS))
	m.set("stream.tick_engine_ms_p50", median(engineMS))
	m.set("stream.dirty_cells_per_tick", dirty/n)
	m.set("stream.pairs_rebuilt_per_tick", pairs/n)
	m.set("stream.allocs_per_tick", allocN/n)
	m.set("stream.alloc_kb_per_tick", allocB/1e3/n)
	m.set("checkpoint.stream_save_ms_p50", median(saveMS))
	m.set("stream.http_edge_ms_p50", httpMS-median(engineMS)-median(saveMS))

	d, _ := timed(rec, root, "stream.snapshot", 1, func() error {
		eng.Snapshot()
		return nil
	})
	m.set("stream.snapshot_ms", millis(d))
	ws := eng.WindowState()
	d, err = timed(rec, root, "stream.restore", 1, func() error {
		_, err := stream.Restore(scfg, ws)
		return err
	})
	if err != nil {
		return err
	}
	m.set("stream.restore_ms", millis(d))
	return probeCheckpoint(w.tmpRoot, &ws, new(stream.WindowState), m)
}
