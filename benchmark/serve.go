package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/dbscan"
	"repro/internal/geom"
	"repro/internal/quality"
	"repro/internal/server"
	"repro/internal/stream"
)

// httpServer is an mrscand-shaped server: server.New on a real state
// directory behind an httptest listener on loopback.
type httpServer struct {
	srv      *server.Server
	ts       *httptest.Server
	client   *http.Client
	stateDir string
}

func startHTTPServer(tmpRoot string) (*httpServer, error) {
	dir, err := os.MkdirTemp(tmpRoot, "state-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Workers: 2, StateDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &httpServer{srv: srv, ts: ts, client: ts.Client(), stateDir: dir}, nil
}

func (h *httpServer) close() {
	h.ts.Close()
	h.srv.Close()
	os.RemoveAll(h.stateDir)
}

// do sends one request and returns the status code and the whole body.
func (h *httpServer) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.ts.URL+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// appendPointsJSON appends `[{"id":..,"x":..,"y":..},...]`, the inline
// points form both POST bodies use. Coordinates round-trip exactly.
func appendPointsJSON(b []byte, pts []geom.Point) []byte {
	b = append(b, '[')
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"id":`...)
		b = strconv.AppendUint(b, p.ID, 10)
		b = append(b, `,"x":`...)
		b = strconv.AppendFloat(b, p.X, 'g', -1, 64)
		b = append(b, `,"y":`...)
		b = strconv.AppendFloat(b, p.Y, 'g', -1, 64)
		b = append(b, '}')
	}
	return append(b, ']')
}

// --- serve_jobs ---

// Two closed-loop clients, one per core, each waiting for its labels
// before it sends again, with different traffic:
//
//   - client 0 is two interactive tenants taking turns with small jobs
//     (jobSmall points, smallBodies distinct inputs) — about nine ops in
//     ten, so op_wall_p50_s is the latency of a small job submitted while
//     a bulk job holds the other pipeline;
//   - client 1 is one bulk tenant sending large jobs (jobLarge points,
//     largeBodies distinct inputs) — the slowest tenth of the ops, so
//     op_wall_tail_s (p95) sits inside the large-job mode.
//
// An earlier draft walked both clients through one shared 70/20/10
// schedule of three sizes. Its median flipped between two modes —
// whether a small job happened to run beside a large one or beside
// another small one — and moved by ±25 % from run to run on the same
// seed. Giving each percentile one kind of op under one kind of
// contention is what makes them repeat.
const (
	jobSmall    = 4_000
	jobLarge    = 32_000
	smallBodies = 8
	largeBodies = 2
	jobLeaves   = 4
	jobPollGap  = 2 * time.Millisecond
)

type jobBody struct {
	in   *clusterInput
	body []byte
}

// jobClient is one closed-loop caller cycling through its own bodies.
type jobClient struct {
	bodies []*jobBody
	next   int // ops started; only the client's goroutine touches it
}

type serveJobsWorkload struct {
	seed    int64
	sz      sizing
	tmpRoot string

	clients []*jobClient
	hs      *httpServer

	// Set only during the traced run: odd passes of a client's bodies
	// run under rec and obs collects what the clients saw.
	rec *recorder
	obs *jobObservations
}

func newServeJobs(seed int64, sz sizing, tmpRoot string) *serveJobsWorkload {
	return &serveJobsWorkload{seed: seed, sz: sz, tmpRoot: tmpRoot}
}

func (w *serveJobsWorkload) bodies() []*jobBody {
	var all []*jobBody
	for _, c := range w.clients {
		all = append(all, c.bodies...)
	}
	return all
}

func (w *serveJobsWorkload) setup() error {
	body := func(sub int, n int, tenant string) (*jobBody, error) {
		in, err := newClusterInput(dataset.Twitter, w.sz.n(n), w.seed*64+int64(sub), 0.1, 40, jobLeaves)
		if err != nil {
			return nil, err
		}
		b := make([]byte, 0, 48*len(in.pts)+128)
		b = append(b, fmt.Sprintf(`{"tenant":%q,"eps":%g,"min_pts":%d,"leaves":%d,"points":`, tenant, in.eps, in.minPts, in.leaves)...)
		b = appendPointsJSON(b, in.pts)
		return &jobBody{in: in, body: append(b, '}')}, nil
	}
	interactive, bulk := &jobClient{}, &jobClient{}
	for i := 0; i < smallBodies; i++ {
		b, err := body(i, jobSmall, fmt.Sprintf("interactive-%d", i%2))
		if err != nil {
			return err
		}
		interactive.bodies = append(interactive.bodies, b)
	}
	for i := 0; i < largeBodies; i++ {
		b, err := body(smallBodies+i, jobLarge, "bulk")
		if err != nil {
			return err
		}
		bulk.bodies = append(bulk.bodies, b)
	}
	w.clients = []*jobClient{interactive, bulk}
	var err error
	w.hs, err = startHTTPServer(w.tmpRoot)
	return err
}

// errRefused marks a submission the server answered with anything but
// 202 Accepted.
var errRefused = errors.New("submit refused")

// jobTiming is what one job op observed, for the traced run.
type jobTiming struct {
	submit, fetch time.Duration
	polls         int
	status        server.JobStatus
}

// runJob is one op: POST the body, poll the status every jobPollGap
// until the job is terminal, GET the labels. The returned wall ends at
// the last byte of the labels.
func (w *serveJobsWorkload) runJob(rec *recorder, b *jobBody, op int) (time.Duration, []byte, jobTiming, error) {
	var jt jobTiming
	sp := rec.start(nil, "serve_jobs.op", op)
	defer sp.end()
	t0 := time.Now()
	sub := sp.child("http.submit")
	code, data, err := w.hs.do("POST", "/api/v1/jobs", b.body)
	sub.end()
	jt.submit = time.Since(t0)
	if err != nil {
		return 0, nil, jt, err
	}
	if code != http.StatusAccepted {
		return 0, nil, jt, fmt.Errorf("%w: %d %s", errRefused, code, bytes.TrimSpace(data))
	}
	var acc struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &acc); err != nil || acc.ID == "" {
		return 0, nil, jt, fmt.Errorf("submit reply %q: %v", data, err)
	}
	wait := sp.child("http.poll")
	for {
		code, data, err = w.hs.do("GET", "/api/v1/jobs/"+acc.ID, nil)
		if err != nil {
			wait.end()
			return 0, nil, jt, err
		}
		jt.polls++
		if code != http.StatusOK {
			wait.end()
			return 0, nil, jt, fmt.Errorf("status: %d %s", code, bytes.TrimSpace(data))
		}
		if err := json.Unmarshal(data, &jt.status); err != nil {
			wait.end()
			return 0, nil, jt, fmt.Errorf("status reply: %v", err)
		}
		if jt.status.State.Terminal() {
			break
		}
		time.Sleep(jobPollGap)
	}
	wait.end()
	if jt.status.State != server.StateCompleted {
		return 0, nil, jt, fmt.Errorf("job %s ended %s: %s", acc.ID, jt.status.State, jt.status.Err)
	}
	fetch := sp.child("http.result")
	t1 := time.Now()
	code, data, err = w.hs.do("GET", "/api/v1/jobs/"+acc.ID+"/result", nil)
	fetch.end()
	jt.fetch = time.Since(t1)
	d := time.Since(t0)
	if err != nil {
		return 0, nil, jt, err
	}
	if code != http.StatusOK {
		return 0, nil, jt, fmt.Errorf("result: %d %s", code, bytes.TrimSpace(data))
	}
	return d, data, jt, nil
}

// jobResult is the result document of GET /api/v1/jobs/{id}/result.
type jobResult struct {
	Labels []int `json:"labels"`
}

var labelsKey = []byte(`"labels":`)

// judgeResult checks one result document outside the op's timed
// region: it must not be degraded, and its labels array must hash like
// every other result for the same body.
func judgeResult(b *jobBody, doc []byte, t *tally) {
	at := bytes.Index(doc, labelsKey)
	if at < 0 {
		t.fail(1, "result without labels: %.80s", doc)
		return
	}
	if !bytes.Contains(doc[:at], []byte(`"degraded":false`)) {
		t.fail(1, "degraded result: %s", doc[:at])
		return
	}
	h := fnv.New64a()
	h.Write(doc[at:])
	b.in.check.observe(h.Sum64(), func() ([]int, error) {
		var r jobResult
		if err := json.Unmarshal(doc, &r); err != nil {
			return nil, err
		}
		if len(r.Labels) != len(b.in.pts) {
			return nil, fmt.Errorf("%d labels for %d points", len(r.Labels), len(b.in.pts))
		}
		return r.Labels, nil
	}, t)
}

// client runs one closed-loop caller: take the next body, run the job,
// judge the reply. passes > 0 stops it after that many passes of its
// bodies. During the traced run every other pass runs under the
// recorder and is tallied apart.
func (w *serveJobsWorkload) client(c int, until time.Time, passes int, plain, traced *tally) {
	cl := w.clients[c]
	for time.Now().Before(until) {
		i := cl.next
		pass := i / len(cl.bodies)
		if passes > 0 && pass >= passes {
			return
		}
		cl.next++
		b := cl.bodies[i%len(cl.bodies)]
		var rec *recorder
		t := plain
		if w.rec != nil && pass%2 == 1 {
			rec, t = w.rec, traced
		}
		d, doc, jt, err := w.runJob(rec, b, c*1_000_000+i+1)
		t.attempted++
		if rec != nil {
			w.obs.add(jt, err)
		}
		if err != nil {
			t.fail(1, "job: %v", err)
			continue
		}
		t.walls = append(t.walls, d.Seconds())
		t.points += int64(len(b.in.pts))
		judgeResult(b, doc, t)
	}
}

// drive runs the clients side by side until the deadline (or for passes
// passes of each client's bodies when positive) and merges what they saw
// into plain and, for the traced passes, traced.
func (w *serveJobsWorkload) drive(until time.Time, passes int, plain, traced *tally) {
	type pair struct{ plain, traced *tally }
	locals := make([]pair, len(w.clients))
	var wg sync.WaitGroup
	for c := range locals {
		locals[c] = pair{newTally(), newTally()}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			w.client(c, until, passes, locals[c].plain, locals[c].traced)
		}(c)
	}
	wg.Wait()
	for _, l := range locals {
		plain.merge(l.plain)
		if traced != nil {
			traced.merge(l.traced)
		}
	}
}

// warmup sends one pass of each client's bodies, untimed.
func (w *serveJobsWorkload) warmup(int) error {
	warm := newTally()
	w.drive(time.Now().Add(time.Minute), 1, warm, nil)
	for _, c := range w.clients {
		c.next = 0
	}
	if warm.failed > 0 {
		return fmt.Errorf("%d of %d warm-up jobs failed: %v", warm.failed, warm.attempted, warm.notes)
	}
	return nil
}

func (w *serveJobsWorkload) run(until time.Time, t *tally) { w.drive(until, 0, t, nil) }

func (w *serveJobsWorkload) verify(t *tally) {
	for _, b := range w.bodies() {
		b.in.check.settle(t)
	}
}

func (w *serveJobsWorkload) inputHash() uint64 {
	h := fnv.New64a()
	for _, b := range w.bodies() {
		hashPoints(h, b.in.pts)
	}
	return h.Sum64()
}

func (w *serveJobsWorkload) close() {
	if w.hs != nil {
		w.hs.close()
		w.hs = nil
	}
}

// --- serve_stream ---

const (
	streamEps       = 0.12
	streamMinPts    = 8
	streamWindow    = 20    // ticks
	streamPerTick   = 2_000 // a 40 000-point steady window
	streamMaxTicks  = 420   // measured ticks available to one run
	streamWarmTicks = 1     // per round, after the first round's window fill
	// streamCheckEvery spaces the window checks: three per run.
	streamCheckEvery = rounds / 3
)

type serveStreamWorkload struct {
	seed    int64
	sz      sizing
	tmpRoot string

	batches   [][]geom.Point
	bodies    [][]byte
	genTime   time.Duration
	hs        *httpServer
	id        string
	cursor    int // next tick to send
	sent      int // ticks sent in the current round
	unchecked int // ticks sent since the last window check
	verifies  int

	rec *recorder // set for the traced ticks only
}

func newServeStream(seed int64, sz sizing, tmpRoot string) *serveStreamWorkload {
	return &serveStreamWorkload{seed: seed, sz: sz, tmpRoot: tmpRoot}
}

func (w *serveStreamWorkload) perTick() int { return w.sz.n(streamPerTick) }

func (w *serveStreamWorkload) setup() error {
	ticks := streamWindow + rounds*streamWarmTicks + streamMaxTicks
	t0 := time.Now()
	w.batches = dataset.Firehose(ticks, w.perTick(), w.seed, dataset.DefaultFirehoseOptions())
	w.genTime = time.Since(t0)
	w.bodies = make([][]byte, ticks)
	for i, batch := range w.batches {
		b := make([]byte, 0, 64*len(batch)+16)
		b = append(b, `{"points":`...)
		b = appendPointsJSON(b, batch)
		w.bodies[i] = append(b, '}')
	}
	var err error
	if w.hs, err = startHTTPServer(w.tmpRoot); err != nil {
		return err
	}
	create := fmt.Sprintf(`{"tenant":"tenant-0","eps":%g,"min_pts":%d,"window_ticks":%d}`, streamEps, streamMinPts, streamWindow)
	code, data, err := w.hs.do("POST", "/api/v1/streams", []byte(create))
	if err != nil {
		return err
	}
	if code != http.StatusCreated {
		return fmt.Errorf("stream create refused: %d %s", code, bytes.TrimSpace(data))
	}
	var made struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(data, &made); err != nil || made.ID == "" {
		return fmt.Errorf("stream create reply %q: %v", data, err)
	}
	w.id = made.ID
	return nil
}

// tick POSTs the next batch; the wall ends when the tick stats are read.
func (w *serveStreamWorkload) tick() (time.Duration, error) {
	if w.cursor >= len(w.bodies) {
		return 0, io.EOF
	}
	body := w.bodies[w.cursor]
	w.cursor++
	sp := w.rec.start(nil, "serve_stream.op", w.cursor)
	t0 := time.Now()
	code, data, err := w.hs.do("POST", "/api/v1/streams/"+w.id+"/points", body)
	d := time.Since(t0)
	sp.end()
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("tick refused: %d %s", code, bytes.TrimSpace(data))
	}
	return d, nil
}

// warmup fills the window before the first round and sends
// streamWarmTicks untimed ticks before every later one.
func (w *serveStreamWorkload) warmup(round int) error {
	n := streamWarmTicks
	if round == 0 {
		n = streamWindow
	}
	for i := 0; i < n; i++ {
		if _, err := w.tick(); err != nil {
			return err
		}
	}
	return nil
}

func (w *serveStreamWorkload) run(until time.Time, t *tally) {
	w.sent = 0
	// Leave the later rounds their warm-up ticks.
	for time.Now().Before(until) && w.cursor < len(w.bodies)-rounds*streamWarmTicks {
		d, err := w.tick()
		t.attempted++
		w.sent++
		if err != nil {
			t.fail(1, "tick: %v", err)
			continue
		}
		t.walls = append(t.walls, d.Seconds())
		t.points += int64(w.perTick())
	}
}

// snapshotDoc is GET /api/v1/streams/{id}/snapshot.
type snapshotDoc struct {
	Tick   int `json:"tick"`
	Points []struct {
		ID    uint64  `json:"id"`
		X     float64 `json:"x"`
		Y     float64 `json:"y"`
		Label int     `json:"label"`
	} `json:"points"`
}

// verify, every streamCheckEvery-th round, fetches the window over HTTP
// and checks it is a valid DBSCAN labeling of its own points; the ticks
// since the last check stand or fall with it. (The check runs a batch
// DBSCAN over the window twice, once inside EquivalentDBSCAN and once
// for the DBDC score — too much to repeat after every 0.8 s round.)
func (w *serveStreamWorkload) verify(t *tally) {
	w.unchecked += w.sent
	w.sent = 0
	w.verifies++
	if w.verifies%streamCheckEvery != 0 {
		return
	}
	sent := w.unchecked
	w.unchecked = 0
	code, data, err := w.hs.do("GET", "/api/v1/streams/"+w.id+"/snapshot", nil)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d", code)
	}
	var doc snapshotDoc
	if err == nil {
		err = json.Unmarshal(data, &doc)
	}
	if err != nil {
		t.fail(sent, "snapshot: %v", err)
		return
	}
	pts := make([]geom.Point, len(doc.Points))
	got := make([]int, len(doc.Points))
	for i, p := range doc.Points {
		pts[i] = geom.Point{ID: p.ID, X: p.X, Y: p.Y, Weight: 1}
		got[i] = p.Label
	}
	if want := streamWindow * w.perTick(); len(pts) != want {
		t.fail(sent, "snapshot holds %d points, window should hold %d", len(pts), want)
		return
	}
	if err := stream.EquivalentDBSCAN(pts, streamEps, streamMinPts, got); err != nil {
		t.fail(sent, "snapshot at tick %d: %v", doc.Tick, err)
	}
	ref, err := dbscan.Cluster(pts, dbscan.Params{Eps: streamEps, MinPts: streamMinPts}, dbscan.IndexGrid)
	q := 0.0
	if err == nil {
		q, _ = quality.Score(ref.Labels, got)
	}
	t.checked++
	if q < t.quality {
		t.quality = q
	}
}

func (w *serveStreamWorkload) inputHash() uint64 {
	h := fnv.New64a()
	for _, b := range w.batches {
		hashPoints(h, b)
	}
	return h.Sum64()
}

func (w *serveStreamWorkload) close() {
	if w.hs != nil {
		w.hs.close()
		w.hs = nil
	}
}
