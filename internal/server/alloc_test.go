package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stream"
)

// discard is a ResponseWriter that keeps the status and drops the body,
// so fetching a result costs the test nothing the server did not spend.
type discard struct {
	h    http.Header
	code int
}

func (d *discard) Header() http.Header         { return d.h }
func (d *discard) Write(p []byte) (int, error) { return len(p), nil }
func (d *discard) WriteHeader(code int)        { d.code = code }

// serveJob submits body through h, waits until the job is terminal and
// fetches its result into w.
func serveJob(s *Server, h http.Handler, body []byte, w http.ResponseWriter) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/jobs", bytes.NewReader(body)))
	if rec.Code != http.StatusAccepted {
		return fmt.Errorf("submit: status %d: %s", rec.Code, rec.Body)
	}
	var ack struct{ ID string }
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		return fmt.Errorf("submit reply: %w", err)
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		st, err := s.Status(ack.ID)
		if err != nil {
			return err
		}
		if st.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("job %s stuck in %s", ack.ID, st.State)
		}
	}
	h.ServeHTTP(w, httptest.NewRequest("GET", "/api/v1/jobs/"+ack.ID+"/result", nil))
	return nil
}

// TestServeJobBytesPerPoint is the serve path's allocation guard, and it
// needs no clock: bytes allocated per input point while a durable server
// takes a 4 000- and a 32 000-point body through Handler, runs them and
// streams their results. The input file, the phase snapshots, the rank
// scratch and the request body come from bufpool and go back once
// written, and a result is streamed from the job's own labels, so after
// the warm-up none of them allocates. Pipeline workers follow the core
// count, so the test runs at GOMAXPROCS 2. The budget sits about 10 %
// over the measured 173 B/point. With the journal's input encoded into a
// growing buffer, fresh snapshot and rank-scratch buffers, request bodies
// in a sync.Pool and a copy of the labels per fetch, the path read
// 293–312, so any of them creeping back in fails here.
func TestServeJobBytesPerPoint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := mustServer(t, Config{Workers: 2, StateDir: t.TempDir()})
	h := s.Handler()
	bodies := [][]byte{submitBody(4_000, 1), submitBody(32_000, 2)}
	serve := func() {
		for _, b := range bodies {
			w := &discard{h: http.Header{}}
			if err := serveJob(s, h, b, w); err != nil || w.code != http.StatusOK {
				t.Fatalf("serving a job: result status %d, %v", w.code, err)
			}
		}
	}
	serve() // warm-up: fills the pools and builds lazily built tables
	const rounds, points = 3, 4_000 + 32_000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		serve()
	}
	runtime.ReadMemStats(&after)
	perPoint := (after.TotalAlloc - before.TotalAlloc) / (rounds * points)
	const budget = 190
	t.Logf("%d bytes allocated per served point (budget %d)", perPoint, budget)
	if perPoint > budget {
		t.Errorf("serving a job allocated %d bytes per input point, budget %d", perPoint, budget)
	}
}

// createStreamHTTP creates a stream through h and returns its ID.
func createStreamHTTP(t *testing.T, h http.Handler, sp StreamSpec) string {
	t.Helper()
	body, _ := json.Marshal(createStreamRequest{Tenant: sp.Tenant, Eps: sp.Eps, MinPts: sp.MinPts, WindowTicks: sp.WindowTicks})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/streams", bytes.NewReader(body)))
	var ack struct{ ID string }
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil || ack.ID == "" {
		t.Fatalf("creating a stream: status %d: %s", rec.Code, rec.Body)
	}
	return ack.ID
}

// tickHTTP posts one tick's body to a stream through h.
func tickHTTP(h http.Handler, id string, body []byte) error {
	w := &discard{h: http.Header{}}
	h.ServeHTTP(w, httptest.NewRequest("POST", "/api/v1/streams/"+id+"/points", bytes.NewReader(body)))
	if w.code != http.StatusOK {
		return fmt.Errorf("tick on %s: status %d", id, w.code)
	}
	return nil
}

// tickBodies encodes each batch as a tick body.
func tickBodies(batches [][]geom.Point) [][]byte {
	bodies := make([][]byte, len(batches))
	for i, b := range batches {
		bodies[i] = []byte(tickBody(b))
	}
	return bodies
}

// TestStreamTickBytesPerPoint is the stream tick's allocation guard, as
// clock-free as TestServeJobBytesPerPoint: bytes allocated per arriving
// point while a durable stream at the serve_stream benchmark's shape
// (2 000 points a tick, window 20, Eps 0.12, MinPts 8) takes ticks
// through Handler once its window is full. A tick's save encodes its
// records into a recycled buffer and its decoded points come from
// bufpool, so what is left is mostly the manifest's gob. The budget sits
// about 20 % over the measured 10–11 B/point; with the tick saved as gob
// and its points in a fresh slice the path read 177, and with the tick
// in records but its points still fresh, 43.
func TestStreamTickBytesPerPoint(t *testing.T) {
	const window, warm, rounds, points = 20, 5, 10, 2_000
	s := mustServer(t, Config{Workers: 1, StateDir: t.TempDir()})
	h := s.Handler()
	id := createStreamHTTP(t, h, StreamSpec{Tenant: "acme", Eps: 0.12, MinPts: 8, WindowTicks: window})
	bodies := tickBodies(dataset.Firehose(window+warm+rounds, points, 7, dataset.DefaultFirehoseOptions()))
	for _, b := range bodies[:window+warm] { // fills the window and the pools
		if err := tickHTTP(h, id, b); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range bodies[window+warm:] {
		if err := tickHTTP(h, id, b); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perPoint := (after.TotalAlloc - before.TotalAlloc) / (rounds * points)
	const budget = 13
	t.Logf("%d bytes allocated per arriving point (budget %d)", perPoint, budget)
	if perPoint > budget {
		t.Errorf("a stream tick allocated %d bytes per arriving point, budget %d", perPoint, budget)
	}
}

// TestRecycledTickPointsKeepLabels: three durable streams take different
// ticks through Handler at once, so each tick's decoded points pass
// between them through bufpool dirty (300 to 500 points share one size
// class). After every tick each stream's
// labels must equal a lone engine's fed the same ticks, and so must a
// restart's from the ticks the two streams saved.
func TestRecycledTickPointsKeepLabels(t *testing.T) {
	const ticks = 80
	dir := t.TempDir()
	s := mustServer(t, Config{Workers: 1, StateDir: dir})
	h := s.Handler()
	sp := StreamSpec{Tenant: "acme", Eps: 0.12, MinPts: 4, WindowTicks: 4}
	final := map[string]stream.Snapshot{}
	var wg sync.WaitGroup
	for i, n := range []int{300, 400, 500} {
		batches := dataset.Firehose(ticks, n, int64(41+i), dataset.DefaultFirehoseOptions())
		ref := refEngine(t, sp)
		want := make([]stream.Snapshot, ticks)
		for k, b := range batches {
			if _, err := ref.Tick(b); err != nil {
				t.Fatal(err)
			}
			want[k] = ref.Snapshot()
		}
		id := createStreamHTTP(t, h, sp)
		final[id] = want[ticks-1]
		wg.Add(1)
		go func(bodies [][]byte) {
			defer wg.Done()
			for k, b := range bodies {
				if err := tickHTTP(h, id, b); err != nil {
					t.Error(err)
					return
				}
				got, err := s.StreamSnapshot(id)
				if err != nil || !sameLabels(got, want[k]) {
					t.Errorf("stream %s, tick %d: labels differ from a lone engine's (%v)", id, k+1, err)
					return
				}
			}
		}(tickBodies(batches))
	}
	wg.Wait()
	s.Close()
	restarted := mustServer(t, Config{Workers: 1, StateDir: dir})
	for id, want := range final {
		if got, err := restarted.StreamSnapshot(id); err != nil || !sameLabels(got, want) {
			t.Errorf("stream %s restarted from its saved ticks: labels differ from a lone engine's (%v)", id, err)
		}
	}
}

// sameLabels reports whether two snapshots hold the same point IDs with
// the same labels, in order.
func sameLabels(a, b stream.Snapshot) bool {
	return slices.Equal(a.Labels, b.Labels) &&
		slices.EqualFunc(a.Points, b.Points, func(p, q geom.Point) bool { return p.ID == q.ID })
}

// TestRecycledBuffersKeepLabels: two tenants submit different bodies at
// once for 50 rounds, so request bodies, input files, snapshots and rank
// scratch pass between their jobs dirty, and every job's labels must
// equal what the same body got served alone.
func TestRecycledBuffersKeepLabels(t *testing.T) {
	s := mustServer(t, Config{Workers: 2, StateDir: t.TempDir()})
	h := s.Handler()
	labelsOf := func(body []byte) ([]int, error) {
		w := httptest.NewRecorder()
		if err := serveJob(s, h, body, w); err != nil || w.Code != http.StatusOK {
			return nil, fmt.Errorf("result status %d, %v: %s", w.Code, err, w.Body)
		}
		var res struct{ Labels []int }
		err := json.Unmarshal(w.Body.Bytes(), &res)
		return res.Labels, err
	}
	bodies := [][]byte{submitBody(1_500, 3), bytes.Replace(submitBody(2_500, 4), []byte("interactive-0"), []byte("interactive-1"), 1)}
	lone := make([][]int, len(bodies))
	for i, b := range bodies {
		var err error
		if lone[i], err = labelsOf(b); err != nil {
			t.Fatalf("lone run of body %d: %v", i, err)
		}
	}
	var wg sync.WaitGroup
	for i, b := range bodies {
		wg.Add(1)
		go func(i int, b []byte) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				got, err := labelsOf(b)
				if err != nil {
					t.Errorf("body %d, round %d: %v", i, round, err)
					return
				}
				if !slices.Equal(got, lone[i]) {
					t.Errorf("body %d, round %d: labels differ from the lone run's", i, round)
					return
				}
			}
		}(i, b)
	}
	wg.Wait()
}
