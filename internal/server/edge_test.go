package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
)

// post drives one POST through the handler without a socket and returns
// the status, the reason of a refusal, and the bytes allocated while the
// handler ran (process-wide, so only meaningful with the workers idle).
func post(tb testing.TB, h http.Handler, path string, body io.Reader) (code int, reason string, allocated uint64) {
	tb.Helper()
	req := httptest.NewRequest("POST", path, body)
	rec := httptest.NewRecorder()
	allocated = allocatedBy(func() { h.ServeHTTP(rec, req) })
	var e errorJSON
	if rec.Code >= 400 {
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			tb.Fatalf("POST %s: status %d with body %q: %v", path, rec.Code, rec.Body, err)
		}
	}
	return rec.Code, e.Reason, allocated
}

func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// chunked hides a reader's length, so the request has no Content-Length.
type chunked struct{ io.Reader }

// TestRefusedBeforePaying: what admission would refuse is refused on the
// members read so far — the points are not scanned, the dataset is not
// generated.
func TestRefusedBeforePaying(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	h := s.Handler()

	code, reason, allocated := post(t, h, "/api/v1/jobs", strings.NewReader(
		`{"tenant":"acme","eps":0.1,"min_pts":5,"dataset":{"dist":"twitter","n":10000000,"seed":1}}`))
	if code != http.StatusTooManyRequests || reason != "quota" {
		t.Fatalf("10M-point dataset over a 4Mi quota: %d %s, want 429 quota", code, reason)
	}
	if allocated >= 1<<20 {
		t.Fatalf("refusing the dataset allocated %d bytes, want < 1 MB", allocated)
	}
	if got := s.hub.Counter("server_jobs_rejected_total", "tenant", "acme", "reason", "quota").Value(); got != 1 {
		t.Fatalf("server_jobs_rejected_total{acme,quota} = %d, want 1", got)
	}

	s.Drain()
	malformed := `{"tenant":"acme","eps":0.1,"min_pts":5,"points":[{"id":1,"x":}`
	if code, reason, _ := post(t, h, "/api/v1/jobs", strings.NewReader(malformed)); code != http.StatusServiceUnavailable || reason != "draining" {
		t.Fatalf("draining, tenant before malformed points: %d %s, want 503 draining", code, reason)
	}
	// Without the tenant ahead of them the points are scanned first.
	if code, reason, _ := post(t, h, "/api/v1/jobs", strings.NewReader(`{"points":[{"id":1,"x":}`)); code != http.StatusBadRequest || reason != "bad_request" {
		t.Fatalf("draining, malformed points and no tenant: %d %s, want 400 bad_request", code, reason)
	}
}

// unread is a request body that counts what is read of it.
type unread struct {
	r    io.Reader
	read int
}

func (u *unread) Read(p []byte) (int, error) {
	n, err := u.r.Read(p)
	u.read += n
	return n, err
}

// TestTickRefusedBeforeReading: a tick for a stream that does not exist,
// or sent to a draining server, is refused on its URL alone — the body is
// not read and nothing its size is allocated — with the status a decoded
// tick would have got.
func TestTickRefusedBeforeReading(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	h := s.Handler()
	sid, err := s.CreateStream(StreamSpec{Tenant: "acme", Eps: 0.1, MinPts: 2, WindowTicks: 2})
	if err != nil {
		t.Fatal(err)
	}
	// 5 MB of well-formed points: about 110 000 of them, 3.5 MB decoded.
	var doc strings.Builder
	doc.WriteString(`{"points":[`)
	for i := 0; doc.Len() < 5<<20; i++ {
		fmt.Fprintf(&doc, `{"id":%d,"x":%d.123456789,"y":-0.987654321},`, i, i%100)
	}
	doc.WriteString(`{"id":4000000000,"x":0,"y":0}]}`)
	refusedUnread := func(path string, wrap func(io.Reader) io.Reader, wantCode int, wantReason string) {
		t.Helper()
		body := &unread{r: strings.NewReader(doc.String())}
		code, reason, allocated := post(t, h, path, wrap(body))
		if code != wantCode || reason != wantReason {
			t.Fatalf("POST %s: %d %s, want %d %s", path, code, reason, wantCode, wantReason)
		}
		if body.read != 0 {
			t.Errorf("POST %s: %d bytes of the body read before the refusal", path, body.read)
		}
		if allocated >= 64<<10 {
			t.Errorf("POST %s: refusing allocated %d bytes, want < 64 KB", path, allocated)
		}
	}
	for _, wrap := range []func(io.Reader) io.Reader{
		func(r io.Reader) io.Reader { return r },
		func(r io.Reader) io.Reader { return chunked{r} },
	} {
		refusedUnread("/api/v1/streams/nope/points", wrap, http.StatusNotFound, "unknown_stream")
	}
	s.Drain()
	refusedUnread("/api/v1/streams/"+sid+"/points", func(r io.Reader) io.Reader { return r }, http.StatusServiceUnavailable, "draining")
	if got := s.hub.Counter("server_streams_rejected_total", "tenant", "acme", "reason", "draining").Value(); got != 1 {
		t.Errorf("server_streams_rejected_total{acme,draining} = %d, want 1", got)
	}
}

// TestBodyLimit: a body of exactly the limit is taken, one byte more is
// 413 — declared by Content-Length or found out while reading.
func TestBodyLimit(t *testing.T) {
	s := mustServer(t, Config{Workers: 1, TenantQuota: 10})
	h := s.Handler()
	limit := s.bodyLimit()
	if want := int64(10*maxPointBytes + bodyOverhead); limit != want {
		t.Fatalf("body limit %d, want %d", limit, want)
	}
	// padded stretches doc to n bytes with spaces ahead of its closing brace.
	padded := func(doc string, n int64) string {
		return doc[:len(doc)-1] + strings.Repeat(" ", int(n)-len(doc)) + "}"
	}
	sid, err := s.CreateStream(StreamSpec{Eps: 0.1, MinPts: 2, WindowTicks: 2})
	if err != nil {
		t.Fatal(err)
	}
	for path, doc := range map[string]string{
		"/api/v1/jobs":                       `{"tenant":"a","eps":0.1,"min_pts":1,"points":[{"id":1,"x":0,"y":0}]}`,
		"/api/v1/streams/" + sid + "/points": `{"points":[]}`,
	} {
		for _, wrap := range []func(io.Reader) io.Reader{
			func(r io.Reader) io.Reader { return r },
			func(r io.Reader) io.Reader { return chunked{r} },
		} {
			if code, reason, _ := post(t, h, path, wrap(strings.NewReader(padded(doc, limit)))); code >= 300 {
				t.Fatalf("%s at the limit: %d %s", path, code, reason)
			}
			if code, reason, _ := post(t, h, path, wrap(strings.NewReader(padded(doc, limit+1)))); code != http.StatusRequestEntityTooLarge || reason != "too_large" {
				t.Fatalf("%s one byte over the limit: %d %s, want 413 too_large", path, code, reason)
			}
		}
	}
	create := `{"tenant":"b","eps":0.1,"min_pts":2,"window_ticks":2}`
	if code, reason, _ := post(t, h, "/api/v1/streams", strings.NewReader(padded(create, createStreamLimit))); code != http.StatusCreated {
		t.Fatalf("stream creation at the limit: %d %s", code, reason)
	}
	if code, reason, _ := post(t, h, "/api/v1/streams", chunked{strings.NewReader(padded(create, createStreamLimit+1))}); code != http.StatusRequestEntityTooLarge || reason != "too_large" {
		t.Fatalf("stream creation over the limit: %d %s, want 413 too_large", code, reason)
	}
}

// invalidBodies are inputs no load level makes runnable, by reason.
var invalidBodies = []struct{ reason, points, scalars string }{
	{"duplicate_id", `[{"id":6,"x":0,"y":0},{"id":7,"x":1,"y":1},{"id":6,"x":2,"y":2}]`, `"eps":0.1,"min_pts":2`},
	{"duplicate_id", `[{"id":6,"x":0,"y":0},{"id":7000000000,"x":1,"y":1},{"id":6,"x":2,"y":2}]`, `"eps":0.1,"min_pts":2`},
	{"invalid_point", `[{"id":1,"x":0,"y":0},{"id":2,"x":1e300,"y":0}]`, `"eps":0.1,"min_pts":2`},
	{"invalid_point", `[{"id":1,"x":0,"y":-214748365}]`, `"eps":0.1,"min_pts":2`},
	{"invalid_params", `[{"id":1,"x":0,"y":0}]`, `"eps":0,"min_pts":2`},
	{"invalid_params", `[{"id":1,"x":0,"y":0}]`, `"eps":0.1,"min_pts":0`},
	{"invalid_params", `[{"id":1,"x":0,"y":0}]`, `"eps":0.1,"min_pts":2,"leaves":1025`},
	{"invalid_params", `[{"id":1,"x":0,"y":0}]`, `"eps":0.1,"min_pts":2,"leaves":100000`},
}

// TestInvalidInputIsNotAFailure: input that could never run is answered
// 422 and costs its sender nothing else — no job, no tokens, and above
// all no count against the tenant's or the global breaker, however often
// it is repeated.
func TestInvalidInputIsNotAFailure(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	h := s.Handler()
	sid, err := s.CreateStream(StreamSpec{Tenant: "acme", Eps: 0.1, MinPts: 2, WindowTicks: 2})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 20; round++ {
		for _, in := range invalidBodies {
			job := fmt.Sprintf(`{"tenant":"acme",%s,"points":%s}`, in.scalars, in.points)
			if code, reason, _ := post(t, h, "/api/v1/jobs", strings.NewReader(job)); code != http.StatusUnprocessableEntity || reason != in.reason {
				t.Fatalf("job %s: %d %s, want 422 %s", job, code, reason, in.reason)
			}
			if in.reason == "invalid_params" {
				continue // a tick carries no parameters
			}
			tick := fmt.Sprintf(`{"points":%s}`, in.points)
			if code, reason, _ := post(t, h, "/api/v1/streams/"+sid+"/points", strings.NewReader(tick)); code != http.StatusUnprocessableEntity || reason != in.reason {
				t.Fatalf("tick %s: %d %s, want 422 %s", tick, code, reason, in.reason)
			}
		}
	}
	if n := len(s.Jobs()); n != 0 {
		t.Fatalf("%d jobs were created from invalid input", n)
	}
	for _, g := range []struct {
		what   string
		labels []string
	}{
		{"server_breaker_state", []string{"scope", "global"}},
		{"server_breaker_state", []string{"scope", "tenant", "tenant", "acme"}},
		{"server_breaker_trips_total", []string{"scope", "global"}},
		{"server_tenant_tokens", []string{"tenant", "acme"}},
	} {
		var v int64
		if strings.HasSuffix(g.what, "_total") {
			v = s.hub.Counter(g.what, g.labels...).Value()
		} else {
			v = s.hub.Gauge(g.what, g.labels...).Value()
		}
		if v != 0 {
			t.Fatalf("%s%v = %d after invalid input only, want 0", g.what, g.labels, v)
		}
	}
	// The tenant is still served.
	if code, reason, _ := post(t, h, "/api/v1/jobs", strings.NewReader(
		`{"tenant":"acme","eps":0.1,"min_pts":2,"points":[{"id":1,"x":0,"y":0},{"id":2,"x":0.05,"y":0}]}`)); code != http.StatusAccepted {
		t.Fatalf("valid job after the invalid ones: %d %s", code, reason)
	}
}

// TestInvalidInputFromDirectCallers: Submit and StreamTick validate for
// themselves, so callers that bypass HTTP are covered.
func TestInvalidInputFromDirectCallers(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	sid, err := s.CreateStream(StreamSpec{Eps: 0.1, MinPts: 2, WindowTicks: 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, pts := range map[string][]geom.Point{
		"duplicate":  {{ID: 1}, {ID: 2, X: 1}, {ID: 1, X: 2}},
		"NaN":        {{ID: 1, X: math.NaN()}},
		"infinite":   {{ID: 1, Y: math.Inf(-1)}},
		"far":        {{ID: 1, X: 0.2 * grid.MaxCoord}},
		"sparse dup": {{ID: 1}, {ID: 1 << 60}, {ID: 1 << 60, X: 1}},
	} {
		if _, err := s.Submit(JobSpec{Points: pts, Eps: 0.1, MinPts: 2}); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("Submit(%s) = %v, want ErrInvalidInput", name, err)
		}
		if _, err := s.StreamTick(sid, pts); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("StreamTick(%s) = %v, want ErrInvalidInput", name, err)
		}
	}
	// A stream's range is its engine's Eps/3 sub-boxes', a third of a
	// job's: the edge refuses the band between, not the engine.
	band := []geom.Point{{ID: 1, X: 0.1 * grid.MaxCoord / 2}}
	if err := validatePoints(band, grid.New(0.1)); err != nil {
		t.Fatalf("job point in the Eps grid's range refused: %v", err)
	}
	if _, err := s.StreamTick(sid, band); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("StreamTick(beyond the sub-boxes' range) = %v, want ErrInvalidInput", err)
	}
	for _, eps := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := s.Submit(JobSpec{Points: []geom.Point{{ID: 1}}, Eps: eps, MinPts: 2}); !errors.Is(err, ErrInvalidInput) {
			t.Errorf("Submit(eps=%v) = %v, want ErrInvalidInput", eps, err)
		}
	}
	// leaves: every value up to maxLeaves is the caller's choice (≤ 0 asks
	// for the default); one more could never be hosted on this box.
	for leaves, ok := range map[int]bool{-3: true, 0: true, 1: true, maxLeaves: true, maxLeaves + 1: false, 100_000: false, math.MaxInt: false} {
		if err := validateInput([]geom.Point{{ID: 1}}, 0.1, 2, leaves); (err == nil) != ok || (!ok && !errors.Is(err, errInvalidParams)) {
			t.Errorf("validateInput(leaves=%d) = %v, want accepted=%t", leaves, err, ok)
		}
	}
	if _, err := s.Submit(JobSpec{Points: []geom.Point{{ID: 1}}, Eps: 0.1, MinPts: 2, Leaves: maxLeaves + 1}); !errors.Is(err, ErrInvalidInput) {
		t.Errorf("Submit(leaves=%d) = %v, want ErrInvalidInput", maxLeaves+1, err)
	}
	// An ID still live in the window is a duplicate too, and the refused
	// tick leaves the window and the tenant's tokens as they were.
	if _, err := s.StreamTick(sid, []geom.Point{{ID: 1}, {ID: 2, X: 0.05}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.StreamTick(sid, []geom.Point{{ID: 2, X: 0.07}}); !errors.Is(err, errDuplicateID) {
		t.Fatalf("tick reusing a live ID: %v, want a duplicate-ID refusal", err)
	}
	if st, _ := s.StreamStatus(sid); st.Tick != 1 || st.WindowPoints != 2 {
		t.Fatalf("after the refused tick: tick %d, %d points in the window; want 1, 2", st.Tick, st.WindowPoints)
	}
	if got := s.hub.Gauge("server_tenant_tokens", "tenant", "default").Value(); got != 2 {
		t.Fatalf("tenant holds %d tokens, want 2", got)
	}
}

// The statuses the two point-bearing POSTs document (DESIGN.md, "HTTP
// edge").
var (
	submitStatuses = map[int]bool{202: true, 400: true, 413: true, 422: true, 429: true, 503: true}
	tickStatuses   = map[int]bool{200: true, 400: true, 404: true, 413: true, 422: true, 429: true, 503: true}
)

// allocBound is what serving a body of n bytes may allocate: the point
// slice is at most 32 B for each 3 bytes of a `{},` element, slice growth
// over null elements and encoding/json over the other members stay inside
// the same multiple, and the constant covers the response.
func allocBound(n int) uint64 { return 64*uint64(n) + 64<<10 }

// settle waits for the goroutine count to come back to before.
func settle(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before the request", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func FuzzSubmitBody(f *testing.F) {
	for _, body := range bodyCorpus {
		f.Add([]byte(body))
	}
	for _, in := range invalidBodies {
		f.Add([]byte(fmt.Sprintf(`{"tenant":"acme",%s,"points":%s}`, in.scalars, in.points)))
	}
	s := mustServer(f, Config{Workers: 1, BreakerThreshold: -1, GlobalBreakerThreshold: -1})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		goroutines := runtime.NumGoroutine()
		code, _, allocated := post(t, h, "/api/v1/jobs", strings.NewReader(string(body)))
		if !submitStatuses[code] {
			t.Fatalf("%q: status %d is not documented", body, code)
		}
		if code == http.StatusAccepted {
			// The pipeline ran beside the measurement; wait it out so the
			// next input starts with idle workers, and measure the edge's
			// share on its own.
			for busy := true; busy; time.Sleep(time.Millisecond) {
				s.mu.Lock()
				busy = s.queued+s.inflight > 0
				s.mu.Unlock()
			}
			allocated = allocatedBy(func() { s.decodeSubmission(body) })
		}
		if allocated > allocBound(len(body)) {
			t.Fatalf("%q: %d bytes answered %d allocated %d", body, len(body), code, allocated)
		}
		settle(t, goroutines)
	})
}

func FuzzStreamTickBody(f *testing.F) {
	for _, body := range bodyCorpus {
		f.Add([]byte(body))
	}
	for _, in := range invalidBodies {
		f.Add([]byte(fmt.Sprintf(`{"points":%s}`, in.points)))
	}
	s := mustServer(f, Config{Workers: 1})
	h := s.Handler()
	sid, err := s.CreateStream(StreamSpec{Eps: 0.1, MinPts: 3, WindowTicks: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		goroutines := runtime.NumGoroutine()
		code, _, allocated := post(t, h, "/api/v1/streams/"+sid+"/points", strings.NewReader(string(body)))
		if !tickStatuses[code] {
			t.Fatalf("%q: status %d is not documented", body, code)
		}
		if code == http.StatusOK {
			// The engine's repair of the window is in the measurement and
			// answers to the window's size; measure the edge on its own.
			allocated = allocatedBy(func() { s.decodeTick(body) })
		}
		if allocated > allocBound(len(body)) {
			t.Fatalf("%q: a tick of %d bytes answered %d allocated %d", body, len(body), code, allocated)
		}
		settle(t, goroutines)
	})
}
