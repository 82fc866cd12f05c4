package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stream"
)

// refEngine builds a fault-free reference engine with the same
// parameters a server stream uses, for label comparison.
func refEngine(t *testing.T, sp StreamSpec) *stream.Engine {
	t.Helper()
	eng, err := stream.New(stream.Config{Eps: sp.Eps, MinPts: sp.MinPts, WindowTicks: sp.WindowTicks})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func sameSnapshot(t *testing.T, got, want stream.Snapshot, context string) {
	t.Helper()
	if got.Tick != want.Tick || len(got.Points) != len(want.Points) || got.NumClusters != want.NumClusters {
		t.Fatalf("%s: snapshot shape (tick %d, %d pts, %d clusters) != reference (tick %d, %d pts, %d clusters)",
			context, got.Tick, len(got.Points), got.NumClusters, want.Tick, len(want.Points), want.NumClusters)
	}
	for i := range got.Points {
		if got.Points[i].ID != want.Points[i].ID || got.Labels[i] != want.Labels[i] {
			t.Fatalf("%s: point %d: got (id %d, label %d), reference (id %d, label %d)",
				context, i, got.Points[i].ID, got.Labels[i], want.Points[i].ID, want.Labels[i])
		}
	}
}

func TestStreamLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sp := StreamSpec{Tenant: "acme", Name: "geo", Eps: 0.12, MinPts: 5, WindowTicks: 4}
	id, err := s.CreateStream(sp)
	if err != nil {
		t.Fatal(err)
	}
	ref := refEngine(t, sp)
	batches := dataset.Firehose(8, 80, 31, dataset.DefaultFirehoseOptions())
	for _, batch := range batches {
		if _, err := s.StreamTick(id, batch); err != nil {
			t.Fatal(err)
		}
		if _, err := ref.Tick(batch); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := s.StreamSnapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, snap, ref.Snapshot(), "after 8 ticks")

	st, err := s.StreamStatus(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Tick != 8 || st.WindowPoints != 4*80 || st.Tenant != "acme" || st.Name != "geo" {
		t.Fatalf("status = %+v", st)
	}
	if got := s.Streams(); len(got) != 1 || got[0].ID != id {
		t.Fatalf("Streams() = %+v", got)
	}

	// Closing refunds the tenant's window tokens and removes state.
	s.mu.Lock()
	held := s.tenants["acme"].tokens
	s.mu.Unlock()
	if held != 4*80 {
		t.Fatalf("tenant holds %d tokens, want %d", held, 4*80)
	}
	if err := s.CloseStream(id); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	held = s.tenants["acme"].tokens
	s.mu.Unlock()
	if held != 0 {
		t.Fatalf("tokens after close = %d, want 0", held)
	}
	if _, err := s.state.List(streamDir(id)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stream dir survives close: %v", err)
	}
	if _, err := s.StreamSnapshot(id); !errors.Is(err, ErrUnknownStream) {
		t.Fatalf("snapshot after close = %v, want ErrUnknownStream", err)
	}
}

func TestStreamAdmission(t *testing.T) {
	s, err := New(Config{Workers: 1, StreamsPerTenant: 1, TenantQuota: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	sp := StreamSpec{Tenant: "a", Eps: 0.1, MinPts: 3, WindowTicks: 2}
	id, err := s.CreateStream(sp)
	if err != nil {
		t.Fatal(err)
	}
	// Per-tenant stream cap.
	if _, err := s.CreateStream(sp); !errors.Is(err, ErrStreamLimit) {
		t.Fatalf("second stream: %v, want ErrStreamLimit", err)
	}
	// Another tenant is unaffected.
	if _, err := s.CreateStream(StreamSpec{Tenant: "b", Eps: 0.1, MinPts: 3, WindowTicks: 2}); err != nil {
		t.Fatal(err)
	}
	// Bad spec rejected up front.
	if _, err := s.CreateStream(StreamSpec{Tenant: "a", Eps: -1, MinPts: 3, WindowTicks: 2}); err == nil {
		t.Fatal("negative eps accepted")
	}

	// Quota: a tick that would push the window past TenantQuota is
	// rejected and leaves both tokens and the engine untouched.
	batch := make([]geom.Point, 90)
	for i := range batch {
		batch[i] = geom.Point{ID: uint64(i), X: float64(i), Y: 0}
	}
	if _, err := s.StreamTick(id, batch); err != nil {
		t.Fatal(err)
	}
	over := make([]geom.Point, 20)
	for i := range over {
		over[i] = geom.Point{ID: uint64(1000 + i), X: float64(i), Y: 5}
	}
	if _, err := s.StreamTick(id, over); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("over-quota tick: %v, want ErrQuotaExceeded", err)
	}
	s.mu.Lock()
	held := s.tenants["a"].tokens
	s.mu.Unlock()
	if held != 90 {
		t.Fatalf("tokens after rejected tick = %d, want 90", held)
	}
	st, _ := s.StreamStatus(id)
	if st.Tick != 1 || st.WindowPoints != 90 {
		t.Fatalf("rejected tick advanced the stream: %+v", st)
	}

	// A rejected batch (duplicate IDs) refunds its full charge too.
	if _, err := s.StreamTick(id, []geom.Point{{ID: 5, X: 0, Y: 0}, {ID: 5, X: 1, Y: 1}}); err == nil {
		t.Fatal("duplicate-ID batch accepted")
	}
	s.mu.Lock()
	held = s.tenants["a"].tokens
	s.mu.Unlock()
	if held != 90 {
		t.Fatalf("tokens after invalid batch = %d, want 90", held)
	}

	// Draining rejects creation and ingest but still allows close.
	s.Drain()
	if _, err := s.CreateStream(StreamSpec{Tenant: "c", Eps: 0.1, MinPts: 3, WindowTicks: 2}); !errors.Is(err, ErrDraining) {
		t.Fatalf("create while draining: %v, want ErrDraining", err)
	}
	if _, err := s.StreamTick(id, nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("tick while draining: %v, want ErrDraining", err)
	}
	if err := s.CloseStream(id); err != nil {
		t.Fatalf("close while draining: %v", err)
	}
}

func TestStreamRecovery(t *testing.T) {
	dir := t.TempDir()
	sp := StreamSpec{Tenant: "acme", Name: "geo", Eps: 0.12, MinPts: 5, WindowTicks: 3}
	batches := dataset.Firehose(10, 70, 17, dataset.DefaultFirehoseOptions())
	ref := refEngine(t, sp)

	s1, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	id, err := s1.CreateStream(sp)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range batches[:6] {
		if _, err := s1.StreamTick(id, batch); err != nil {
			t.Fatal(err)
		}
	}
	s1.Drain()
	s1.Close()

	// A new instance on the same directory recovers the stream: same ID,
	// same labels, quota re-charged, and ticking continues seamlessly.
	s2, err := New(Config{Workers: 1, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	st, err := s2.StreamStatus(id)
	if err != nil {
		t.Fatalf("stream not recovered: %v", err)
	}
	if !st.Recovered || st.Tick != 6 || st.WindowPoints != 3*70 || st.Tenant != "acme" {
		t.Fatalf("recovered status = %+v", st)
	}
	s2.mu.Lock()
	held := s2.tenants["acme"].tokens
	s2.mu.Unlock()
	if held != 3*70 {
		t.Fatalf("recovered tenant holds %d tokens, want %d", held, 3*70)
	}

	for ti, batch := range batches {
		if _, err := ref.Tick(batch); err != nil {
			t.Fatal(err)
		}
		if ti >= 6 {
			if _, err := s2.StreamTick(id, batch); err != nil {
				t.Fatal(err)
			}
		}
		if ti == 5 {
			snap, err := s2.StreamSnapshot(id)
			if err != nil {
				t.Fatal(err)
			}
			sameSnapshot(t, snap, ref.Snapshot(), "immediately after recovery")
		}
	}
	snap, err := s2.StreamSnapshot(id)
	if err != nil {
		t.Fatal(err)
	}
	sameSnapshot(t, snap, ref.Snapshot(), "after post-recovery ticks")

	// A fresh stream on the recovered server gets a non-colliding ID.
	id2, err := s2.CreateStream(sp)
	if err != nil {
		t.Fatal(err)
	}
	if id2 == id {
		t.Fatalf("recovered server reissued stream ID %s", id)
	}
}

// tickBody is the POST .../points body carrying batch.
func tickBody(batch []geom.Point) string {
	var sb strings.Builder
	sb.WriteString(`{"points":[`)
	for i, p := range batch {
		if i > 0 {
			sb.WriteByte(',')
		}
		b, _ := json.Marshal(pointJSON{ID: p.ID, X: p.X, Y: p.Y})
		sb.Write(b)
	}
	sb.WriteString(`]}`)
	return sb.String()
}

func TestHTTPStreamEndpoints(t *testing.T) {
	s, err := New(Config{Workers: 1, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, m := postJSON(t, ts, "/api/v1/streams",
		`{"tenant":"acme","name":"geo","eps":0.12,"min_pts":5,"window_ticks":3}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d body %v", resp.StatusCode, m)
	}
	id, _ := m["id"].(string)
	if id == "" {
		t.Fatalf("create returned no id: %v", m)
	}

	// Feed a few ticks and check the stats response.
	batches := dataset.Firehose(4, 50, 7, dataset.DefaultFirehoseOptions())
	for ti, batch := range batches {
		resp, m = postJSON(t, ts, "/api/v1/streams/"+id+"/points", tickBody(batch))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tick %d status = %d body %v", ti, resp.StatusCode, m)
		}
		if int(m["tick"].(float64)) != ti+1 || int(m["arrivals"].(float64)) != 50 {
			t.Fatalf("tick %d stats = %v", ti, m)
		}
	}

	resp, m = getJSON(t, ts, "/api/v1/streams/"+id)
	if resp.StatusCode != http.StatusOK || int(m["tick"].(float64)) != 4 || int(m["window_points"].(float64)) != 150 {
		t.Fatalf("status = %d body %v", resp.StatusCode, m)
	}
	resp, m = getJSON(t, ts, "/api/v1/streams/"+id+"/clusters")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clusters status = %d", resp.StatusCode)
	}
	if int(m["window_points"].(float64)) != 150 {
		t.Fatalf("clusters summary = %v", m)
	}

	// The chunked snapshot parses as one JSON document with every window
	// point labeled.
	resp, m = getJSON(t, ts, "/api/v1/streams/"+id+"/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status = %d", resp.StatusCode)
	}
	pts, _ := m["points"].([]any)
	if len(pts) != 150 {
		t.Fatalf("snapshot has %d points, want 150", len(pts))
	}
	first, _ := pts[0].(map[string]any)
	for _, k := range []string{"id", "x", "y", "label"} {
		if _, ok := first[k]; !ok {
			t.Fatalf("snapshot point missing %q: %v", k, first)
		}
	}

	// Listing shows the stream; deletion removes it and later lookups 404.
	lresp, err := ts.Client().Get(ts.URL + "/api/v1/streams")
	if err != nil {
		t.Fatal(err)
	}
	var list []map[string]any
	if err := json.NewDecoder(lresp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if len(list) != 1 || list[0]["id"] != id {
		t.Fatalf("stream list = %v", list)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/streams/"+id, nil)
	dresp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d", dresp.StatusCode)
	}
	resp, m = getJSON(t, ts, "/api/v1/streams/"+id)
	if resp.StatusCode != http.StatusNotFound || m["reason"] != "unknown_stream" {
		t.Fatalf("deleted stream lookup = %d %v", resp.StatusCode, m)
	}
}

// TestHTTPStreamSkipsSamplingMembers creates a stream with the create
// members of the removed subsampled and re-anchored modes. They are
// skipped as unknown: the stream is created and serves exactly the labels
// of an exact engine, on an input where sampling at that threshold and
// rate would change them, and a tick reply has no "reanchored" member.
func TestHTTPStreamSkipsSamplingMembers(t *testing.T) {
	s, err := New(Config{Workers: 1, StateDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, m := postJSON(t, ts, "/api/v1/streams", `{"tenant":"acme","eps":0.05,"min_pts":8,"window_ticks":4,`+
		`"subsample_threshold":1,"subsample_rate":0.3,"reanchor_every":2,"seed":7}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d body %v", resp.StatusCode, m)
	}
	id, _ := m["id"].(string)
	ref := refEngine(t, StreamSpec{Eps: 0.05, MinPts: 8, WindowTicks: 4})
	want := []string{"arrivals", "dirty_cells", "elapsed_ms", "expired", "num_clusters", "tick", "window_points"}
	for _, batch := range dataset.Firehose(6, 200, 29, dataset.DefaultFirehoseOptions()) {
		resp, m = postJSON(t, ts, "/api/v1/streams/"+id+"/points", tickBody(batch))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tick status = %d body %v", resp.StatusCode, m)
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		if slices.Sort(keys); !slices.Equal(keys, want) {
			t.Fatalf("tick reply members %v, want %v", keys, want)
		}
		if _, err := ref.Tick(batch); err != nil {
			t.Fatal(err)
		}
	}

	resp, m = getJSON(t, ts, "/api/v1/streams/"+id+"/snapshot")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot status = %d", resp.StatusCode)
	}
	snap := ref.Snapshot()
	pts, _ := m["points"].([]any)
	if len(pts) != len(snap.Points) {
		t.Fatalf("snapshot has %d points, exact engine %d", len(pts), len(snap.Points))
	}
	for i, p := range pts {
		pm, _ := p.(map[string]any)
		if uint64(pm["id"].(float64)) != snap.Points[i].ID || int(pm["label"].(float64)) != snap.Labels[i] {
			t.Fatalf("point %d: served %v, exact engine (id %d, label %d)", i, pm, snap.Points[i].ID, snap.Labels[i])
		}
	}
}
