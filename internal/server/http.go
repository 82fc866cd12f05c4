package server

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/bufpool"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/stream"
)

// HTTP front end for the job server, mounted by cmd/mrscand:
//
//	POST /api/v1/jobs             submit → 202 {"id":...}, or a typed
//	                              refusal: 400 bad_request, 413 too_large,
//	                              422 duplicate_id/invalid_point/
//	                              invalid_params, 429 queue_full/quota,
//	                              503 draining/breaker
//	GET  /api/v1/jobs             list job statuses
//	GET  /api/v1/jobs/{id}        one job's status
//	GET  /api/v1/jobs/{id}/result labels of a completed job (chunked)
//	GET  /metrics                 Prometheus text exposition
//	GET  /healthz                 200 serving / 503 draining
//
// Streaming clustering rides alongside the batch jobs:
//
//	POST   /api/v1/streams                create → 201 {"id":...}, or
//	                                      429 stream_limit, 503 draining
//	GET    /api/v1/streams                list stream statuses
//	GET    /api/v1/streams/{id}           one stream's status
//	POST   /api/v1/streams/{id}/points    feed one tick of arrivals →
//	                                      tick stats; 400, 413, 422 and
//	                                      429 quota as for jobs
//	GET    /api/v1/streams/{id}/clusters  cluster summary (ids + sizes)
//	GET    /api/v1/streams/{id}/snapshot  full labeled window (chunked)
//	DELETE /api/v1/streams/{id}           close and discard the stream
//
// Rejection bodies are {"error":..., "reason":...} with machine-
// readable reasons mirroring the typed errors, and 429s carry a
// Retry-After hint — backpressure that HTTP clients can act on.
//
// Every POST body is read under a byte limit (body.go): a tenant's point
// quota times the longest a point can be written for the two point-
// bearing POSTs, 1 MiB for stream creation. A submission is refused as
// early as what has been read allows: a tenant named before its points
// goes through admission's gates before they are scanned, and a dataset
// request before anything is generated.
//
// Large label payloads (job results, stream snapshots) are written
// incrementally through a fixed-size buffer rather than materialized as
// one in-memory JSON document, so a million-point result costs the
// handler kilobytes, not hundreds of megabytes.

// A job submission is an object of tenant, eps, min_pts, leaves,
// deadline_ms (overrides the server's per-job timeout) and either
// points — [{"id","x","y"},…] inline — or dataset, which asks the
// server to generate one of the paper's distributions (handy for
// curl-driven exploration and soak tests). Unknown members are skipped.
type datasetJSON struct {
	Dist string `json:"dist"` // twitter | sdss | uniform
	N    int    `json:"n"`
	Seed int64  `json:"seed"`
}

type errorJSON struct {
	Error  string `json:"error"`
	Reason string `json:"reason,omitempty"`
}

// Handler returns the HTTP API over the server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/jobs", limited(s.bodyLimit(), s.handleSubmit))
	mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /api/v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("POST /api/v1/streams", limited(createStreamLimit, s.handleStreamCreate))
	mux.HandleFunc("GET /api/v1/streams", s.handleStreamList)
	mux.HandleFunc("GET /api/v1/streams/{id}", s.handleStreamStatus)
	mux.HandleFunc("POST /api/v1/streams/{id}/points", limited(s.bodyLimit(), s.handleStreamTick))
	mux.HandleFunc("GET /api/v1/streams/{id}/clusters", s.handleStreamClusters)
	mux.HandleFunc("GET /api/v1/streams/{id}/snapshot", s.handleStreamSnapshot)
	mux.HandleFunc("DELETE /api/v1/streams/{id}", s.handleStreamDelete)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// refuse answers a request with the status and reason of err.
func refuse(w http.ResponseWriter, err error) {
	code, reason := rejectionStatus(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, errorJSON{Error: err.Error(), Reason: reason})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(r)
	if err != nil {
		refuse(w, err)
		return
	}
	spec, ds, err := s.decodeSubmission(body)
	releaseBody(body)
	if err == nil && len(spec.Points) == 0 {
		spec.Points, err = s.generateFor(spec.Tenant, ds)
	}
	var id string
	if err == nil {
		id, err = s.Submit(spec)
	}
	if err != nil {
		refuse(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
}

// decodeSubmission decodes a job submission. Members are decoded in the
// order they arrive, so with the tenant ahead of its points (the order
// the README shows) a submission admission would turn away is refused
// with the points unscanned.
func (s *Server) decodeSubmission(body []byte) (spec JobSpec, ds *datasetJSON, err error) {
	var (
		deadlineMS int64
		haveTenant bool
	)
	o := object{b: body, depth: 1}
	for o.next() {
		switch {
		case o.keyIs("tenant"):
			o.decode(&spec.Tenant)
			haveTenant = true
		case o.keyIs("eps"):
			o.decode(&spec.Eps)
		case o.keyIs("min_pts"):
			o.decode(&spec.MinPts)
		case o.keyIs("leaves"):
			o.decode(&spec.Leaves)
		case o.keyIs("deadline_ms"):
			o.decode(&deadlineMS)
		case o.keyIs("dataset"):
			o.decode(&ds)
		case o.keyIs("points"):
			if haveTenant {
				if err := s.precheck(spec.Tenant, 0); err != nil {
					return JobSpec{}, nil, err
				}
			}
			spec.Points = o.points(s.pointsLimit())
		}
	}
	if o.err != nil {
		return JobSpec{}, nil, o.err
	}
	if deadlineMS > 0 {
		spec.Deadline = time.Duration(deadlineMS) * time.Millisecond
	}
	return spec, ds, nil
}

// generateFor generates the dataset a submission without points asked
// for — once admission has seen its size: a refused 10 M-point request
// must not allocate its 320 MB first.
func (s *Server) generateFor(tenant string, ds *datasetJSON) ([]geom.Point, error) {
	if ds == nil {
		return nil, errors.New("submission needs points or dataset")
	}
	if err := s.precheck(tenant, int64(ds.N)); err != nil {
		return nil, err
	}
	return generate(*ds)
}

// rejectionStatus maps the typed errors onto HTTP semantics; anything
// untyped is the client's malformed request.
func rejectionStatus(err error) (int, string) {
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, errDuplicateID):
		return http.StatusUnprocessableEntity, "duplicate_id"
	case errors.Is(err, errInvalidPoint):
		return http.StatusUnprocessableEntity, "invalid_point"
	case errors.Is(err, ErrInvalidInput):
		return http.StatusUnprocessableEntity, "invalid_params"
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, ErrQuotaExceeded):
		return http.StatusTooManyRequests, "quota"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrBreakerOpen):
		return http.StatusServiceUnavailable, "breaker"
	case errors.Is(err, ErrStreamLimit):
		return http.StatusTooManyRequests, "stream_limit"
	case errors.Is(err, ErrUnknownStream):
		return http.StatusNotFound, "unknown_stream"
	default:
		return http.StatusBadRequest, "bad_request"
	}
}

func generate(d datasetJSON) ([]geom.Point, error) {
	if d.N <= 0 || d.N > maxDatasetPoints {
		return nil, fmt.Errorf("dataset n must be in (0, 10M], got %d", d.N)
	}
	switch d.Dist {
	case "twitter":
		return dataset.Twitter(d.N, d.Seed), nil
	case "sdss":
		return dataset.SDSS(d.N, d.Seed), nil
	case "uniform":
		return dataset.Uniform(d.N, d.Seed, geom.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}), nil
	default:
		return nil, fmt.Errorf("unknown dataset dist %q (want twitter|sdss|uniform)", d.Dist)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Jobs())
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Status(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errorJSON{Error: err.Error(), Reason: "unknown_job"})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	labels, st, err := s.result(id)
	switch {
	case errors.Is(err, ErrUnknownJob):
		writeJSON(w, http.StatusNotFound, errorJSON{Error: err.Error(), Reason: "unknown_job"})
		return
	case errors.Is(err, ErrJobNotFinished):
		writeJSON(w, http.StatusConflict, errorJSON{Error: err.Error(), Reason: "not_finished"})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorJSON{Error: err.Error(), Reason: "failed"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, 32<<10)
	fmt.Fprintf(bw, `{"id":%q,"num_clusters":%d,"degraded":%t,"sample_rate":%s,"labels":`,
		id, st.NumClusters, st.Degraded,
		strconv.FormatFloat(st.SampleRate, 'g', -1, 64))
	writeLabelArray(bw, labels)
	bw.WriteString("}\n")
	bw.Flush()
}

// writeLabelArray streams an int array through bw; the bufio layer
// flushes to the client every time its fixed buffer fills, so the
// response never exists in memory all at once.
func writeLabelArray(bw *bufio.Writer, labels []int) {
	bw.WriteByte('[')
	var scratch [20]byte
	for i, l := range labels {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.Write(strconv.AppendInt(scratch[:0], int64(l), 10))
	}
	bw.WriteByte(']')
}

// createStreamRequest is the POST /api/v1/streams body.
type createStreamRequest struct {
	Tenant      string  `json:"tenant"`
	Name        string  `json:"name,omitempty"`
	Eps         float64 `json:"eps"`
	MinPts      int     `json:"min_pts"`
	WindowTicks int     `json:"window_ticks"`
}

// tickStatsJSON is the POST .../points response: what the tick did.
type tickStatsJSON struct {
	Tick         int     `json:"tick"`
	Arrivals     int     `json:"arrivals"`
	Expired      int     `json:"expired"`
	DirtyCells   int     `json:"dirty_cells"`
	WindowPoints int     `json:"window_points"`
	NumClusters  int     `json:"num_clusters"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

func (s *Server) handleStreamCreate(w http.ResponseWriter, r *http.Request) {
	var req createStreamRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		refuse(w, fmt.Errorf("invalid JSON: %w", err))
		return
	}
	id, err := s.CreateStream(StreamSpec{
		Tenant: req.Tenant, Name: req.Name, Eps: req.Eps, MinPts: req.MinPts,
		WindowTicks: req.WindowTicks,
	})
	if err != nil {
		refuse(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

func (s *Server) handleStreamList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Streams())
}

func (s *Server) handleStreamStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.StreamStatus(r.PathValue("id"))
	if err != nil {
		refuse(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleStreamTick(w http.ResponseWriter, r *http.Request) {
	if err := s.precheckTick(r.PathValue("id")); err != nil {
		refuse(w, err)
		return
	}
	body, err := readBody(r)
	if err != nil {
		refuse(w, err)
		return
	}
	pts, err := s.decodeTick(body)
	releaseBody(body)
	var stats stream.TickStats
	if err == nil {
		stats, err = s.StreamTick(r.PathValue("id"), pts)
	}
	// The engine has copied the points and the tick's save is joined; a
	// save that failed queued a copy.
	bufpool.Points.Put(pts)
	if err != nil {
		refuse(w, err)
		return
	}
	writeJSON(w, http.StatusOK, tickStatsJSON{
		Tick: stats.Tick, Arrivals: stats.Arrivals, Expired: stats.Expired,
		DirtyCells: stats.DirtyCells, WindowPoints: stats.WindowPoints,
		NumClusters: stats.Clusters,
		ElapsedMS:   float64(stats.Elapsed.Microseconds()) / 1000,
	})
}

// decodeTick decodes a stream tick, {"points":[…]}, into a slice from
// bufpool.Points that the caller gives back once the tick is applied.
func (s *Server) decodeTick(body []byte) ([]geom.Point, error) {
	var pts []geom.Point
	o := object{b: body, depth: 1, pool: &bufpool.Points}
	for o.next() {
		if o.keyIs("points") {
			pts = o.points(s.pointsLimit())
		}
	}
	return pts, o.err
}

func (s *Server) handleStreamClusters(w http.ResponseWriter, r *http.Request) {
	snap, err := s.StreamSnapshot(r.PathValue("id"))
	if err != nil {
		refuse(w, err)
		return
	}
	sizes := make(map[int]int)
	noise := 0
	for _, l := range snap.Labels {
		if l < 0 {
			noise++
		} else {
			sizes[l]++
		}
	}
	type clusterJSON struct {
		ID   int `json:"id"`
		Size int `json:"size"`
	}
	clusters := make([]clusterJSON, 0, len(sizes))
	for id, n := range sizes {
		clusters = append(clusters, clusterJSON{ID: id, Size: n})
	}
	sort.Slice(clusters, func(a, b int) bool { return clusters[a].ID < clusters[b].ID })
	writeJSON(w, http.StatusOK, map[string]any{
		"tick":          snap.Tick,
		"window_points": len(snap.Points),
		"num_clusters":  snap.NumClusters,
		"noise":         noise,
		"clusters":      clusters,
	})
}

// handleStreamSnapshot streams the full labeled window in chunks, the
// same way job results are served: point records are appended to a
// fixed-size buffer that flushes as it fills.
func (s *Server) handleStreamSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	snap, err := s.StreamSnapshot(id)
	if err != nil {
		refuse(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	bw := bufio.NewWriterSize(w, 32<<10)
	fmt.Fprintf(bw, `{"id":%q,"tick":%d,"num_clusters":%d,"points":[`,
		id, snap.Tick, snap.NumClusters)
	var scratch []byte
	for i, p := range snap.Points {
		if i > 0 {
			bw.WriteByte(',')
		}
		scratch = scratch[:0]
		scratch = append(scratch, `{"id":`...)
		scratch = strconv.AppendUint(scratch, p.ID, 10)
		scratch = append(scratch, `,"x":`...)
		scratch = strconv.AppendFloat(scratch, p.X, 'g', -1, 64)
		scratch = append(scratch, `,"y":`...)
		scratch = strconv.AppendFloat(scratch, p.Y, 'g', -1, 64)
		scratch = append(scratch, `,"label":`...)
		scratch = strconv.AppendInt(scratch, int64(snap.Labels[i]), 10)
		scratch = append(scratch, '}')
		bw.Write(scratch)
	}
	bw.WriteString("]}\n")
	bw.Flush()
}

func (s *Server) handleStreamDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.CloseStream(r.PathValue("id")); err != nil {
		refuse(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.hub.Metrics.WritePrometheus(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "serving"})
}
