package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
)

// The differential oracle: the structs the HTTP edge decoded with
// json.Decoder before the scanner in body.go replaced that path.
type submitRequest struct {
	Tenant     string       `json:"tenant"`
	Eps        float64      `json:"eps"`
	MinPts     int          `json:"min_pts"`
	Leaves     int          `json:"leaves,omitempty"`
	DeadlineMS int64        `json:"deadline_ms,omitempty"`
	Points     []pointJSON  `json:"points,omitempty"`
	Dataset    *datasetJSON `json:"dataset,omitempty"`
}

type pointJSON struct {
	ID uint64  `json:"id"`
	X  float64 `json:"x"`
	Y  float64 `json:"y"`
}

type tickRequest struct {
	Points []pointJSON `json:"points"`
}

func oracleDecode(body []byte, v any) error {
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// appendPointsJSON writes points the way the benchmark's clients do.
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

// submitBody is a serve_jobs body: n Twitter points behind the scalars.
func submitBody(n int, seed int64) []byte {
	b := []byte(`{"tenant":"interactive-0","eps":0.1,"min_pts":40,"leaves":4,"points":`)
	return append(appendPointsJSON(b, dataset.Twitter(n, seed)), '}')
}

// bodyCorpus seeds the fuzz targets and is the table of
// TestScannerMatchesEncodingJSON.
var bodyCorpus = []string{
	string(submitBody(3, 1)),
	`{"points":[{"id":1,"x":0.5,"y":0.25},{"id":2,"x":-1e-3,"y":2E+2}]}`,
	`{"tenant":"acme","eps":0.1,"min_pts":20,"dataset":{"dist":"twitter","n":1500,"seed":9}}`,
	`{"points":[null,{"id":7}]}`,
	`{"points":[{}]}`,
	`{"points":[{"Id":3,"X":1,"Y":2}]}`,
	`{"POINTS":[{"id":3,"x":1}],"Tenant":"t","MIN_PTſ":4}`,
	`{"points":[{"id":1,"tags":{"a":[1,2,{"b":null}],"c":"}"},"x":1,"y":2}],"extra":[[],{}]}`,
	`{"points":[{"id":1.5,"x":1,"y":2}]}`,
	`{"points":[{"id":-1,"x":1,"y":2}]}`,
	`{"points":[{"id":"1","x":1,"y":2}]}`,
	`{"points":[{"id":01,"x":1,"y":2}]}`,
	`{"points":[{"id":1,"x":1e999,"y":2}]}`,
	`{"points":[{"id":1,"x":1e-999,"y":-0}]}`,
	`{"points":[{"id":1,"x":1,"y":2},]}`,
	`{"points":[{"id":1,"x":1,"y":2}`,
	`{"points":{"id":1}}`,
	`{"points":7}`,
	`{"points":[1]}`,
	`{"points":null,"eps":null,"tenant":null}`,
	`{"points":[{"id":1,"x":1,"x":null,"y":2,"y":3}]}`,
	`{"eps":1,"eps":2,"dataset":{"n":5},"dataset":{"dist":"sdss"}}`,
	`{"points":[{"id":1}],"points":[{"x":2}]}`,
	`{"eps":"0.1"}`,
	`{"min_pts":1.5}`,
	`{"deadline_ms":250,"no_degrade":true,"leaves":8}`,
	` {"eps" : 0.5 , "points" : [ { "id" : 1 , "x" : 1 , "y" : 2 } , null ] } trailing`,
	`{"points":[{"id":18446744073709551615,"x":-1.7976931348623157e+308,"y":5e-324}]}`,
	`{"points":[{"id":18446744073709551616}]}`,
	`{"a\qb":1}`,
	"{\"ten\x01ant\":1}",
	"{\"\xff\":1,\"eps\":2}",
	`{}`,
	`null`,
	`nullx`,
	`nul`,
	`[1]`,
	`7`,
	`"s"`,
	`true`,
	``,
	`{"eps":1}}`,
	`{"eps":1,}`,
	`{"eps" 1}`,
	`{eps:1}`,
}

// checkAgainstOracle decodes body with the scanner and with encoding/json
// into the old structs and demands the same verdict and, when both accept,
// the same values to the bit. A repeated points member is the one
// documented divergence.
func checkAgainstOracle(t *testing.T, s *Server, body []byte) {
	t.Helper()
	samePoints := func(got []geom.Point, want []pointJSON) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%q: scanner has %d points, encoding/json %d", body, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.ID != w.ID || math.Float64bits(g.X) != math.Float64bits(w.X) || math.Float64bits(g.Y) != math.Float64bits(w.Y) {
				t.Fatalf("%q: point %d is %+v, encoding/json has %+v", body, i, g, w)
			}
		}
	}
	sameVerdict := func(err, oracleErr error) bool {
		t.Helper()
		if errors.Is(err, errRepeatedPoints) {
			return false
		}
		if (err == nil) != (oracleErr == nil) {
			t.Fatalf("%q: scanner says %v, encoding/json says %v", body, err, oracleErr)
		}
		return err == nil
	}

	var req submitRequest
	oracleErr := oracleDecode(body, &req)
	spec, ds, err := s.decodeSubmission(body)
	if sameVerdict(err, oracleErr) {
		var deadline time.Duration
		if req.DeadlineMS > 0 {
			deadline = time.Duration(req.DeadlineMS) * time.Millisecond
		}
		if spec.Tenant != req.Tenant || math.Float64bits(spec.Eps) != math.Float64bits(req.Eps) ||
			spec.MinPts != req.MinPts || spec.Leaves != req.Leaves ||
			spec.Deadline != deadline {
			t.Fatalf("%q: scanner scalars %+v, encoding/json %+v", body, spec, req)
		}
		if !reflect.DeepEqual(ds, req.Dataset) {
			t.Fatalf("%q: scanner dataset %+v, encoding/json %+v", body, ds, req.Dataset)
		}
		samePoints(spec.Points, req.Points)
	}

	var tick tickRequest
	oracleErr = oracleDecode(body, &tick)
	pts, err := s.decodeTick(body)
	if sameVerdict(err, oracleErr) {
		samePoints(pts, tick.Points)
	}
}

func TestScannerMatchesEncodingJSON(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	for _, body := range bodyCorpus {
		checkAgainstOracle(t, s, []byte(body))
	}
	// What the benchmark's two HTTP workloads send on one seed: the eight
	// small and two large serve_jobs bodies, and serve_stream ticks.
	const seed = 5
	for sub := int64(0); sub < 10; sub++ {
		n := 4000
		if sub >= 8 {
			n = 32000
		}
		checkAgainstOracle(t, s, submitBody(n, seed*64+sub))
	}
	for _, batch := range dataset.Firehose(25, 2000, seed, dataset.DefaultFirehoseOptions()) {
		checkAgainstOracle(t, s, append(appendPointsJSON([]byte(`{"points":`), batch), '}'))
	}
}

// TestScannerNestingLimit pins encoding/json's depth limit: 10 000
// nested containers are accepted, one more is refused.
func TestScannerNestingLimit(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	for _, extra := range []int{maxDepth - 1, maxDepth} {
		top := []byte(`{"x":` + strings.Repeat("[", extra) + strings.Repeat("]", extra) + `}`)
		checkAgainstOracle(t, s, top)
		// A point object sits two levels further down.
		inPoint := []byte(`{"points":[{"x":1,"t":` + strings.Repeat("[", extra-2) + strings.Repeat("]", extra-2) + `}]}`)
		checkAgainstOracle(t, s, inPoint)
	}
}

func TestScannerRefusesRepeatedPoints(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	for _, body := range []string{
		`{"points":[{"id":1}],"points":[{"x":2}]}`,
		`{"points":null,"POINTS":[]}`,
	} {
		if _, _, err := s.decodeSubmission([]byte(body)); !errors.Is(err, errRepeatedPoints) {
			t.Errorf("%s: submission error %v, want errRepeatedPoints", body, err)
		}
		if _, err := s.decodeTick([]byte(body)); !errors.Is(err, errRepeatedPoints) {
			t.Errorf("%s: tick error %v, want errRepeatedPoints", body, err)
		}
	}
}

// TestScannerStopsAtTheQuota: a body cannot make the scanner hold more
// points than the tenant's whole quota.
func TestScannerStopsAtTheQuota(t *testing.T) {
	s := mustServer(t, Config{Workers: 1, TenantQuota: 3})
	at := append(appendPointsJSON([]byte(`{"points":`), dataset.Twitter(3, 1)), '}')
	if pts, err := s.decodeTick(at); err != nil || len(pts) != 3 {
		t.Fatalf("3 points under a quota of 3: %d points, %v", len(pts), err)
	}
	over := append(appendPointsJSON([]byte(`{"points":`), dataset.Twitter(4, 1)), '}')
	if _, err := s.decodeTick(over); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("4 points under a quota of 3: %v, want ErrQuotaExceeded", err)
	}
}

// TestDecodeAllocsIndependentOfPointCount: the scanner allocates the
// point slice and what encoding/json spends on the scalars — nothing per
// point.
func TestDecodeAllocsIndependentOfPointCount(t *testing.T) {
	s := mustServer(t, Config{Workers: 1})
	allocs := func(n int) float64 {
		body := submitBody(n, 3)
		return testing.AllocsPerRun(10, func() {
			if spec, _, err := s.decodeSubmission(body); err != nil || len(spec.Points) != n {
				t.Fatalf("decoding %d points: %d, %v", n, len(spec.Points), err)
			}
		})
	}
	small, large := allocs(500), allocs(16000)
	if small != large {
		t.Fatalf("decode allocates %v times for 500 points and %v for 16000", small, large)
	}
	// The slice is sized from the body: capacity equals the point count.
	spec, _, _ := s.decodeSubmission(submitBody(4000, 3))
	if cap(spec.Points) != 4000 {
		t.Fatalf("4000 points decoded into capacity %d", cap(spec.Points))
	}
}

func FuzzPointsBody(f *testing.F) {
	for _, body := range bodyCorpus {
		f.Add([]byte(body))
	}
	s := mustServer(f, Config{Workers: 1})
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, s, body)
	})
}

var (
	decodeSink int
	numberSink float64
)

// BenchmarkSubmitDecode decodes serve_jobs bodies of both sizes with the
// scanner and, for the ratio, with the encoding/json path it replaced.
// The numbers case converts the coordinates of a serve_jobs body, as its
// client writes them, with strconv.ParseFloat and with the scanner's own
// pass.
func BenchmarkSubmitDecode(b *testing.B) {
	var nums [][]byte
	for _, p := range dataset.Twitter(4000, 5) {
		nums = append(nums, strconv.AppendFloat(nil, p.X, 'g', -1, 64), strconv.AppendFloat(nil, p.Y, 'g', -1, 64))
	}
	b.Run("numbers/parsefloat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, num := range nums {
				f, err := strconv.ParseFloat(string(num), 64)
				if err != nil {
					b.Fatal(err)
				}
				numberSink += f
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(nums)), "ns/number")
	})
	b.Run("numbers/scanner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, num := range nums {
				o := object{b: num}
				var f float64
				if o.float(&f); o.err != nil {
					b.Fatal(o.err)
				}
				numberSink += f
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(nums)), "ns/number")
	})
	s := mustServer(b, Config{Workers: 1})
	for _, n := range []int{4000, 32000} {
		body := submitBody(n, 5)
		b.Run(fmt.Sprintf("scanner/points=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				spec, _, err := s.decodeSubmission(body)
				if err != nil {
					b.Fatal(err)
				}
				decodeSink += len(spec.Points)
			}
		})
		b.Run(fmt.Sprintf("oracle/points=%d", n), func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var req submitRequest
				if err := oracleDecode(body, &req); err != nil {
					b.Fatal(err)
				}
				pts := make([]geom.Point, len(req.Points))
				for i, p := range req.Points {
					pts[i] = geom.Point{ID: p.ID, X: p.X, Y: p.Y}
				}
				decodeSink += len(pts)
			}
		})
	}
}

// mustServer starts a server that is closed when the test ends.
func mustServer(tb testing.TB, cfg Config) *Server {
	tb.Helper()
	s, err := New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(s.Close)
	return s
}
