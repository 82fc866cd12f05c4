package distrib

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/integrity"
	"repro/internal/merge"
	"repro/internal/partition"
	"repro/internal/telemetry"
)

// sampleExchange partitions pts and serves every partition in process:
// the requests a coordinator would send and the responses it would get.
func sampleExchange(tb testing.TB, pts []geom.Point, opt Options) ([]WorkRequest, []*WorkResponse) {
	tb.Helper()
	g := grid.New(opt.Eps)
	plan, err := partition.MakePlan(g, g.HistogramOf(pts), opt.Leaves, opt.MinPts, true)
	if err != nil {
		tb.Fatal(err)
	}
	split, err := partition.Split(plan, pts, partition.SplitOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	reqs := make([]WorkRequest, opt.Leaves)
	resps := make([]*WorkResponse, opt.Leaves)
	var scratch workerScratch
	for leaf := range reqs {
		reqs[leaf] = WorkRequest{Leaf: leaf, Eps: opt.Eps, MinPts: opt.MinPts, DenseBox: opt.DenseBox,
			Owned: split.Partitions[leaf], Shadow: split.Shadows[leaf], TraceID: 77}
		combined := append(slices.Clone(reqs[leaf].Owned), reqs[leaf].Shadow...)
		resps[leaf] = serve(&reqs[leaf], combined, &scratch)
		if resps[leaf].Err != "" {
			tb.Fatal(resps[leaf].Err)
		}
		resps[leaf].TraceID, resps[leaf].DecodeNS = 77, 1234
	}
	return reqs, resps
}

var sdssOpt = Options{Eps: 0.00015, MinPts: 5, Leaves: 16, DenseBox: true}

func TestCodecRoundTrip(t *testing.T) {
	reqs, resps := sampleExchange(t, dataset.Twitter(4000, 3), Options{Eps: 0.1, MinPts: 10, Leaves: 5, DenseBox: true})
	reqs = append(reqs, WorkRequest{Ping: true, Leaf: -1}, WorkRequest{Done: true}, WorkRequest{})
	for i := range reqs {
		reqs[i].Owned = append([]geom.Point(nil), reqs[i].Owned...)
		for j := range reqs[i].Owned {
			reqs[i].Owned[j].Weight = float64(j) // requests keep weights
		}
		p := appendRequest(nil, &reqs[i])
		if len(p) != reqs[i].wireSize() {
			t.Fatalf("request %d: wireSize %d, encoded %d", i, reqs[i].wireSize(), len(p))
		}
		got, err := decodeRequest(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs[i].Owned) == 0 {
			reqs[i].Owned = nil
		}
		if !reflect.DeepEqual(got, &reqs[i]) {
			t.Fatalf("request %d: Decode(Append(x)) != x", i)
		}
		if !bytes.Equal(appendRequest(nil, got), p) {
			t.Fatalf("request %d: Append(Decode(p)) != p", i)
		}
	}
	resps = append(resps, &WorkResponse{Ping: true, Leaf: 3}, &WorkResponse{Leaf: 1, Err: "boom"})
	for i, r := range resps {
		p := appendResponse(nil, r)
		if len(p) != r.wireSize() {
			t.Fatalf("response %d: wireSize %d, encoded %d", i, r.wireSize(), len(p))
		}
		got, err := decodeResponse(p)
		if err != nil {
			t.Fatal(err)
		}
		// BuildSummaries packs runs, so decoded summaries are equal values.
		if !reflect.DeepEqual(got, r) {
			t.Fatalf("response %d: Decode(Append(x)) != x", i)
		}
		if !bytes.Equal(appendResponse(nil, got), p) {
			t.Fatalf("response %d: Append(Decode(p)) != p", i)
		}
	}
	h, err := decodeHello(appendHello(nil, &Hello{Pid: 4242}))
	if err != nil || h.Pid != 4242 {
		t.Fatalf("hello round trip: %+v, %v", h, err)
	}
}

// TestDecodersRejectMalformed: short, overlong and inconsistent payloads
// fail with the typed error, which is not a clean worker exit.
func TestDecodersRejectMalformed(t *testing.T) {
	reqs, resps := sampleExchange(t, dataset.Twitter(1500, 3), Options{Eps: 0.1, MinPts: 10, Leaves: 2, DenseBox: true})
	req, resp := appendRequest(nil, &reqs[0]), appendResponse(nil, resps[0])
	hugeCount := slices.Clone(req)
	le.PutUint32(hugeCount[32:], 1<<31)
	badFlags := slices.Clone(resp)
	badFlags[56] = 0xff
	cases := map[string]func() error{
		"request: empty":           func() error { _, err := decodeRequest(nil); return err },
		"request: short":           func() error { _, err := decodeRequest(req[:len(req)-1]); return err },
		"request: trailing":        func() error { _, err := decodeRequest(append(slices.Clone(req), 0)); return err },
		"request: hostile count":   func() error { _, err := decodeRequest(hugeCount); return err },
		"response: header only":    func() error { _, err := decodeResponse(resp[:responseHdr]); return err },
		"response: short":          func() error { _, err := decodeResponse(resp[:len(resp)-5]); return err },
		"response: unknown flag":   func() error { _, err := decodeResponse(badFlags); return err },
		"response: trailing bytes": func() error { _, err := decodeResponse(append(slices.Clone(resp), 1, 2)); return err },
		"hello: short":             func() error { _, err := decodeHello([]byte{1, 2}); return err },
	}
	for name, f := range cases {
		err := f()
		if !errors.Is(err, integrity.ErrMalformed) {
			t.Errorf("%s: err = %v, want integrity.ErrMalformed", name, err)
		}
		if IsConnClosed(err) {
			t.Errorf("%s: %v counts as a closed connection", name, err)
		}
	}
}

// TestIsConnClosedClassifiesByType: the errors a worker sees when the
// coordinator goes away are a clean exit; decode, checksum, protocol and
// size errors are not — whatever their text mentions.
func TestIsConnClosedClassifiesByType(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	_, useOfClosed := conn.Read(make([]byte, 1))
	_, _, _, torn := wire.Read(bytes.NewReader(wire.Seal(wire.Begin(nil, 0), envData)[:7]), new([]byte))

	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"EOF between envelopes", fmt.Errorf("distrib: worker receiving: %w", io.EOF), true},
		{"use of closed connection", useOfClosed, true},
		{"net.ErrClosed wrapped", fmt.Errorf("x: %w", net.ErrClosed), true},
		{"connection reset", &net.OpError{Op: "read", Err: os.NewSyscallError("read", syscall.ECONNRESET)}, true},
		{"broken pipe", &net.OpError{Op: "write", Err: os.NewSyscallError("write", syscall.EPIPE)}, true},
		{"torn mid-envelope", torn, true},
		{"malformed payload mentioning EOF", fmt.Errorf("decoding: unexpected EOF: %w", integrity.ErrMalformed), false},
		{"plain text mentioning EOF", errors.New("unexpected EOF in payload"), false},
		{"io.ErrUnexpectedEOF", io.ErrUnexpectedEOF, false},
		{"checksum", fmt.Errorf("x: %w", integrity.ErrChecksum), false},
		{"too large", fmt.Errorf("x: %w", integrity.ErrTooLarge), false},
		{"protocol mismatch", &integrity.ProtocolError{Plane: "distrib", Field: "version", Got: 1, Want: 2}, false},
		{"timeout", os.ErrDeadlineExceeded, false},
	}
	for _, tc := range cases {
		if got := IsConnClosed(tc.err); got != tc.want {
			t.Errorf("%s: IsConnClosed(%v) = %t, want %t", tc.name, tc.err, got, tc.want)
		}
	}
}

// TestV1PeerRejectedAtHello: a worker of the gob revision (envelope
// version 1) fails the handshake with a ProtocolError.
func TestV1PeerRejectedAtHello(t *testing.T) {
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	go func() {
		conn, err := net.Dial("tcp", c.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		old := wire.Seal(append(wire.Begin(nil, 0), "gob bytes"...), envData)
		old[2] = 1
		conn.Write(old)
		conn.Read(make([]byte, 1)) // until the coordinator hangs up
	}()
	if err := c.AcceptWorkers(1, 5*time.Second); !integrity.IsProtocolMismatch(err) {
		t.Fatalf("err = %v, want a ProtocolError", err)
	}
}

// allocatedBytes reports what f allocates: the least of three readings of
// the process-wide counter, which other goroutines also advance.
func allocatedBytes(f func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// fuzzDecoder checks a decoder against hostile input: never a panic,
// never more memory than a small multiple of the input (a count field
// must fail before make), a typed error, and one encoding per value.
func fuzzDecoder[T any](f *testing.F, decode func([]byte) (T, error), encode func(T) []byte) {
	f.Fuzz(func(t *testing.T, p []byte) {
		var v T
		var err error
		if got := allocatedBytes(func() { v, err = decode(p) }); got > 8*uint64(len(p))+2048 {
			t.Fatalf("decoding %d bytes allocated %d", len(p), got)
		}
		if err != nil {
			if !errors.Is(err, integrity.ErrMalformed) {
				t.Fatalf("untyped decode error: %v", err)
			}
			return
		}
		if !bytes.Equal(encode(v), p) {
			t.Fatal("decoded message re-encodes to different bytes")
		}
	})
}

func FuzzDecodeWorkRequest(f *testing.F) {
	reqs, _ := sampleExchange(f, dataset.Twitter(600, 3), Options{Eps: 0.1, MinPts: 10, Leaves: 3, DenseBox: true})
	for i := range reqs {
		f.Add(appendRequest(nil, &reqs[i]))
	}
	f.Add(appendRequest(nil, &WorkRequest{Ping: true}))
	fuzzDecoder(f, decodeRequest, func(r *WorkRequest) []byte { return appendRequest(nil, r) })
}

func FuzzDecodeWorkResponse(f *testing.F) {
	_, resps := sampleExchange(f, dataset.Twitter(600, 3), Options{Eps: 0.1, MinPts: 10, Leaves: 3, DenseBox: true})
	for _, r := range resps {
		f.Add(appendResponse(nil, r))
	}
	f.Add(appendResponse(nil, &WorkResponse{Err: "boom", Ping: true}))
	fuzzDecoder(f, decodeResponse, func(r *WorkResponse) []byte { return appendResponse(nil, r) })
}

// alignLabelsMap is the sweep as RunContext did it, hash maps both ways,
// with the border claims read for noise.
func alignLabelsMap(pts []geom.Point, reqs []WorkRequest, responses []*WorkResponse, mapping map[merge.ClusterKey]int32, claims map[uint64]int32) ([]int, error) {
	byID := make(map[uint64]int, len(pts))
	for leaf, r := range responses {
		for i, p := range reqs[leaf].Owned {
			l := r.Labels[i]
			if gid, claimed := claims[p.ID]; l < 0 && claimed {
				byID[p.ID] = int(gid)
				continue
			}
			if l < 0 {
				byID[p.ID] = -1
				continue
			}
			gid, ok := mapping[merge.ClusterKey{Leaf: int32(leaf), Local: l}]
			if !ok {
				return nil, fmt.Errorf("distrib: leaf %d cluster %d missing from mapping", leaf, l)
			}
			byID[p.ID] = int(gid)
		}
	}
	labels := make([]int, len(pts))
	for i, p := range pts {
		l, ok := byID[p.ID]
		if !ok {
			return nil, fmt.Errorf("distrib: point %d not returned by any worker", p.ID)
		}
		labels[i] = l
	}
	return labels, nil
}

// TestAlignLabelsMatchesMapVersion: dense, shuffled, offset and sparse
// IDs, duplicated input points, a point no leaf returned, a cluster the
// mapping lacks, and border claims on noise and on clustered points — the
// table-and-sort sweep agrees with the map one.
func TestAlignLabelsMatchesMapVersion(t *testing.T) {
	base := dataset.Twitter(3000, 8)
	opt := Options{Eps: 0.1, MinPts: 10, Leaves: 6, DenseBox: true}
	perm := rand.New(rand.NewSource(4)).Perm(len(base))
	ids := map[string]func(i int) uint64{
		"dense":    func(i int) uint64 { return uint64(i) },
		"shuffled": func(i int) uint64 { return uint64(perm[i]) },
		"offset":   func(i int) uint64 { return 1<<40 + uint64(perm[i]) },
		"sparse":   func(i int) uint64 { return uint64(perm[i])*1_000_003 + 17 },
	}
	for name, id := range ids {
		t.Run(name, func(t *testing.T) {
			pts := slices.Clone(base)
			for i := range pts {
				pts[i].ID = id(i)
			}
			reqs, resps := sampleExchange(t, pts, opt)
			groups := make([][]*merge.Summary, len(resps))
			for i, r := range resps {
				groups[i] = r.Summaries
			}
			final := merge.Combine(grid.New(opt.Eps), opt.Eps, groups)
			mapping := merge.AssignGlobalIDs(final)
			claims := merge.BorderClaims(final, mapping)
			for leaf, r := range resps { // a claim on each leaf's first noise and first clustered point
				for _, noise := range []bool{true, false} {
					if i := slices.IndexFunc(r.Labels, func(l int32) bool { return (l < 0) == noise }); i >= 0 {
						claims[reqs[leaf].Owned[i].ID] = int32(leaf)
					}
				}
			}
			check := func(what string, q []geom.Point, wantErr bool) {
				t.Helper()
				got, err := alignLabels(q, reqs, resps, mapping, claims)
				want, werr := alignLabelsMap(q, reqs, resps, mapping, claims)
				if (err != nil) != wantErr || (err == nil) != (werr == nil) || (err != nil && err.Error() != werr.Error()) {
					t.Fatalf("%s: err = %v, map version says %v", what, err, werr)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%s: labels differ from the map version's", what)
				}
			}
			check("as is", pts, false)
			check("duplicated", append(slices.Clone(pts), pts[3], pts[3], pts[40]), false)
			check("unknown point", append(slices.Clone(pts), geom.Point{ID: 1 << 60}), true)
			var k merge.ClusterKey
			for k = range mapping {
				break
			}
			delete(mapping, k)
			check("unmapped cluster", pts, true)
		})
	}
}

// TestWorkerStageTelemetry: a traced run observes the three worker-side
// stages once per partition — a constant label set — and hangs them
// under the dispatch span; the trace ID crossed the wire.
func TestWorkerStageTelemetry(t *testing.T) {
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	hub := telemetry.New(nil)
	c.SetTelemetry(hub)
	root := hub.Start(nil, "test.run")
	c.SetTraceParent(root)
	wg := startWorkers(t, c, 2)
	var mu sync.Mutex
	traceIDs := map[uint64]int{}
	c.OnResponse = func(_ int, r *WorkResponse) {
		mu.Lock()
		traceIDs[r.TraceID]++
		mu.Unlock()
	}
	const leaves = 7
	if _, err := c.Run(dataset.Twitter(4000, 5), Options{Eps: 0.1, MinPts: 10, Leaves: leaves, DenseBox: true}); err != nil {
		t.Fatal(err)
	}
	c.Shutdown()
	wg.Wait()
	root.End()

	dispatch := hub.Trace.FindSpans("distrib.dispatch")
	if len(dispatch) != 1 {
		t.Fatalf("%d dispatch spans", len(dispatch))
	}
	if n := traceIDs[uint64(dispatch[0].ID)]; n != leaves || len(traceIDs) != 1 {
		t.Errorf("responses echoed trace IDs %v, want %d × the dispatch span's %d", traceIDs, leaves, dispatch[0].ID)
	}
	for _, stage := range workerStages {
		h := hub.Histogram("distrib_worker_stage_seconds", nil, "stage", stage)
		if h.Count() != leaves || h.Sum() <= 0 {
			t.Errorf("stage %s: %d observations summing to %v, want %d", stage, h.Count(), h.Sum(), leaves)
		}
		spans := hub.Trace.FindSpans("distrib.worker." + stage)
		if len(spans) != leaves {
			t.Errorf("stage %s: %d spans, want %d", stage, len(spans), leaves)
		}
		for _, sp := range spans {
			if sp.Parent != dispatch[0].ID || sp.WallDuration() <= 0 {
				t.Errorf("stage %s: span %+v is not a timed child of the dispatch span", stage, sp)
			}
		}
	}
	var series int
	for _, m := range hub.Metrics.Snapshot() {
		if m.Name == "distrib_worker_stage_seconds" {
			series++
		}
	}
	if series != len(workerStages) {
		t.Errorf("%d distrib_worker_stage_seconds series, want %d (no per-worker or per-leaf label)", series, len(workerStages))
	}
}

// TestRecordStagesAllocatesNothingUntraced: with no hub, or a hub and no
// trace parent, recording a response's stages costs no allocation.
func TestRecordStagesAllocatesNothingUntraced(t *testing.T) {
	resp := &WorkResponse{Leaf: 3, DecodeNS: 1000, ClusterNS: 2000, SummariseNS: 3000}
	begin := time.Now()
	var none coordMetrics
	if a := testing.AllocsPerRun(100, func() { none.recordStages(nil, false, nil, begin, resp) }); a != 0 {
		t.Errorf("nil hub: %v allocations per exchange", a)
	}
	hub := telemetry.New(nil)
	cm := resolveCoordMetrics(hub)
	if a := testing.AllocsPerRun(100, func() { cm.recordStages(hub, false, nil, begin, resp) }); a != 0 {
		t.Errorf("untraced hub: %v allocations per exchange", a)
	}
	if got := cm.stages[1].Count(); got == 0 {
		t.Error("untraced hub recorded nothing")
	}
}

// Schema-1 shapes: what the parent revision gob-encoded under
// "cluster-%04d".
type v1CellData struct {
	Reps          []geom.Point
	OwnedNonCore  map[uint64]geom.Point
	ShadowNonCore map[uint64]geom.Point
	Owned         bool
}

type v1Summary struct {
	Key     merge.ClusterKey
	Members []merge.ClusterKey
	Cells   map[grid.Coord]*v1CellData
}

type v1WorkResponse struct {
	Leaf        int
	Summaries   []*v1Summary
	Labels      []int32
	NumClusters int
	Ping        bool
	Err         string
}

// gobWorkResponse is WorkResponse without its methods: what the revision
// before the record format gob-encoded under "cluster-%04d".
type gobWorkResponse struct {
	Leaf                             int
	Summaries                        []*merge.Summary
	Labels                           []int32
	NumClusters                      int
	Ping                             bool
	Err                              string
	TraceID                          uint64
	DecodeNS, ClusterNS, SummariseNS int64
}

// TestResumeIgnoresV1Snapshots: a -checkpoint-dir the schema-1 revision
// filled (map-shaped summaries, that revision's run ID) restores nothing:
// every partition is dispatched again and the labels are a fresh run's.
func TestResumeIgnoresV1Snapshots(t *testing.T) {
	checkResumeIgnores(t, "mrscan-dist|%s|%d|%g|%d|%d", func(r *WorkResponse) any {
		v := v1WorkResponse{Leaf: r.Leaf, Labels: r.Labels, NumClusters: r.NumClusters}
		for _, s := range r.Summaries {
			vs := &v1Summary{Key: s.Key, Members: s.Members, Cells: map[grid.Coord]*v1CellData{}}
			for i := range s.Cells {
				vs.Cells[s.Cells[i].Coord] = &v1CellData{Reps: s.Reps(&s.Cells[i]), Owned: s.Cells[i].Owned}
			}
			v.Summaries = append(v.Summaries, vs)
		}
		return &v
	})
}

// TestResumeIgnoresGobSnapshots: likewise a -checkpoint-dir of gob-encoded
// responses under the run ID of the revision before the record format.
func TestResumeIgnoresGobSnapshots(t *testing.T) {
	checkResumeIgnores(t, "mrscan-dist|%s|%d|%g|%d|%d|summary-v2", func(r *WorkResponse) any {
		v := gobWorkResponse(*r)
		return &v
	})
}

// checkResumeIgnores fills a store with every partition's response as
// old encodes it, under the run ID parentFormat spelled, and checks that a
// run on it restores nothing — the record decoder would refuse the
// snapshots anyway — and labels as a fresh run does.
func checkResumeIgnores(t *testing.T, parentFormat string, old func(*WorkResponse) any) {
	t.Helper()
	pts := dataset.Twitter(5000, 5)
	opt := Options{Eps: 0.1, MinPts: 10, Leaves: 6, DenseBox: true}
	bk, err := checkpoint.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	parentID := fmt.Sprintf(parentFormat, "in.mrsc", len(pts), opt.Eps, opt.MinPts, opt.Leaves)
	if parentID == CheckpointRunID("in.mrsc", len(pts), opt) {
		t.Fatal("CheckpointRunID does not tell the formats apart")
	}
	parent := checkpoint.NewStore(bk, parentID)
	_, resps := sampleExchange(t, pts, opt)
	for _, r := range resps {
		if err := parent.Save(clusterSnapshot(r.Leaf), old(r)); err != nil {
			t.Fatal(err)
		}
	}
	if err := parent.Load(clusterSnapshot(0), new(WorkResponse)); !errors.Is(err, checkpoint.ErrCorrupt) {
		t.Fatalf("old snapshot into the record decoder: err = %v, want ErrCorrupt", err)
	}

	run := func(store *checkpoint.Store) *Result {
		t.Helper()
		c, err := NewCoordinator()
		if err != nil {
			t.Fatal(err)
		}
		wg := startWorkers(t, c, 2)
		o := opt
		o.Checkpoint = store
		res, err := c.Run(pts, o)
		if err != nil {
			t.Fatal(err)
		}
		c.Shutdown()
		wg.Wait()
		return res
	}
	fresh := run(nil)
	resumed := run(checkpoint.NewStore(bk, CheckpointRunID("in.mrsc", len(pts), opt)))
	if resumed.RestoredPartitions != 0 {
		t.Fatalf("restored %d partitions from an older store, want 0", resumed.RestoredPartitions)
	}
	if !slices.Equal(resumed.Labels, fresh.Labels) {
		t.Fatal("labels after ignoring older snapshots differ from a fresh run's")
	}
}

// loopback starts a coordinator with n in-process workers.
func loopback(b *testing.B, n int) (*Coordinator, *sync.WaitGroup) {
	b.Helper()
	c, err := NewCoordinator()
	if err != nil {
		b.Fatal(err)
	}
	c.RequestTimeout = 2 * time.Minute
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = Worker(c.Addr(), 1000+i)
		}(i)
	}
	if err := c.AcceptWorkers(n, 30*time.Second); err != nil {
		b.Fatal(err)
	}
	return c, &wg
}

// BenchmarkDistribRun is the dist_tcp shape: coordinator + 2 loopback
// workers, SDSS 150 k points in 16 partitions, plan to labels.
func BenchmarkDistribRun(b *testing.B) {
	pts := dataset.SDSS(150_000, 5)
	c, wg := loopback(b, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(pts, sdssOpt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	c.Shutdown()
	wg.Wait()
}

// BenchmarkWireCodec encodes and decodes one such op's 16 requests and
// 16 responses; MB/s is over the encoded bytes.
func BenchmarkWireCodec(b *testing.B) {
	reqs, resps := sampleExchange(b, dataset.SDSS(150_000, 5), sdssOpt)
	var enc [][]byte
	var size int64
	for i := range reqs {
		enc = append(enc, appendRequest(nil, &reqs[i]), appendResponse(nil, resps[i]))
		size += int64(len(enc[2*i]) + len(enc[2*i+1]))
	}
	b.Run("encode", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range reqs {
				wire.Seal(appendRequest(wire.Begin(nil, reqs[j].wireSize()), &reqs[j]), envData)
				wire.Seal(appendResponse(wire.Begin(nil, resps[j].wireSize()), resps[j]), envData)
			}
		}
	})
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(size)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range reqs {
				if _, err := decodeRequest(enc[2*j]); err != nil {
					b.Fatal(err)
				}
				if _, err := decodeResponse(enc[2*j+1]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
