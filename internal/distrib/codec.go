package distrib

import (
	"encoding"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/checkpoint"
	"repro/internal/geom"
	"repro/internal/integrity"
	"repro/internal/merge"
	"repro/internal/ptio"
)

// Fixed-record payload encodings of the three messages (layouts in
// docs/FORMATS.md): little-endian, every length up front, points as
// ptio's 32-byte weighted records, summaries as merge's block. One
// encoding per value. Decoders check every count against the bytes that
// remain before allocating, copy everything out of the payload, and fail
// with an error that errors.Is integrity.ErrMalformed.

const (
	helloLen    = 8
	requestHdr  = 44 // leaf, minPts, eps, traceID (8 each), nOwned, nShadow, flags (4 each)
	responseHdr = 60 // leaf, numClusters, traceID, three stage times (8 each), nLabels, errLen, flags (4 each)
	pointRec    = 32
)

// Flag bits: a request may set any, a response only flagPing.
const (
	flagDenseBox = 1 << iota
	flagPing
	flagDone
)

var le = binary.LittleEndian

func malformed(msg string, format string, args ...any) error {
	return fmt.Errorf("distrib: decoding %s: %s: %w", msg, fmt.Sprintf(format, args...), integrity.ErrMalformed)
}

func flagBits(bits ...bool) (f uint32) {
	for i, b := range bits {
		if b {
			f |= 1 << i
		}
	}
	return f
}

func appendHello(buf []byte, h *Hello) []byte { return le.AppendUint64(buf, uint64(h.Pid)) }

func decodeHello(p []byte) (Hello, error) {
	if len(p) != helloLen {
		return Hello{}, malformed("Hello", "%d bytes, want %d", len(p), helloLen)
	}
	return Hello{Pid: int(int64(le.Uint64(p)))}, nil
}

// wireSize is the request's encoded payload length.
func (r *WorkRequest) wireSize() int { return requestHdr + pointRec*(len(r.Owned)+len(r.Shadow)) }

// BinarySize is the response's encoded payload length.
func (r *WorkResponse) BinarySize() int {
	return responseHdr + 4*len(r.Labels) + len(r.Err) + merge.BlockSize(r.Summaries)
}

func appendRequest(buf []byte, r *WorkRequest) []byte {
	buf = le.AppendUint64(le.AppendUint64(buf, uint64(r.Leaf)), uint64(r.MinPts))
	buf = le.AppendUint64(le.AppendUint64(buf, math.Float64bits(r.Eps)), r.TraceID)
	buf = le.AppendUint32(le.AppendUint32(buf, uint32(len(r.Owned))), uint32(len(r.Shadow)))
	buf = le.AppendUint32(buf, flagBits(r.DenseBox, r.Ping, r.Done))
	for _, p := range r.Owned {
		buf = ptio.AppendRecord(buf, p, true)
	}
	for _, p := range r.Shadow {
		buf = ptio.AppendRecord(buf, p, true)
	}
	return buf
}

func decodeRequest(p []byte) (*WorkRequest, error) {
	r, _, err := decodeRequestInto(p, nil)
	return r, err
}

// decodeRequestInto is decodeRequest decoding the owned and shadow records
// in one run into slab, reused when it has room: Owned is slab[:nOwned]
// and Shadow the rest. It returns the slab it used.
func decodeRequestInto(p []byte, slab []geom.Point) (*WorkRequest, []geom.Point, error) {
	if len(p) < requestHdr {
		return nil, slab, malformed("WorkRequest", "%d bytes, header is %d", len(p), requestHdr)
	}
	nOwned, nShadow, flags := uint64(le.Uint32(p[32:])), uint64(le.Uint32(p[36:])), le.Uint32(p[40:])
	if (nOwned+nShadow)*pointRec != uint64(len(p)-requestHdr) || flags >= flagDone<<1 {
		return nil, slab, malformed("WorkRequest", "%d+%d points, flags %#x in %d bytes", nOwned, nShadow, flags, len(p))
	}
	r := &WorkRequest{
		Leaf: int(int64(le.Uint64(p))), MinPts: int(int64(le.Uint64(p[8:]))),
		Eps: math.Float64frombits(le.Uint64(p[16:])), TraceID: le.Uint64(p[24:]),
		DenseBox: flags&flagDenseBox != 0, Ping: flags&flagPing != 0, Done: flags&flagDone != 0,
	}
	if n := int(nOwned + nShadow); n > 0 {
		slab, _ = ptio.AppendPoints(slices.Grow(slab[:0], n), p[requestHdr:], true) // whole records: checked above
		if nOwned > 0 {
			r.Owned = slab[:nOwned:nOwned]
		}
		if nShadow > 0 {
			r.Shadow = slab[nOwned:n:n]
		}
	}
	return r, slab, nil
}

func appendResponse(buf []byte, r *WorkResponse) []byte {
	buf = le.AppendUint64(le.AppendUint64(buf, uint64(r.Leaf)), uint64(r.NumClusters))
	buf = le.AppendUint64(le.AppendUint64(buf, r.TraceID), uint64(r.DecodeNS))
	buf = le.AppendUint64(le.AppendUint64(buf, uint64(r.ClusterNS)), uint64(r.SummariseNS))
	buf = le.AppendUint32(le.AppendUint32(buf, uint32(len(r.Labels))), uint32(len(r.Err)))
	buf = le.AppendUint32(buf, flagBits(false, r.Ping))
	for _, l := range r.Labels {
		buf = le.AppendUint32(buf, uint32(l))
	}
	return merge.AppendSummaries(append(buf, r.Err...), r.Summaries)
}

// The coordinator's per-partition checkpoints hold a response in its wire
// encoding, and so does encoding/gob.
var _ interface {
	checkpoint.Records
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
} = (*WorkResponse)(nil)

// AppendBinary appends the response's wire payload to buf.
func (r *WorkResponse) AppendBinary(buf []byte) ([]byte, error) { return appendResponse(buf, r), nil }

// MarshalBinary is the response's wire payload.
func (r *WorkResponse) MarshalBinary() ([]byte, error) {
	return r.AppendBinary(make([]byte, 0, r.BinarySize()))
}

// UnmarshalBinary decodes a wire payload into r.
func (r *WorkResponse) UnmarshalBinary(p []byte) error {
	got, err := decodeResponse(p)
	if err != nil {
		return err
	}
	*r = *got
	return nil
}

func decodeResponse(p []byte) (*WorkResponse, error) {
	if len(p) < responseHdr {
		return nil, malformed("WorkResponse", "%d bytes, header is %d", len(p), responseHdr)
	}
	nLabels, errLen, flags := uint64(le.Uint32(p[48:])), uint64(le.Uint32(p[52:])), le.Uint32(p[56:])
	if nLabels*4+errLen > uint64(len(p)-responseHdr) || flags&^flagPing != 0 {
		return nil, malformed("WorkResponse", "%d labels, %d error bytes, flags %#x in %d bytes", nLabels, errLen, flags, len(p))
	}
	r := &WorkResponse{
		Leaf: int(int64(le.Uint64(p))), NumClusters: int(int64(le.Uint64(p[8:]))), TraceID: le.Uint64(p[16:]),
		DecodeNS: int64(le.Uint64(p[24:])), ClusterNS: int64(le.Uint64(p[32:])), SummariseNS: int64(le.Uint64(p[40:])),
		Ping: flags&flagPing != 0,
	}
	p = p[responseHdr:]
	if nLabels > 0 {
		r.Labels = make([]int32, nLabels)
		for i := range r.Labels {
			r.Labels[i] = int32(le.Uint32(p[4*i:]))
		}
	}
	p = p[4*nLabels:]
	r.Err = string(p[:errLen])
	var err error
	if r.Summaries, err = merge.DecodeSummaries(p[errLen:]); err != nil {
		return nil, fmt.Errorf("distrib: decoding WorkResponse: %w", err)
	}
	return r, nil
}
