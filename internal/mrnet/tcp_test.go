package mrnet

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
)

func sumHandlers(leafValue func(int) uint64) TCPHandlers {
	return TCPHandlers{
		Leaf: func(leaf int, down []byte) ([]byte, error) {
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], leafValue(leaf))
			return buf[:], nil
		},
		Filter: func(_ *Node, in [][]byte) ([]byte, error) {
			var sum uint64
			for _, p := range in {
				sum += binary.LittleEndian.Uint64(p)
			}
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], sum)
			return buf[:], nil
		},
	}
}

func TestTCPReduceSum(t *testing.T) {
	for _, leaves := range []int{1, 3, 16, 40} {
		net, err := NewTCP(leaves, 4, sumHandlers(func(l int) uint64 { return uint64(l) }))
		if err != nil {
			t.Fatal(err)
		}
		out, err := net.Reduce(nil)
		if err != nil {
			net.Close()
			t.Fatal(err)
		}
		got := binary.LittleEndian.Uint64(out)
		want := uint64(leaves * (leaves - 1) / 2)
		if got != want {
			t.Errorf("leaves=%d: sum = %d, want %d", leaves, got, want)
		}
		net.Close()
	}
}

func TestTCPDownstreamReachesEveryLeaf(t *testing.T) {
	const leaves = 24
	var delivered [leaves]atomic.Int64
	handlers := TCPHandlers{
		Leaf: func(leaf int, down []byte) ([]byte, error) {
			if string(down) != "query-42" {
				return nil, fmt.Errorf("leaf %d received %q", leaf, down)
			}
			delivered[leaf].Add(1)
			return nil, nil
		},
		Filter: func(_ *Node, in [][]byte) ([]byte, error) { return nil, nil },
	}
	net, err := NewTCP(leaves, 3, handlers)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if _, err := net.Reduce([]byte("query-42")); err != nil {
		t.Fatal(err)
	}
	for l := range delivered {
		if delivered[l].Load() != 1 {
			t.Errorf("leaf %d received %d deliveries, want 1", l, delivered[l].Load())
		}
	}
}

func TestTCPMultipleOperations(t *testing.T) {
	var round atomic.Int64
	net, err := NewTCP(8, 4, sumHandlers(func(l int) uint64 {
		return uint64(l) * uint64(round.Load())
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	for r := int64(1); r <= 5; r++ {
		round.Store(r)
		out, err := net.Reduce(nil)
		if err != nil {
			t.Fatal(err)
		}
		got := binary.LittleEndian.Uint64(out)
		want := uint64(28 * r) // 0+1+...+7 = 28
		if got != want {
			t.Errorf("round %d: sum = %d, want %d", r, got, want)
		}
	}
}

func TestTCPLeafErrorPropagates(t *testing.T) {
	boom := errors.New("leaf 5 exploded")
	handlers := TCPHandlers{
		Leaf: func(leaf int, down []byte) ([]byte, error) {
			if leaf == 5 {
				return nil, boom
			}
			return []byte{1}, nil
		},
		Filter: func(_ *Node, in [][]byte) ([]byte, error) { return []byte{1}, nil },
	}
	net, err := NewTCP(16, 4, handlers)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	_, err = net.Reduce(nil)
	if err == nil || !strings.Contains(err.Error(), "leaf 5 exploded") {
		t.Errorf("err = %v, want the leaf error text", err)
	}
}

func TestTCPLargePayloads(t *testing.T) {
	const chunk = 1 << 20 // 1 MiB per leaf
	handlers := TCPHandlers{
		Leaf: func(leaf int, down []byte) ([]byte, error) {
			return bytes.Repeat([]byte{byte(leaf)}, chunk), nil
		},
		Filter: func(_ *Node, in [][]byte) ([]byte, error) {
			var out []byte
			for _, p := range in {
				out = append(out, p...)
			}
			return out, nil
		},
	}
	net, err := NewTCP(6, 3, handlers)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	out, err := net.Reduce(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 6*chunk {
		t.Fatalf("gathered %d bytes, want %d", len(out), 6*chunk)
	}
	// Every leaf's bytes present, in leaf order (filters preserve child
	// order).
	for l := 0; l < 6; l++ {
		seg := out[l*chunk : (l+1)*chunk]
		if seg[0] != byte(l) || seg[chunk-1] != byte(l) {
			t.Fatalf("segment %d carries wrong bytes", l)
		}
	}
}

// TestTCPHistogramReduction runs the partitioner's real payload type —
// Eps-cell histograms gob-encoded over the wire — through the TCP tree,
// as the distributed partitioner would on a physical cluster.
func TestTCPHistogramReduction(t *testing.T) {
	g := grid.New(0.1)
	encode := func(h *grid.Histogram) ([]byte, error) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(h.Counts); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	decode := func(p []byte) (*grid.Histogram, error) {
		h := grid.NewHistogram()
		if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&h.Counts); err != nil {
			return nil, err
		}
		return h, nil
	}
	handlers := TCPHandlers{
		Leaf: func(leaf int, down []byte) ([]byte, error) {
			h := grid.NewHistogram()
			// Each leaf contributes counts for its own cell and a shared one.
			h.Counts[grid.Coord{CX: int32(leaf), CY: 0}] = int64(leaf + 1)
			h.Counts[grid.Coord{CX: 100, CY: 100}] = 2
			return encode(h)
		},
		Filter: func(_ *Node, in [][]byte) ([]byte, error) {
			sum := grid.NewHistogram()
			for _, p := range in {
				h, err := decode(p)
				if err != nil {
					return nil, err
				}
				sum.Add(h)
			}
			return encode(sum)
		},
	}
	const leaves = 10
	net, err := NewTCP(leaves, 4, handlers)
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	out, err := net.Reduce(nil)
	if err != nil {
		t.Fatal(err)
	}
	h, err := decode(out)
	if err != nil {
		t.Fatal(err)
	}
	if h.Counts[grid.Coord{CX: 100, CY: 100}] != 2*leaves {
		t.Errorf("shared cell = %d, want %d", h.Counts[grid.Coord{CX: 100, CY: 100}], 2*leaves)
	}
	for l := 0; l < leaves; l++ {
		if h.Counts[grid.Coord{CX: int32(l), CY: 0}] != int64(l+1) {
			t.Errorf("leaf %d cell = %d, want %d", l, h.Counts[grid.Coord{CX: int32(l), CY: 0}], l+1)
		}
	}
	_ = g
}

func TestTCPValidation(t *testing.T) {
	if _, err := NewTCP(4, 4, TCPHandlers{}); err == nil {
		t.Error("missing handlers must be rejected")
	}
	if _, err := NewTCP(0, 4, sumHandlers(func(int) uint64 { return 0 })); err == nil {
		t.Error("zero leaves must be rejected")
	}
}

func TestTCPCloseThenReduce(t *testing.T) {
	net, err := NewTCP(4, 4, sumHandlers(func(int) uint64 { return 1 }))
	if err != nil {
		t.Fatal(err)
	}
	net.Close()
	net.Close() // idempotent
	if _, err := net.Reduce(nil); err == nil {
		t.Error("Reduce on a closed overlay must fail")
	}
}

// TestTCPConnectionLossSurfacesError kills the overlay mid-operation:
// the in-flight Reduce must fail with an error rather than hang.
func TestTCPConnectionLossSurfacesError(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	handlers := TCPHandlers{
		Leaf: func(leaf int, down []byte) ([]byte, error) {
			if leaf == 0 {
				close(started)
				<-release
			}
			return []byte{1}, nil
		},
		Filter: func(_ *Node, in [][]byte) ([]byte, error) { return []byte{1}, nil },
	}
	net, err := NewTCP(8, 4, handlers)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := net.Reduce(nil)
		done <- err
	}()
	<-started
	net.Close()
	close(release)
	select {
	case err := <-done:
		if err == nil {
			t.Error("Reduce over a torn-down overlay must fail")
		}
	case <-timeoutChan(t):
		t.Fatal("Reduce hung after overlay teardown")
	}
}

func timeoutChan(t *testing.T) <-chan time.Time {
	t.Helper()
	return time.After(10 * time.Second)
}

func TestTCPTopologyMatchesInProcess(t *testing.T) {
	net, err := NewTCP(512, DefaultFanout, sumHandlers(func(int) uint64 { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	defer net.Close()
	if net.tree.NumInternal() != 2 {
		t.Errorf("512 leaves over TCP: internal = %d, want 2 (Table 1)", net.tree.NumInternal())
	}
}
