package mrnet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func mustNew(t *testing.T, leaves, fanout int) *Network {
	t.Helper()
	net, err := New(leaves, fanout, CostModel{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestTopologyValidation(t *testing.T) {
	if _, err := New(0, 4, CostModel{}, nil); err == nil {
		t.Error("zero leaves must be rejected")
	}
	if _, err := New(4, 1, CostModel{}, nil); err == nil {
		t.Error("fanout 1 must be rejected")
	}
}

func TestFlatTopology(t *testing.T) {
	net := mustNew(t, 8, 256)
	if net.NumLeaves() != 8 {
		t.Errorf("NumLeaves = %d, want 8", net.NumLeaves())
	}
	if net.NumInternal() != 0 {
		t.Errorf("NumInternal = %d, want 0 (root can hold 8 children)", net.NumInternal())
	}
	if net.Depth() != 2 {
		t.Errorf("Depth = %d, want 2", net.Depth())
	}
}

// TestTable1Topologies checks the internal-process counts of Table 1: with
// 256-way fanout, 512 leaves need 2 internal processes, 2048 need 8,
// 4096 need 16 and 8192 need 32; 128 and below need none.
func TestTable1Topologies(t *testing.T) {
	tests := []struct {
		leaves       int
		wantInternal int
	}{
		{2, 0}, {8, 0}, {32, 0}, {128, 0},
		{512, 2}, {2048, 8}, {4096, 16}, {8192, 32},
	}
	for _, tt := range tests {
		net := mustNew(t, tt.leaves, DefaultFanout)
		if got := net.NumInternal(); got != tt.wantInternal {
			t.Errorf("leaves=%d: NumInternal = %d, want %d", tt.leaves, got, tt.wantInternal)
		}
		if net.NumLeaves() != tt.leaves {
			t.Errorf("leaves=%d: NumLeaves = %d", tt.leaves, net.NumLeaves())
		}
		if d := net.Depth(); d > 3 {
			t.Errorf("leaves=%d: Depth = %d, want <= 3", tt.leaves, d)
		}
	}
}

func TestTopologyLeafCountProperty(t *testing.T) {
	f := func(leavesRaw uint16, fanoutRaw uint8) bool {
		leaves := int(leavesRaw)%2000 + 1
		fanout := int(fanoutRaw)%62 + 2
		net, err := New(leaves, fanout, CostModel{}, nil)
		if err != nil {
			return false
		}
		if net.NumLeaves() != leaves {
			return false
		}
		// Every node respects the fanout.
		for _, n := range net.nodes {
			if len(n.children) > fanout {
				return false
			}
		}
		// Leaf indices are dense and unique.
		seen := map[int]bool{}
		for _, l := range net.leaves {
			if l.leafIndex < 0 || l.leafIndex >= leaves || seen[l.leafIndex] {
				return false
			}
			seen[l.leafIndex] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestReduceSum(t *testing.T) {
	for _, leaves := range []int{1, 2, 7, 64, 600} {
		net := mustNew(t, leaves, 8)
		got, err := Reduce(context.Background(), net,
			func(leaf int) (int, error) { return leaf, nil },
			func(_ *Node, in []int) (int, error) {
				s := 0
				for _, v := range in {
					s += v
				}
				return s, nil
			},
			nil)
		if err != nil {
			t.Fatal(err)
		}
		want := leaves * (leaves - 1) / 2
		if got != want {
			t.Errorf("leaves=%d: Reduce sum = %d, want %d", leaves, got, want)
		}
	}
}

func TestReduceOrdering(t *testing.T) {
	// Filters must see children in tree order so reductions over ordered
	// data (e.g. partition offsets) stay deterministic: gather all leaf
	// indices via concatenation and check the result is sorted.
	net := mustNew(t, 500, 6)
	got, err := Reduce(context.Background(), net,
		func(leaf int) ([]int, error) { return []int{leaf}, nil },
		func(_ *Node, in [][]int) ([]int, error) {
			var out []int
			for _, part := range in {
				out = append(out, part...)
			}
			return out, nil
		},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("gathered %d values, want 500", len(got))
	}
	if !sort.IntsAreSorted(got) {
		t.Error("reduction must preserve leaf order (children combined in tree order)")
	}
}

func TestReduceLeafError(t *testing.T) {
	net := mustNew(t, 16, 4)
	boom := errors.New("boom")
	_, err := Reduce(context.Background(), net,
		func(leaf int) (int, error) {
			if leaf == 11 {
				return 0, boom
			}
			return 0, nil
		},
		func(_ *Node, in []int) (int, error) { return 0, nil },
		nil)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestReduceFilterError(t *testing.T) {
	net := mustNew(t, 16, 4)
	boom := errors.New("filter exploded")
	_, err := Reduce(context.Background(), net,
		func(leaf int) (int, error) { return leaf, nil },
		func(n *Node, in []int) (int, error) {
			return 0, boom
		},
		nil)
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestMulticastBroadcast(t *testing.T) {
	net := mustNew(t, 100, 5)
	var mu sync.Mutex
	received := map[int]string{}
	err := Multicast(context.Background(), net, "hello",
		nil,
		func(leaf int, v string) error {
			mu.Lock()
			received[leaf] = v
			mu.Unlock()
			return nil
		},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(received) != 100 {
		t.Fatalf("delivered to %d leaves, want 100", len(received))
	}
	for leaf, v := range received {
		if v != "hello" {
			t.Errorf("leaf %d received %q", leaf, v)
		}
	}
}

func TestMulticastSplitRouting(t *testing.T) {
	// Route a slice of per-leaf values down the tree: each node slices
	// its payload among children by leaf counts.
	net := mustNew(t, 300, 7)
	payload := make([]int, 300)
	for i := range payload {
		payload[i] = i * i
	}
	countLeaves := func(n *Node) int {
		if n.IsLeaf() {
			return 1
		}
		total := 0
		var rec func(*Node)
		rec = func(m *Node) {
			if m.IsLeaf() {
				total++
				return
			}
			for _, c := range m.Children() {
				rec(c)
			}
		}
		rec(n)
		return total
	}
	var mu sync.Mutex
	got := map[int]int{}
	err := Multicast(context.Background(), net, payload,
		func(n *Node, in []int) ([][]int, error) {
			out := make([][]int, len(n.Children()))
			off := 0
			for i, c := range n.Children() {
				k := countLeaves(c)
				out[i] = in[off : off+k]
				off += k
			}
			if off != len(in) {
				return nil, fmt.Errorf("payload size mismatch: %d != %d", off, len(in))
			}
			return out, nil
		},
		func(leaf int, v []int) error {
			if len(v) != 1 {
				return fmt.Errorf("leaf %d received %d values", leaf, len(v))
			}
			mu.Lock()
			got[leaf] = v[0]
			mu.Unlock()
			return nil
		},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	for leaf := 0; leaf < 300; leaf++ {
		if got[leaf] != leaf*leaf {
			t.Fatalf("leaf %d received %d, want %d", leaf, got[leaf], leaf*leaf)
		}
	}
}

func TestMulticastSplitArityError(t *testing.T) {
	net := mustNew(t, 8, 2)
	err := Multicast(context.Background(), net, 0,
		func(n *Node, in int) ([]int, error) { return []int{in}, nil }, // wrong arity
		func(leaf int, v int) error { return nil },
		nil)
	if err == nil {
		t.Error("split returning wrong arity must fail")
	}
}

func TestStartupCostScalesWithNodes(t *testing.T) {
	costs := CostModel{StartupBase: time.Millisecond, StartupPerNode: time.Millisecond}
	small, err := New(4, 256, costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	big, err := New(512, 256, costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := small.Clock().Resource("mrnet/startup")
	bt := big.Clock().Resource("mrnet/startup")
	if bt <= st {
		t.Errorf("startup for 512 leaves (%v) must exceed 4 leaves (%v)", bt, st)
	}
	// Linear model: 515 nodes + base vs 5 nodes + base.
	if want := time.Millisecond * (1 + 515); bt != want {
		t.Errorf("startup = %v, want %v", bt, want)
	}
}

func TestHopAccounting(t *testing.T) {
	costs := CostModel{HopLatency: time.Microsecond, BytesPerSec: 1e6}
	net, err := New(16, 4, costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Reduce(context.Background(), net,
		func(leaf int) (int, error) { return 1, nil },
		func(_ *Node, in []int) (int, error) { return len(in), nil },
		func(int) int64 { return 100 })
	if err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	// 16 leaves -> 4 internal -> root: 16 + 4 = 20 edges crossed.
	if st.Packets != 20 {
		t.Errorf("Packets = %d, want 20", st.Packets)
	}
	if st.Bytes != 2000 {
		t.Errorf("Bytes = %d, want 2000", st.Bytes)
	}
}

func TestNodeAccessorsAndTitanCosts(t *testing.T) {
	net := mustNew(t, 4, 2)
	root := net.Root()
	if root.ID() != 0 || root.Level() != 0 || root.IsLeaf() {
		t.Errorf("root accessors wrong: id=%d level=%d leaf=%v", root.ID(), root.Level(), root.IsLeaf())
	}
	child := root.Children()[0]
	if child.Level() != root.Level()+1 {
		t.Errorf("child level = %d", child.Level())
	}
	costs := TitanCosts()
	if costs.StartupPerNode <= 0 || costs.HopLatency <= 0 || costs.BytesPerSec <= 0 {
		t.Errorf("TitanCosts must model real costs: %+v", costs)
	}
}

func TestReduceRunsLeavesConcurrently(t *testing.T) {
	net := mustNew(t, 32, 8)
	start := time.Now()
	_, err := Reduce(context.Background(), net,
		func(leaf int) (int, error) {
			time.Sleep(10 * time.Millisecond)
			return 0, nil
		},
		func(_ *Node, in []int) (int, error) { return 0, nil },
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 200*time.Millisecond {
		t.Errorf("32 sleeping leaves took %v; they must run concurrently", elapsed)
	}
}
