package mrnet

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
)

// reduceSum runs an integer sum reduction and returns the result.
func reduceSum(t *testing.T, net *Network) int {
	t.Helper()
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
	return got
}

func TestFailNodeExplicit(t *testing.T) {
	costs := CostModel{ReconnectLatency: 10 * time.Millisecond}
	net, err := New(16, 4, costs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumInternal() != 4 {
		t.Fatalf("NumInternal = %d, want 4", net.NumInternal())
	}
	victim := net.Root().Children()[1]
	if victim.IsLeaf() {
		t.Fatal("expected an internal child of the root")
	}
	adopted := len(victim.Children())
	if err := net.FailNode(victim.ID()); err != nil {
		t.Fatal(err)
	}
	// The victim's children now hang off the root, depth shrank, and the
	// reduction still covers every leaf exactly once.
	if got := len(net.Root().Children()); got != 3+adopted {
		t.Errorf("root has %d children, want %d", got, 3+adopted)
	}
	if want := 16 * 15 / 2; reduceSum(t, net) != want {
		t.Errorf("post-recovery reduce = %d, want %d", reduceSum(t, net), want)
	}
	if got := net.Recoveries(); got != 1 {
		t.Errorf("Recoveries = %d, want 1", got)
	}
	if got, want := net.Clock().Resource("mrnet/reconnect"), time.Duration(adopted)*costs.ReconnectLatency; got != want {
		t.Errorf("reconnect cost = %v, want %v", got, want)
	}
	// Idempotent: failing the same node again is a no-op.
	if err := net.FailNode(victim.ID()); err != nil {
		t.Errorf("re-failing a failed node: %v", err)
	}
	if net.Recoveries() != 1 {
		t.Errorf("Recoveries after no-op = %d, want 1", net.Recoveries())
	}
}

func TestFailNodeValidation(t *testing.T) {
	net := mustNew(t, 16, 4)
	if err := net.FailNode(0); err == nil {
		t.Error("failing the root must be rejected")
	}
	leaf := net.leaves[0]
	if err := net.FailNode(leaf.ID()); err == nil {
		t.Error("failing a leaf must be rejected")
	}
	if err := net.FailNode(9999); err == nil {
		t.Error("failing an unknown node must be rejected")
	}
}

func TestNodeCrashDuringReduceRecovers(t *testing.T) {
	net := mustNew(t, 16, 4)
	boom := errors.New("node crashed")
	net.SetFaultPlan(faultinject.New(0).
		Arm(faultinject.MRNetNode, faultinject.Rule{Times: 1, Err: boom}))
	if want := 16 * 15 / 2; reduceSum(t, net) != want {
		t.Fatalf("reduce under node crash = %d, want %d", reduceSum(t, net), want)
	}
	if got := net.Recoveries(); got != 1 {
		t.Errorf("Recoveries = %d, want 1", got)
	}
}

func TestNodeCrashDuringMulticastRecovers(t *testing.T) {
	net := mustNew(t, 16, 4)
	net.SetFaultPlan(faultinject.New(0).
		Arm(faultinject.MRNetNode, faultinject.Rule{Times: 1}))
	var mu sync.Mutex
	got := map[int]int{}
	err := Multicast(context.Background(), net, 7, nil,
		func(leaf int, v int) error {
			mu.Lock()
			got[leaf] = v
			mu.Unlock()
			return nil
		},
		nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 16 {
		t.Fatalf("delivered to %d leaves, want 16", len(got))
	}
	for leaf, v := range got {
		if v != 7 {
			t.Errorf("leaf %d received %d", leaf, v)
		}
	}
	if net.Recoveries() != 1 {
		t.Errorf("Recoveries = %d, want 1", net.Recoveries())
	}
}

// TestEveryInternalNodeCrashes arms a permanent node fault: every
// internal process eventually dies and the tree degenerates to the root
// plus its leaves — the reduction must still produce the exact answer.
func TestEveryInternalNodeCrashes(t *testing.T) {
	net := mustNew(t, 64, 4)
	internal := int64(net.NumInternal())
	net.SetFaultPlan(faultinject.New(0).
		Arm(faultinject.MRNetNode, faultinject.Rule{}))
	if want := 64 * 63 / 2; reduceSum(t, net) != want {
		t.Fatalf("reduce = %d, want %d", reduceSum(t, net), want)
	}
	if got := net.Recoveries(); got != internal {
		t.Errorf("Recoveries = %d, want %d (all internal nodes)", got, internal)
	}
	if d := net.Depth(); d != 2 {
		t.Errorf("Depth after total internal loss = %d, want 2", d)
	}
}

func TestHopFaultSurfacesAsError(t *testing.T) {
	net := mustNew(t, 8, 4)
	flaky := errors.New("link down")
	net.SetFaultPlan(faultinject.New(0).
		Arm(faultinject.MRNetHop, faultinject.Rule{After: 3, Err: flaky}))
	_, err := Reduce(context.Background(), net,
		func(leaf int) (int, error) { return 1, nil },
		func(_ *Node, in []int) (int, error) { return len(in), nil },
		nil)
	if !errors.Is(err, flaky) {
		t.Fatalf("err = %v, want wrapped hop fault", err)
	}
}

// TestAbortStopsHopCharges is the cancellation contract: when one leaf
// fails immediately, slow sibling subtrees must not keep charging hop
// costs to the simulated clock for a collective that has already
// aborted.
func TestAbortStopsHopCharges(t *testing.T) {
	costs := CostModel{HopLatency: time.Microsecond}
	net, err := New(4, 2, costs, nil) // root + 2 internal + 4 leaves
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("leaf dead")
	_, err = Reduce(context.Background(), net,
		func(leaf int) (int, error) {
			if leaf == 0 {
				return 0, boom
			}
			time.Sleep(100 * time.Millisecond)
			return leaf, nil
		},
		func(_ *Node, in []int) (int, error) { return 0, nil },
		nil)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want leaf failure", err)
	}
	if p := net.Stats().Packets; p != 0 {
		t.Errorf("aborted collective charged %d hops, want 0", p)
	}
}

// TestMulticastAbortStopsDescent: once a leaf failure is registered, no
// node that has not yet forwarded the payload does so. The ordering is
// explicit: every subtree that does not hold the failing leaf 0 parks in
// its split until the collective is marked aborted, so whatever those
// subtrees charge, they charge after the failure.
func TestMulticastAbortStopsDescent(t *testing.T) {
	net := mustNew(t, 64, 4)
	boom := errors.New("leaf dead")
	op := &opState{ctx: context.Background()}
	var delivered sync.Map
	err := op.finish(multicastAt(net, net.root, 1,
		func(n *Node, v int) ([]int, error) {
			if n.firstLeaf != 0 {
				for deadline := time.Now().Add(10 * time.Second); !op.aborted(); runtime.Gosched() {
					if time.Now().After(deadline) {
						return nil, errors.New("leaf 0's failure never aborted the collective")
					}
				}
			}
			return []int{v, v, v, v}, nil
		},
		func(leaf int, v int) error {
			if leaf == 0 {
				return boom
			}
			delivered.Store(leaf, true)
			return nil
		},
		nil, op))
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want leaf failure", err)
	}
	// Only leaf 0's three ancestors forward, four hops each; the other 72
	// of the tree's 84 edges sit behind parked nodes.
	if p := net.Stats().Packets; p > 12 {
		t.Errorf("aborted multicast charged %d hops, want at most 12 of 84", p)
	}
	delivered.Range(func(leaf, _ any) bool {
		if leaf.(int) >= 4 {
			t.Errorf("leaf %d received the payload after the abort", leaf)
		}
		return true
	})
}

// TestRecoveryPreservesLeafOrder checks the splice keeps DFS leaf order,
// which ordered reductions (partition offsets) depend on.
func TestRecoveryPreservesLeafOrder(t *testing.T) {
	net := mustNew(t, 60, 4)
	net.SetFaultPlan(faultinject.New(0).
		Arm(faultinject.MRNetNode, faultinject.Rule{Times: 3}))
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
	if len(got) != 60 {
		t.Fatalf("gathered %d values, want 60", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d holds leaf %d: recovery broke tree order", i, v)
		}
	}
}
