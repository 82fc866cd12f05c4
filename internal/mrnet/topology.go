package mrnet

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/simclock"
)

// This file implements MRNet-style topology specifications. MRNet
// instantiates trees from generated topology descriptions; the common
// shorthand is a fanout product like "16x32": the root fans out to 16
// internal processes, each of which fans out to 32 children — here,
// 512 leaves in a 3-level tree. Mr. Scan "organizes processes into a
// multi-level tree with an arbitrary topology" (§1); this parser provides
// the arbitrary part.

// ParseSpec parses a fanout-product topology specification such as
// "256", "2x16" or "4x8x8" into per-level fanouts, root first.
func ParseSpec(spec string) ([]int, error) {
	parts := strings.Split(strings.TrimSpace(spec), "x")
	if len(parts) == 0 || parts[0] == "" {
		return nil, fmt.Errorf("mrnet: empty topology spec %q", spec)
	}
	fanouts := make([]int, 0, len(parts))
	leaves := 1
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("mrnet: bad fanout %q in topology spec %q", p, spec)
		}
		leaves *= v
		if leaves > 1<<20 {
			return nil, fmt.Errorf("mrnet: topology %q implies %d+ leaves", spec, leaves)
		}
		fanouts = append(fanouts, v)
	}
	return fanouts, nil
}

// NewFromSpec builds a tree from a fanout-product specification: the
// number of leaves is the product of the fanouts, and every level is
// perfectly regular. A nil clock allocates a private one.
func NewFromSpec(spec string, costs CostModel, clock *simclock.Clock) (*Network, error) {
	fanouts, err := ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return NewRegular(fanouts, costs, clock)
}

// NewRegular builds a tree with the given per-level fanouts (root
// first): fanouts [a, b, c] yields a root with a children, each with b
// children, each with c leaf children.
func NewRegular(fanouts []int, costs CostModel, clock *simclock.Clock) (*Network, error) {
	if len(fanouts) == 0 {
		return nil, fmt.Errorf("mrnet: need at least one fanout level")
	}
	for _, f := range fanouts {
		if f < 1 {
			return nil, fmt.Errorf("mrnet: fanouts must be positive, got %v", fanouts)
		}
	}
	net := newTree(costs, clock)
	net.buildRegular(net.root, fanouts)
	net.clock.Charge("mrnet/startup",
		costs.StartupBase+time.Duration(len(net.nodes))*costs.StartupPerNode)
	return net, nil
}

func (net *Network) buildRegular(parent *Node, fanouts []int) {
	if len(fanouts) == 0 {
		net.addLeaf(parent)
		return
	}
	parent.firstLeaf = len(net.leaves)
	for i := 0; i < fanouts[0]; i++ {
		net.buildRegular(net.addChild(parent), fanouts[1:])
	}
	parent.numLeaves = len(net.leaves) - parent.firstLeaf
}
