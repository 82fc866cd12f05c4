package mrscan

import (
	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/merge"
	"repro/internal/mrnet"
	"repro/internal/telemetry"
)

// mergeOverTCP runs the §3.3.2 progressive merge over a tree of real TCP
// connections (mrnet.NewTCP) instead of the in-process overlay: leaf
// summaries go onto the wire as merge's summaries block, every internal
// node decodes its children's payloads, combines them with the same
// merge.Combine filter, and re-encodes the reduced summaries upstream.
// Demonstrates that the merge protocol is transport-independent — the
// property that lets MRNet instantiate the same tree across a physical
// cluster. The fault plan and hub (both may be nil) give the frame layer
// its injection site and integrity counters; a frame torn by an injected
// sender death fails the Reduce, and the merge phase's retry rebuilds
// the whole overlay from the surviving summaries.
func mergeOverTCP(g grid.Grid, eps float64, leaves []leafState, fanout int, plan *faultinject.Plan, hub *telemetry.Hub) ([]*merge.Summary, error) {
	net, err := mrnet.NewTCP(len(leaves), fanout, mrnet.TCPHandlers{
		Leaf: func(leaf int, _ []byte) ([]byte, error) {
			return merge.AppendSummaries(nil, leaves[leaf].Summaries), nil
		},
		Filter: func(_ *mrnet.Node, in [][]byte) ([]byte, error) {
			groups := make([][]*merge.Summary, len(in))
			for i, p := range in {
				var err error
				if groups[i], err = merge.DecodeSummaries(p); err != nil {
					return nil, err
				}
			}
			return merge.AppendSummaries(nil, merge.Combine(g, eps, groups)), nil
		},
	})
	if err != nil {
		return nil, err
	}
	defer net.Close()
	net.SetFaultPlan(plan)
	net.SetTelemetry(hub)
	out, err := net.Reduce(nil)
	if err != nil {
		return nil, err
	}
	return merge.DecodeSummaries(out)
}
