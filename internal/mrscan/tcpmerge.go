package mrscan

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"repro/internal/faultinject"
	"repro/internal/grid"
	"repro/internal/merge"
	"repro/internal/mrnet"
	"repro/internal/telemetry"
)

// mergeOverTCP runs the §3.3.2 progressive merge over a tree of real TCP
// connections (mrnet.NewTCP) instead of the in-process overlay: leaf
// summaries are gob-encoded onto the wire, every internal node decodes
// its children's payloads, combines them with the same merge.Combine
// filter, and re-encodes the reduced summaries upstream. Demonstrates
// that the merge protocol is transport-independent — the property that
// lets MRNet instantiate the same tree across a physical cluster.
// The fault plan and hub (both may be nil) give the frame layer its
// injection site and integrity counters; a frame torn by an injected
// sender death fails the Reduce, and the merge phase's retry rebuilds
// the whole overlay from the surviving summaries.
func mergeOverTCP(g grid.Grid, eps float64, leaves []leafState, fanout int, plan *faultinject.Plan, hub *telemetry.Hub) ([]*merge.Summary, error) {
	encode := func(sums []*merge.Summary) ([]byte, error) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(sums); err != nil {
			return nil, fmt.Errorf("mrscan: encoding summaries: %w", err)
		}
		return buf.Bytes(), nil
	}
	decode := func(p []byte) ([]*merge.Summary, error) {
		var sums []*merge.Summary
		if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&sums); err != nil {
			return nil, fmt.Errorf("mrscan: decoding summaries: %w", err)
		}
		return sums, nil
	}
	net, err := mrnet.NewTCP(len(leaves), fanout, mrnet.TCPHandlers{
		Leaf: func(leaf int, _ []byte) ([]byte, error) {
			return encode(leaves[leaf].Summaries)
		},
		Filter: func(_ *mrnet.Node, in [][]byte) ([]byte, error) {
			groups := make([][]*merge.Summary, len(in))
			for i, p := range in {
				sums, err := decode(p)
				if err != nil {
					return nil, err
				}
				groups[i] = sums
			}
			return encode(merge.Combine(g, eps, groups))
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
	return decode(out)
}
