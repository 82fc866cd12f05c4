package partition

import (
	"context"
	"time"

	"repro/internal/geom"
	"repro/internal/lustre"
	"repro/internal/mrnet"
	"repro/internal/ptio"
)

// DirectResult is the output of DistributeDirect: partitions held in
// memory for direct hand-off to the cluster phase instead of a partition
// file on the parallel file system.
type DirectResult struct {
	Plan *Plan
	// Partitions[j] and Shadows[j] are partition j's owned and shadow
	// points.
	Partitions [][]geom.Point
	Shadows    [][]geom.Point
	// Wall-clock durations of the stages, cut as in DistResult: ReadTime
	// is stage 1, PlanTime stage 2 (hot-cell resolution and the root's
	// serial MakePlanUnits) alone, TransferTime stage 3 including the
	// leaves' Split.
	ReadTime     time.Duration
	PlanTime     time.Duration
	TransferTime time.Duration
	// ReadSim and WriteSim are the simulated-hardware costs of the read
	// and delivery stages, the same accounting DistResult reports for the
	// file-system path so the two designs compare like-for-like. ReadSim
	// is Lustre traffic for the input shards; WriteSim is the overlay
	// transfer cost of sending partition contents as messages — the cost
	// that replaces the file path's small random writes (§6).
	ReadSim  time.Duration
	WriteSim time.Duration
	// TotalPoints is the input size; TransferredPoints includes shadow
	// duplication.
	TotalPoints       int64
	TransferredPoints int64
}

// DistributeDirect is the paper's stated next step (§5.1.1, §6): "A
// better design for this step would be to send partitioned data as
// messages over the network directly to Mr. Scan's clustering processes"
// — eliminating the small random Lustre writes that dominate the
// partition phase.
//
// The input is still read from the file system (unavoidable), the
// histogram reduction and serial planning are unchanged, but partition
// contents travel over the overlay network (charged per byte on the
// simulated clock) and never touch the file system.
func DistributeDirect(ctx context.Context, net *mrnet.Network, fs *lustre.FS, eps float64, inputFile string, opt DistOptions) (*DirectResult, error) {
	st, err := readAndPlan(ctx, net, fs, eps, inputFile, opt)
	if err != nil {
		return nil, err
	}
	plan, shards := st.plan, st.shards
	rs := int64(ptio.RecordSize(opt.HasWeight))

	// --- Stage 3: contributions travel the overlay as messages ---
	transferStart := time.Now()
	simAtTransfer := fs.Clock().Total()
	splitOpt := SplitOptions{ShadowReps: opt.ShadowReps}
	combined, err := mrnet.Reduce(ctx, net,
		func(leaf int) (*SplitResult, error) {
			unitOf, err := shards[leaf].units(plan)
			if err != nil {
				return nil, err
			}
			return splitPoints(plan, shards[leaf].pts, unitOf, splitOpt), nil
		},
		func(_ *mrnet.Node, parts []*SplitResult) (*SplitResult, error) {
			out := &SplitResult{
				Partitions: make([][]geom.Point, opt.NumPartitions),
				Shadows:    make([][]geom.Point, opt.NumPartitions),
			}
			for _, p := range parts {
				for j := 0; j < opt.NumPartitions; j++ {
					out.Partitions[j] = append(out.Partitions[j], p.Partitions[j]...)
					out.Shadows[j] = append(out.Shadows[j], p.Shadows[j]...)
				}
			}
			return out, nil
		},
		func(sr *SplitResult) int64 {
			var pts int64
			for j := range sr.Partitions {
				pts += int64(len(sr.Partitions[j]) + len(sr.Shadows[j]))
			}
			return pts * rs
		},
	)
	if err != nil {
		return nil, err
	}
	transferTime := time.Since(transferStart)
	writeSim := fs.Clock().Total() - simAtTransfer

	var transferred int64
	for j := range combined.Partitions {
		transferred += int64(len(combined.Partitions[j]) + len(combined.Shadows[j]))
	}
	return &DirectResult{
		Plan:              plan,
		Partitions:        combined.Partitions,
		Shadows:           combined.Shadows,
		ReadTime:          st.readTime,
		PlanTime:          st.planTime,
		TransferTime:      transferTime,
		ReadSim:           st.readSim,
		WriteSim:          writeSim,
		TotalPoints:       st.total,
		TransferredPoints: transferred,
	}, nil
}
