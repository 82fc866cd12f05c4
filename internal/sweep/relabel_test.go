package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/merge"
	"repro/internal/ptio"
)

// relabelByMap is the sweep's relabelling as Run did it until the
// per-leaf tables: one map lookup per clustered point. It returns the
// records Run must write, leaf by leaf, or the error it must fail with.
func relabelByMap(mapping map[merge.ClusterKey]int32, data []*LeafData, opt Options) ([]ptio.LabeledPoint, error) {
	var out []ptio.LabeledPoint
	for leaf, d := range data {
		for i, p := range d.Points {
			var cluster int64
			if l := d.Labels[i]; l >= 0 {
				gid, ok := mapping[merge.ClusterKey{Leaf: int32(leaf), Local: l}]
				if !ok {
					return nil, fmt.Errorf("sweep: leaf %d cluster %d missing from global mapping", leaf, l)
				}
				cluster = int64(gid)
			} else if gid, claimed := opt.Claims[p.ID]; claimed {
				cluster = int64(gid)
			} else if opt.IncludeNoise {
				cluster = NoiseID
			} else {
				continue
			}
			out = append(out, ptio.LabeledPoint{Point: p, Cluster: cluster})
		}
	}
	return out, nil
}

// TestTableRelabelEqualsMapRelabel: on a mapping with gaps in every
// leaf's local IDs, a leaf with no clusters at all, keys for leaves and
// locals that do not exist, border claims and noise, the records Run
// writes are the map relabel's — and a label the mapping lacks (in a gap,
// or past the leaf's last entry) fails with the same error.
func TestTableRelabelEqualsMapRelabel(t *testing.T) {
	const leaves = 5
	rng := rand.New(rand.NewSource(9))
	mapping := map[merge.ClusterKey]int32{
		key(-1, 0): 77, key(leaves, 3): 78, key(2, -4): 79, // nobody's: ignored, not a panic
	}
	locals := make([][]int32, leaves) // the local IDs each leaf may use
	for leaf := 0; leaf < leaves; leaf++ {
		if leaf == 3 {
			continue // a leaf of pure noise: no mapping entries
		}
		for local := int32(0); local < 40; local++ {
			if local%3 != 1 { // gaps
				mapping[key(int32(leaf), local)] = int32(rng.Intn(25))
				locals[leaf] = append(locals[leaf], local)
			}
		}
	}
	build := func(badLeaf int, badLabel int32) []*LeafData {
		data := make([]*LeafData, leaves)
		id := uint64(0)
		for leaf := range data {
			d := &LeafData{}
			for i := 0; i < 200; i++ {
				label := int32(-1)
				if n := len(locals[leaf]); n > 0 && i%4 != 0 {
					label = locals[leaf][rng.Intn(n)]
				}
				d.Points = append(d.Points, geom.Point{ID: id, X: float64(id) / 3, Y: float64(leaf)})
				d.Labels = append(d.Labels, label)
				id++
			}
			if leaf == badLeaf {
				d.Labels[150] = badLabel
			}
			data[leaf] = d
		}
		return data
	}
	claims := map[uint64]int32{0: 4, 4: 9, 600: 2, 604: 11, 999: 1} // noise points (i%4 == 0), one on the noise-only leaf
	for _, opt := range []Options{{}, {IncludeNoise: true}, {Claims: claims}, {IncludeNoise: true, Claims: claims}} {
		t.Run(fmt.Sprintf("noise=%t,claims=%d", opt.IncludeNoise, len(opt.Claims)), func(t *testing.T) {
			data := build(-1, 0)
			want, err := relabelByMap(mapping, data, opt)
			if err != nil {
				t.Fatal(err)
			}
			net, fs := env(t, leaves)
			res, err := Run(context.Background(), net, fs, "out.mrsl", mapping,
				func(leaf int) (*LeafData, error) { return data[leaf], nil }, opt)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ReadOutput(fs, "out.mrsl")
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || res.PointsWritten != int64(len(want)) {
				t.Fatalf("Run wrote %d records (reports %d), the map relabel gives %d, or they differ",
					len(got), res.PointsWritten, len(want))
			}
		})
	}
	for name, bad := range map[string][2]int32{"in a gap": {1, 4}, "past the table": {2, 40}, "on the unmapped leaf": {3, 0}} {
		t.Run("missing "+name, func(t *testing.T) {
			data := build(int(bad[0]), bad[1])
			_, want := relabelByMap(mapping, data, Options{})
			net, fs := env(t, leaves)
			_, err := Run(context.Background(), net, fs, "out.mrsl", mapping,
				func(leaf int) (*LeafData, error) { return data[leaf], nil }, Options{})
			if want == nil || err == nil || !strings.Contains(err.Error(), want.Error()) {
				t.Fatalf("err = %v, the map relabel fails with %v", err, want)
			}
		})
	}
}
