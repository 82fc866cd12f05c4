package checkpoint

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/lustre"
)

// logPhase names entry n of a rotating log.
func logPhase(n int) string { return fmt.Sprintf("tick-%d", n) }

// rotateLog appends entries from..to to a log that keeps the last keep
// of them, and returns how many Rotates were acknowledged.
func rotateLog(st *Store, from, to, keep int) (acked int, err error) {
	for n := from; n <= to; n++ {
		var retire []string
		if n > keep {
			retire = []string{logPhase(n - keep)}
		}
		if err := st.Rotate("tick", logPhase(n), testSnap(10+n), retire...); err != nil {
			return acked, err
		}
		acked++
	}
	return acked, nil
}

// TestRotateKeepsWindow: each Rotate adds one entry and drops another in
// one manifest write; the retired snapshot leaves the store, the other
// phases (a "spec" saved beside the log) are untouched, and the
// telemetry label is the constant kind, not the numbered phase.
func TestRotateKeepsWindow(t *testing.T) {
	fs, st := newLustreStore(t, "run1")
	if err := st.Save("spec", testSnap(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := rotateLog(st, 1, 7, 3); err != nil {
		t.Fatal(err)
	}
	if got, want := st.Completed(), []string{"spec", "tick-5", "tick-6", "tick-7"}; !slices.Equal(got, want) {
		t.Fatalf("Completed = %v, want %v", got, want)
	}
	files := fs.List()
	slices.Sort(files)
	want := []string{ManifestName, phaseFile("spec"), phaseFile("tick-5"), phaseFile("tick-6"), phaseFile("tick-7")}
	slices.Sort(want)
	if !slices.Equal(files, want) {
		t.Fatalf("store holds %v, want %v", files, want)
	}
	st2 := NewStore(LustreFS(fs), "run1")
	for n := 5; n <= 7; n++ {
		var got snap
		if err := st2.Load(logPhase(n), &got); err != nil || len(got.Points) != 10+n {
			t.Fatalf("entry %d after reopen: %d points, %v", n, len(got.Points), err)
		}
	}
}

// TestSweepRemovesOnlyOrphans plants what interrupted Rotates leave —
// a published snapshot the manifest never got, a retired one never
// removed, a temp — and checks Sweep removes exactly those.
func TestSweepRemovesOnlyOrphans(t *testing.T) {
	fs, st := newLustreStore(t, "run1")
	if err := st.Save("spec", testSnap(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := rotateLog(st, 1, 4, 3); err != nil {
		t.Fatal(err)
	}
	for _, orphan := range []string{phaseFile("tick-1"), phaseFile("tick-5"), phaseFile("tick-6") + ".tmp"} {
		if _, err := fs.Create(orphan).WriteAt([]byte("left behind"), 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fs.Create("partition.bin").WriteAt([]byte("not ours"), 0); err != nil {
		t.Fatal(err)
	}
	st2 := NewStore(LustreFS(fs), "run1")
	if n, err := st2.Sweep(); err != nil || n != 3 {
		t.Fatalf("Sweep = %d, %v; want 3 removed", n, err)
	}
	if n, err := st2.Sweep(); err != nil || n != 0 {
		t.Fatalf("second Sweep = %d, %v; want nothing left to remove", n, err)
	}
	files := fs.List()
	slices.Sort(files)
	want := []string{ManifestName, phaseFile("spec"), phaseFile("tick-2"), phaseFile("tick-3"), phaseFile("tick-4"), "partition.bin"}
	slices.Sort(want)
	if !slices.Equal(files, want) {
		t.Fatalf("after Sweep the store holds %v, want %v", files, want)
	}
	// A store that cannot read its manifest must not take the snapshots
	// for orphans.
	other := NewStore(LustreFS(fs), "another-run")
	if n, err := other.Sweep(); err != nil || n != 0 {
		t.Fatalf("Sweep under a foreign run ID = %d, %v; want it to leave the store alone", n, err)
	}
}

// TestRotateCrashPoints cuts power at every file-system operation of a
// log being rotated (crash-simulating Lustre: unsynced bytes and
// renames are lost) and requires of the recovered store: the manifest
// lists a contiguous window ending at the last acknowledged entry or the
// one being written, every listed entry loads, and after Sweep no other
// snapshot is left.
func TestRotateCrashPoints(t *testing.T) {
	const entries, keep = 6, 3
	probe := lustre.New(lustre.Titan(), nil)
	probe.EnableCrashSim(1)
	if _, err := rotateLog(NewStore(LustreFS(probe), "run1"), 1, entries, keep); err != nil {
		t.Fatal(err)
	}
	total := probe.OpCount()
	for seed := int64(1); seed <= 3; seed++ {
		for k := int64(2); k <= total; k++ {
			fs := lustre.New(lustre.Titan(), nil)
			fs.EnableCrashSim(seed)
			fs.ArmCrash(k)
			acked, _ := rotateLog(NewStore(LustreFS(fs), "run1"), 1, entries, keep)
			if !fs.Crashed() {
				t.Fatalf("seed %d k=%d: no crash fired", seed, k)
			}
			if _, err := fs.Recover(); err != nil {
				t.Fatal(err)
			}
			st := NewStore(LustreFS(fs), "run1")
			got := st.Completed()
			last := acked
			if len(got) > 0 && got[len(got)-1] == logPhase(acked+1) {
				last = acked + 1 // the interrupted Rotate had committed
			}
			var want []string
			for n := max(1, last-keep+1); n <= last; n++ {
				want = append(want, logPhase(n))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d k=%d: %d acknowledged, manifest lists %v, want %v", seed, k, acked, got, want)
			}
			for _, phase := range got {
				if err := st.Verify(phase); err != nil {
					t.Fatalf("seed %d k=%d: listed entry %s: %v", seed, k, phase, err)
				}
			}
			if _, err := st.Sweep(); err != nil {
				t.Fatal(err)
			}
			snapshots := 0
			for _, name := range fs.List() {
				if IsCheckpointFile(name) && name != ManifestName {
					snapshots++
				}
			}
			// (Sweep leaves a store with an empty manifest alone.)
			if len(want) > 0 && snapshots != len(want) {
				t.Fatalf("seed %d k=%d: %d snapshot files after Sweep for %d entries: %v", seed, k, snapshots, len(want), fs.List())
			}
		}
	}
}
