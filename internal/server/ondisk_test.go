package server

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/lustre"
	"repro/internal/mrscan"
	"repro/internal/telemetry"
)

// goldenRecord is a snapshot payload that encodes itself.
type goldenRecord struct{ A, B uint32 }

func (g goldenRecord) BinarySize() int { return 4 }

func (g goldenRecord) AppendBinary(b []byte) ([]byte, error) {
	return append(b, byte(g.A), byte(g.A>>8), byte(g.B), byte(g.B>>8)), nil
}

// onDiskGolden is every file the script in TestOnDiskBytesUnchanged
// leaves, with its SHA-256, as the writers produced them before they
// shared one storage port (commit fb856f6). The exceptions moved on
// purpose:
//   - job-000002's spec.json, whose optional key was no_degrade until
//     degraded mode was removed and is deadline_ns since;
//   - the stream's spec, saved as StreamSpec without the subsampling and
//     re-anchor fields since those were removed;
//   - the stream's ticks, fixed records since 0edf085's gob ticks:
//     ckpt-arrivals-4.ckpt and ckpt-arrivals-5.ckpt replace ckpt-tick-4.ckpt
//     and ckpt-tick-5.ckpt, and its MANIFEST.ckpt names them (and records
//     the spec's CRC);
//   - store/ckpt-t-2.ckpt and store/MANIFEST.ckpt, by gob's type numbering
//     alone: the script no longer gob-encodes a tick before them, so the
//     []float64 payload's type ID, and the CRC the manifest keeps of it,
//     changed. Both decode to the same values.
var onDiskGolden = map[string]string{
	"journal/jobs/job-000001/input.mrsc":                "f142a663e54d2f809d03f10a2e43ab0caf3fef89c00de5a6db376d6a52f64d6c",
	"journal/jobs/job-000001/spec.json":                 "42129456f8ba2970c1feddbabddec6e7763297bfe4885c2998615a0f13b69a03",
	"journal/jobs/job-000002/ckpt/MANIFEST.ckpt":        "d54b12f709f9399a5ae54f7c58401cd0dbed9c09f7dcf1632499f59a234f4f31",
	"journal/jobs/job-000002/ckpt/ckpt-partition.ckpt":  "1f941ed2a243b067efdcb1b68e4c3d1c087a5d7a79131b3810ba52dd27988e96",
	"journal/jobs/job-000002/input.mrsc":                "69f37b9bb04b4e16367e092f200c4bf6beee6d47d57015583ab2c2639eb87211",
	"journal/jobs/job-000002/spec.json":                 "9a6fe5c3954f144abfe50528098eee323b7ce82b9bb8faafc4666cb11892afe1",
	"journal/journal.log":                               "b3d6dff0c2a370531262d8565c4a02a909490fa381cc3aa9d2a012d8ffb54208",
	"server/streams/stream-000001/MANIFEST.ckpt":        "88b8221f777d4a816c54e062d39d70ac472affb6bcc08b0266fd7f06526a40c8",
	"server/streams/stream-000001/ckpt-arrivals-4.ckpt": "55740fd920dd91f9558a1b9b59250040331c1e26142fd3b7982586c97adb6f1b",
	"server/streams/stream-000001/ckpt-arrivals-5.ckpt": "f950c6c395942463d117b28c7f07221ebd133918c68b3517b2f1e24bf18e931b",
	"server/streams/stream-000001/ckpt-spec.ckpt":       "fc8873f30e481d23ba8fe4165ad458c40fb425323875eb3e287382ed1da57b26",
	"store/MANIFEST.ckpt":                               "85a25381ba73434ea07002582da7e44537eee011be2563249285b7c26af34a5c",
	"store/ckpt-c.ckpt":                                 "6ed47a75c3eb8f5d2647c93487240c6690fbd85071c590e218c68fb764db6897",
	"store/ckpt-d.ckpt":                                 "d124d41ca8ed3b9e13f561b2585d18559ebe2d59441839145a878efcdb422d69",
	"store/ckpt-t-2.ckpt":                               "29d94b8fc9efaa00784d607e73b1b6c7be3177117d2736caa045af8a0388a132",
}

// TestOnDiskBytesUnchanged runs a fixed script through every durable
// writer over real directories — the job journal (two jobs' specs and
// transitions, one job's checkpoint state staged out), a stream ticked
// past its window, and a checkpoint store's Save/Rotate/Clear sequence —
// and holds every file's name and bytes to the goldens, so state
// directories written by earlier revisions recover unchanged. gob numbers
// a type the first time a process encodes or decodes it, so a gob file's
// bytes depend on what its process did before; the script therefore runs
// in a fresh process, this test binary with the directory as argument.
func TestOnDiskBytesUnchanged(t *testing.T) {
	if flag.NArg() == 1 {
		writeOnDiskScript(t, flag.Arg(0))
		return
	}
	root := t.TempDir()
	out, err := exec.Command(os.Args[0], "-test.run=^TestOnDiskBytesUnchanged$", "--", root).CombinedOutput()
	if err != nil {
		t.Fatalf("running the script: %v\n%s", err, out)
	}
	got := map[string]string{}
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, p)
		sum := sha256.Sum256(b)
		got[filepath.ToSlash(rel)] = hex.EncodeToString(sum[:])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, sum := range onDiskGolden {
		if got[name] != sum {
			t.Errorf("%s: sha256 %q, golden %q", name, got[name], sum)
		}
	}
	for name := range got {
		if _, ok := onDiskGolden[name]; !ok {
			t.Errorf("%s: not among the golden files", name)
		}
	}
}

func writeOnDiskScript(t *testing.T, root string) {
	port := func(dir string) checkpoint.FS {
		fs, err := checkpoint.DirFS(filepath.Join(root, dir))
		if err != nil {
			t.Fatal(err)
		}
		return fs
	}
	j := newJournal(port("journal"), telemetry.New(nil))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(j.writeSpec("job-000001", persistedSpec{Tenant: "acme", Eps: 0.1, MinPts: 5, Leaves: 2}, dataset.Twitter(200, 1)))
	must(j.setState("job-000001", "running"))
	must(j.setState("job-000001", "completed"))
	must(j.writeSpec("job-000002", persistedSpec{Tenant: "bulk", Eps: 0.2, MinPts: 7, Leaves: 4, DeadlineNS: 250e6}, dataset.Twitter(150, 2)))
	must(j.setState("job-000002", "suspended"))
	pipeline := lustre.New(lustre.Titan(), nil)
	for i, name := range []string{"MANIFEST.ckpt", "ckpt-partition.ckpt", "input.mrsc", "part-000.mrsc"} {
		_, err := pipeline.Create(name).WriteAt([]byte(fmt.Sprintf("state file %d", i)), 0)
		must(err)
	}
	must(mrscan.StageStateOut(pipeline, j.fs, ckptDir("job-000002")))

	s, err := New(Config{Workers: 1, StateDir: filepath.Join(root, "server")})
	must(err)
	id, err := s.CreateStream(StreamSpec{Tenant: "acme", Eps: 0.12, MinPts: 4, WindowTicks: 2})
	must(err)
	for _, b := range dataset.Firehose(5, 30, 5, dataset.DefaultFirehoseOptions()) {
		_, err := s.StreamTick(id, b)
		must(err)
	}
	s.Close()

	st := checkpoint.NewStore(port("store"), "golden")
	must(st.Save("a", []int{1, 2, 3}))
	must(st.Save("b", goldenRecord{7, 9}))
	must(st.Rotate("tick", "t-1", map[string]int{"x": 1}, "a"))
	must(st.Save("b", goldenRecord{8, 10}))
	must(st.Clear())
	must(st.Save("c", "after clear"))
	must(st.Rotate("tick", "t-2", []float64{0.5}, "t-1"))
	must(st.Save("d", goldenRecord{1, 2}))
}
