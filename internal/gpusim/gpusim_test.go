package gpusim

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/simclock"
)

func testConfig() Config {
	return Config{
		Name:            "test",
		SMs:             4,
		MemBytes:        1 << 20,
		H2DBandwidth:    1e9,
		D2HBandwidth:    1e9,
		TransferLatency: time.Microsecond,
		LaunchOverhead:  time.Microsecond,
	}
}

func TestAllocFreeAccounting(t *testing.T) {
	d := New(testConfig(), nil)
	b1, err := d.Alloc("a", 1000)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := d.Alloc("b", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().AllocBytes; got != 3000 {
		t.Errorf("AllocBytes = %d, want 3000", got)
	}
	b1.Free()
	if got := d.Stats().AllocBytes; got != 2000 {
		t.Errorf("AllocBytes after free = %d, want 2000", got)
	}
	b1.Free() // double free ignored
	if got := d.Stats().AllocBytes; got != 2000 {
		t.Errorf("AllocBytes after double free = %d, want 2000", got)
	}
	b2.Free()
	if got := d.Stats().PeakAllocBytes; got != 3000 {
		t.Errorf("PeakAllocBytes = %d, want 3000", got)
	}
}

func TestAllocOutOfMemory(t *testing.T) {
	d := New(testConfig(), nil)
	if _, err := d.Alloc("big", 2<<20); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("oversized alloc error = %v, want ErrOutOfMemory", err)
	}
	// The K20's 6 GB is the real constraint behind 800k points/leaf.
	small, err := d.Alloc("fits", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc("one more byte", 1); !errors.Is(err, ErrOutOfMemory) {
		t.Errorf("exhausted alloc error = %v, want ErrOutOfMemory", err)
	}
	small.Free()
	if _, err := d.Alloc("after free", 1<<20); err != nil {
		t.Errorf("alloc after free failed: %v", err)
	}
}

func TestAllocNegative(t *testing.T) {
	d := New(testConfig(), nil)
	if _, err := d.Alloc("neg", -1); err == nil {
		t.Error("negative alloc must fail")
	}
}

func TestTransfersChargeClock(t *testing.T) {
	clock := simclock.New()
	d := New(testConfig(), clock)
	b, err := d.Alloc("buf", 1000)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CopyToDevice(b, 1000); err != nil {
		t.Fatal(err)
	}
	if err := d.CopyFromDevice(b, 500); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.H2DTransfers != 1 || st.D2HTransfers != 1 {
		t.Errorf("transfer counts = %d/%d, want 1/1", st.H2DTransfers, st.D2HTransfers)
	}
	if st.H2DBytes != 1000 || st.D2HBytes != 500 {
		t.Errorf("transfer bytes = %d/%d, want 1000/500", st.H2DBytes, st.D2HBytes)
	}
	// Two transfers, each >= the fixed latency.
	if got := clock.Resource(d.pcieResource()); got < 2*time.Microsecond {
		t.Errorf("pcie sim time = %v, want >= 2µs", got)
	}
}

func TestTransferValidation(t *testing.T) {
	d := New(testConfig(), nil)
	b, err := d.Alloc("buf", 100)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CopyToDevice(b, 101); err == nil {
		t.Error("transfer exceeding buffer must fail")
	}
	if err := d.CopyToDevice(nil, 1); err == nil {
		t.Error("nil buffer transfer must fail")
	}
	b.Free()
	if err := d.CopyFromDevice(b, 1); err == nil {
		t.Error("transfer on freed buffer must fail")
	}
}

func TestLaunchCoversGrid(t *testing.T) {
	d := New(testConfig(), nil)
	const blocks, tpb = 7, 32
	var hits [blocks * tpb]int32
	err := d.Launch("cover", LaunchConfig{Blocks: blocks, ThreadsPerBlock: tpb}, func(ctx KernelCtx) {
		atomic.AddInt32(&hits[ctx.GlobalID()], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("thread %d executed %d times, want 1", i, h)
		}
	}
	st := d.Stats()
	if st.KernelLaunches != 1 {
		t.Errorf("KernelLaunches = %d, want 1", st.KernelLaunches)
	}
	if st.BlocksExecuted != blocks {
		t.Errorf("BlocksExecuted = %d, want %d", st.BlocksExecuted, blocks)
	}
}

func TestLaunchBlocksRunConcurrently(t *testing.T) {
	cfg := testConfig()
	cfg.SMs = 4
	d := New(cfg, nil)
	var concurrent, peak int32
	err := d.Launch("concurrency", LaunchConfig{Blocks: 8, ThreadsPerBlock: 1}, func(ctx KernelCtx) {
		n := atomic.AddInt32(&concurrent, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if n <= p || atomic.CompareAndSwapInt32(&peak, p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		atomic.AddInt32(&concurrent, -1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if peak < 2 {
		t.Errorf("peak concurrent blocks = %d, want >= 2 (SMs = 4)", peak)
	}
	if peak > 4 {
		t.Errorf("peak concurrent blocks = %d exceeds SMs = 4", peak)
	}
}

func TestLaunchInvalidConfig(t *testing.T) {
	d := New(testConfig(), nil)
	if err := d.Launch("bad", LaunchConfig{Blocks: 0, ThreadsPerBlock: 1}, func(KernelCtx) {}); err == nil {
		t.Error("zero blocks must fail")
	}
	if err := d.Launch("bad", LaunchConfig{Blocks: 1, ThreadsPerBlock: 0}, func(KernelCtx) {}); err == nil {
		t.Error("zero threads must fail")
	}
}

func TestGridFor(t *testing.T) {
	tests := []struct {
		n, tpb      int
		wantBlocks  int
		wantThreads int
	}{
		{1000, 256, 4, 256},
		{1024, 256, 4, 256},
		{1025, 256, 5, 256},
		{0, 256, 1, 256},
		{10, 0, 1, 256}, // default tpb
	}
	for _, tt := range tests {
		lc := GridFor(tt.n, tt.tpb)
		if lc.Blocks != tt.wantBlocks || lc.ThreadsPerBlock != tt.wantThreads {
			t.Errorf("GridFor(%d,%d) = %+v, want {%d %d}",
				tt.n, tt.tpb, lc, tt.wantBlocks, tt.wantThreads)
		}
		if lc.Blocks*lc.ThreadsPerBlock < tt.n {
			t.Errorf("GridFor(%d,%d) does not cover n", tt.n, tt.tpb)
		}
	}
}

// TestKernelWallAccumulates: a kernel's host wall time lands in
// KernelWall and never on the simulated clock, which charges exactly
// LaunchOverhead + opCost·⌈ops / min(SMs, Blocks)⌉.
func TestKernelWallAccumulates(t *testing.T) {
	d := New(testConfig(), nil)
	overhead := testConfig().LaunchOverhead
	err := d.Launch("sleepy", LaunchConfig{Blocks: 1, ThreadsPerBlock: 1}, func(KernelCtx) {
		time.Sleep(time.Millisecond)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().KernelWall; got < time.Millisecond {
		t.Errorf("KernelWall = %v, want >= 1ms", got)
	}
	if got := d.Clock().Resource(d.GPUResource()); got != overhead {
		t.Errorf("sim GPU time after a sleeping kernel = %v, want the launch overhead %v", got, overhead)
	}

	for _, c := range []struct {
		lc    LaunchConfig
		perSM int64 // ⌈ops / min(SMs=4, Blocks)⌉
	}{
		{LaunchConfig{Blocks: 8, ThreadsPerBlock: 3}, 75}, // 1+2+…+24 = 300 over 4 SMs
		{LaunchConfig{Blocks: 2, ThreadsPerBlock: 2}, 5},  // 1+2+3+4 = 10 over 2 SMs
		{LaunchConfig{Blocks: 5, ThreadsPerBlock: 1}, 4},  // 1+…+5 = 15 over 4 SMs, rounded up
	} {
		before, opsBefore := d.Clock().Resource(d.GPUResource()), d.m.kernelOps.Value()
		err := d.Launch("counted", c.lc, func(ctx KernelCtx) { ctx.Ops(ctx.GlobalID() + 1) })
		if err != nil {
			t.Fatal(err)
		}
		want := overhead + time.Duration(c.perSM)*opCost
		if got := d.Clock().Resource(d.GPUResource()) - before; got != want {
			t.Errorf("%+v: sim GPU time = %v, want %v", c.lc, got, want)
		}
		n := int64(c.lc.Blocks * c.lc.ThreadsPerBlock)
		if got := d.m.kernelOps.Value() - opsBefore; got != n*(n+1)/2 {
			t.Errorf("%+v: gpusim_kernel_ops_total = %d, want %d", c.lc, got, n*(n+1)/2)
		}
	}
}

func TestK20Defaults(t *testing.T) {
	cfg := K20()
	if cfg.SMs != 13 {
		t.Errorf("K20 SMs = %d, want 13", cfg.SMs)
	}
	if cfg.MemBytes != 6<<30 {
		t.Errorf("K20 memory = %d, want 6 GiB", cfg.MemBytes)
	}
}

func TestHostTransferCountsMirrorPaper(t *testing.T) {
	// §3.2.2: CUDA-DClust needs 2×(points/blocks) transfers; Mr. Scan
	// needs one round trip. Emulate both patterns and compare the
	// simulated PCIe time — the optimization must win.
	const points, blocks = 10000, 100
	run := func(transfers int) time.Duration {
		clock := simclock.New()
		d := New(testConfig(), clock)
		b, err := d.Alloc("pts", int64(points*16))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < transfers; i++ {
			if err := d.CopyToDevice(b, 64); err != nil {
				t.Fatal(err)
			}
		}
		return clock.Resource(d.pcieResource())
	}
	dclust := run(2 * points / blocks)
	mrscan := run(2)
	if mrscan >= dclust {
		t.Errorf("single round trip (%v) must beat per-iteration transfers (%v)", mrscan, dclust)
	}
}

func TestLaunchFaultInjection(t *testing.T) {
	d := New(testConfig(), nil)
	boom := errors.New("ecc error")
	d.SetFaultPlan(faultinject.New(0).
		Arm(faultinject.GPULaunch, faultinject.Rule{After: 1, Times: 1, Err: boom}))
	var ran atomic.Int64
	k := func(ctx KernelCtx) { ran.Add(1) }
	lc := LaunchConfig{Blocks: 2, ThreadsPerBlock: 4}
	if err := d.Launch("k1", lc, k); err != nil {
		t.Fatalf("launch 1 must pass: %v", err)
	}
	if err := d.Launch("k2", lc, k); !errors.Is(err, boom) {
		t.Fatalf("launch 2 = %v, want injected fault", err)
	}
	if got := ran.Load(); got != 8 {
		t.Errorf("failed launch must not execute threads: ran %d, want 8", got)
	}
	// Transient: the third launch succeeds again.
	if err := d.Launch("k3", lc, k); err != nil {
		t.Fatalf("launch 3 must pass after transient fault: %v", err)
	}
	if st := d.Stats(); st.KernelLaunches != 2 {
		t.Errorf("KernelLaunches = %d, want 2 (failed launch not counted)", st.KernelLaunches)
	}
}

// A corrupt rule at gpusim.transfer models a flipped DMA: the end-to-end
// CRC catches it, the wire time is paid again, and the transfer is
// re-issued transparently.
func TestTransferCorruptionRetransfers(t *testing.T) {
	clock := simclock.New()
	d := New(testConfig(), clock)
	plan := faultinject.New(11)
	plan.Arm(faultinject.GPUTransfer, faultinject.Rule{Corrupt: true, Times: 1})
	d.SetFaultPlan(plan)

	b, err := d.Alloc("buf", 4096)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CopyToDevice(b, 4096); err != nil {
		t.Fatalf("CopyToDevice: %v", err)
	}
	s := d.Stats()
	if s.H2DTransfers != 1 {
		t.Fatalf("H2DTransfers = %d, want 1 (retry is the same logical transfer)", s.H2DTransfers)
	}
	if got := d.m.transferRetries.Value(); got != 1 {
		t.Fatalf("transfer retries = %d, want 1", got)
	}
	if got := d.m.corruptTransfers.Value(); got != 1 {
		t.Fatalf("corruptions detected = %d, want 1", got)
	}
	// One clean + one corrupted attempt: the PCIe resource paid twice.
	cost := testConfig().TransferLatency + simclock.BytesDuration(4096, testConfig().H2DBandwidth)
	if got := clock.Resource("test/pcie"); got != 2*cost {
		t.Fatalf("pcie time = %v, want %v", got, 2*cost)
	}
}

// A persistently corrupting link surfaces ErrTransferCorrupt after the
// bounded re-transfers instead of spinning forever.
func TestTransferCorruptionBounded(t *testing.T) {
	d := New(testConfig(), nil)
	plan := faultinject.New(12)
	plan.Arm(faultinject.GPUTransfer, faultinject.Rule{Corrupt: true}) // unlimited
	d.SetFaultPlan(plan)

	b, err := d.Alloc("buf", 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CopyFromDevice(b, 64); !errors.Is(err, ErrTransferCorrupt) {
		t.Fatalf("CopyFromDevice err = %v, want ErrTransferCorrupt", err)
	}
	if got := plan.CorruptionsInjected(faultinject.GPUTransfer); got != maxTransferRetries {
		t.Fatalf("injected = %d, want %d", got, maxTransferRetries)
	}
}
