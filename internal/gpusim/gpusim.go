// Package gpusim simulates a CUDA-class GPGPU device.
//
// Mr. Scan's cluster phase runs a modified CUDA-DClust on an NVIDIA K20
// per leaf node. That hardware is unavailable here, so this package
// provides the device abstraction the algorithm is written against:
//
//   - device memory with explicit allocation limits (the K20's 6 GB bound
//     what fit on a leaf and forced the 800k points/leaf weak-scaling
//     configuration);
//   - explicit host↔device transfers, each charged a modeled latency and
//     bandwidth cost on a simulated clock — the quantity §3.2.2 optimizes
//     (CUDA-DClust performs 2×(points/blocks) round trips, Mr. Scan one);
//   - kernel launches over a (blocks × threads) grid, executed by a worker
//     pool of simulated SMs so blocks genuinely run concurrently and
//     expansion collisions between blocks (§3.2.1, Figure 4) really occur.
//
// Kernels execute real Go code, so clustering results are real, but their
// cost is counted, not timed: every kernel counts the distance and
// rectangle tests its threads make (KernelCtx.Ops), and a launch is
// charged for that count. No wall-clock reading reaches the simulated
// clock; Stats.KernelWall keeps the host's kernel time apart.
package gpusim

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/integrity"
	"repro/internal/simclock"
	"repro/internal/telemetry"
)

// Config describes the simulated device.
type Config struct {
	// Name identifies the device in logs (e.g. "K20-sim").
	Name string
	// SMs is the number of streaming multiprocessors: the number of
	// blocks that execute concurrently.
	SMs int
	// MemBytes is the device memory capacity; allocations beyond it fail
	// like cudaMalloc would.
	MemBytes int64
	// H2DBandwidth and D2HBandwidth are modeled PCIe bandwidths in
	// bytes/second (0 disables the cost model).
	H2DBandwidth float64
	D2HBandwidth float64
	// TransferLatency is the fixed per-transfer cost (driver + DMA setup).
	// This term is what makes many small synchronous copies expensive and
	// drives the §3.2.2 optimization.
	TransferLatency time.Duration
	// LaunchOverhead is the fixed per-kernel-launch cost.
	LaunchOverhead time.Duration
}

// K20 returns a configuration modeled on the NVIDIA Tesla K20 of Titan's
// compute nodes: 13 SMX units, 6 GB of GDDR5, PCIe gen2 transfers.
func K20() Config {
	return Config{
		Name:            "K20-sim",
		SMs:             13,
		MemBytes:        6 << 30,
		H2DBandwidth:    6e9,
		D2HBandwidth:    6e9,
		TransferLatency: 10 * time.Microsecond,
		LaunchOverhead:  5 * time.Microsecond,
	}
}

// Stats aggregates device activity. All counters are cumulative since
// device creation. Stats is a read-side view over the device's
// telemetry metrics (see SetTelemetry) — the registry is the single
// source of truth; this struct exists for established callers.
type Stats struct {
	KernelLaunches int64
	BlocksExecuted int64
	H2DTransfers   int64
	D2HTransfers   int64
	H2DBytes       int64
	D2HBytes       int64
	// KernelWall is host wall time spent executing kernels (never simulated).
	KernelWall time.Duration
	// AllocBytes is the current device memory in use.
	AllocBytes int64
	// PeakAllocBytes is the high-water mark of device memory.
	PeakAllocBytes int64
	// PoolHits and PoolMisses count AllocPooled requests served by
	// recycling a Released buffer vs. falling through to a fresh
	// allocation. PoolBytes is the capacity currently parked in the pool.
	PoolHits   int64
	PoolMisses int64
	PoolBytes  int64
	// PoolReclaims counts the times memory pressure forced the pool to
	// be freed wholesale before an allocation could succeed.
	PoolReclaims int64
}

// deviceMetrics caches the device's handles into a telemetry registry —
// resolved once per SetTelemetry, updated with single atomic ops on the
// hot paths.
type deviceMetrics struct {
	launches     *telemetry.Counter
	blocks       *telemetry.Counter
	h2dTransfers *telemetry.Counter
	d2hTransfers *telemetry.Counter
	h2dBytes     *telemetry.Counter
	d2hBytes     *telemetry.Counter
	kernelOps    *telemetry.Counter
	kernelWallNs *telemetry.Counter
	allocBytes   *telemetry.Gauge
	peakAlloc    *telemetry.Gauge
	occupancy    *telemetry.Histogram
	poolHits     *telemetry.Counter
	poolMisses   *telemetry.Counter
	poolReclaims *telemetry.Counter
	poolBytes    *telemetry.Gauge
	// Transfer-integrity ledger: corrupted DMA transfers caught by the
	// modeled end-to-end CRC, and the re-transfers that healed them.
	corruptTransfers *telemetry.Counter
	transferRetries  *telemetry.Counter
}

func resolveDeviceMetrics(h *telemetry.Hub, device string) deviceMetrics {
	return deviceMetrics{
		launches:         h.Counter("gpusim_kernel_launches_total", "device", device),
		blocks:           h.Counter("gpusim_blocks_executed_total", "device", device),
		h2dTransfers:     h.Counter("gpusim_h2d_transfers_total", "device", device),
		d2hTransfers:     h.Counter("gpusim_d2h_transfers_total", "device", device),
		h2dBytes:         h.Counter("gpusim_h2d_bytes_total", "device", device),
		d2hBytes:         h.Counter("gpusim_d2h_bytes_total", "device", device),
		kernelOps:        h.Counter("gpusim_kernel_ops_total", "device", device),
		kernelWallNs:     h.Counter("gpusim_kernel_wall_ns_total", "device", device),
		allocBytes:       h.Gauge("gpusim_alloc_bytes", "device", device),
		peakAlloc:        h.Gauge("gpusim_peak_alloc_bytes", "device", device),
		occupancy:        h.Histogram("gpusim_sm_occupancy", telemetry.LinearBuckets(0.1, 0.1, 10), "device", device),
		poolHits:         h.Counter("gpusim_pool_hits_total", "device", device),
		poolMisses:       h.Counter("gpusim_pool_misses_total", "device", device),
		poolReclaims:     h.Counter("gpusim_pool_reclaims_total", "device", device),
		poolBytes:        h.Gauge("gpusim_pool_bytes", "device", device),
		corruptTransfers: h.Counter(integrity.MetricDetected, "site", string(faultinject.GPUTransfer)),
		transferRetries:  h.Counter("gpusim_transfer_retries_total", "device", device),
	}
}

// Device is a simulated GPGPU. Safe for use by one host goroutine at a
// time (like a CUDA stream); kernels themselves run on many goroutines.
// Kernels charge their counted work to GPUResource, transfers their
// bytes to name + "/pcie"; SimTime is the sum.
type Device struct {
	cfg   Config
	clock *simclock.Clock
	// The running launch's state, reused because one host goroutine
	// launches at a time: the last block claimed, each SM's counted
	// work, and the SMs still running.
	next  int64
	smOps []int64
	smWG  sync.WaitGroup

	mu     sync.Mutex
	plan   *faultinject.Plan
	hub    *telemetry.Hub
	parent *telemetry.Span
	m      deviceMetrics
	// pool is the free list AllocPooled recycles from (see pool.go).
	pool []*Buffer
	// spans gates per-launch/per-transfer span recording: off on the
	// private default hub (nobody will export it), on once a run-level
	// hub is installed via SetTelemetry.
	spans bool
}

// ErrOutOfMemory is returned by Alloc when device memory is exhausted.
var ErrOutOfMemory = errors.New("gpusim: out of device memory")

// New creates a device. A nil clock allocates a private one.
func New(cfg Config, clock *simclock.Clock) *Device {
	if cfg.SMs <= 0 {
		cfg.SMs = 1
	}
	if clock == nil {
		clock = simclock.New()
	}
	return &Device{cfg: cfg, clock: clock, smOps: make([]int64, cfg.SMs)}
}

// metrics returns the device's metric handles. A device never handed a
// hub gets its private one here, on first use, so one whose owner calls
// SetTelemetry straight after New never builds it. Callers hold d.mu.
func (d *Device) metrics() *deviceMetrics {
	if d.hub == nil {
		d.hub = telemetry.New(d.clock)
		d.m = resolveDeviceMetrics(d.hub, d.cfg.Name)
	}
	return &d.m
}

// SetTelemetry points the device's metrics and spans at a run-level
// hub, carrying any counts accumulated on the private default hub over
// so the view stays cumulative. Per-launch and per-transfer spans are
// recorded only on an installed hub. Install before heavy use.
func (d *Device) SetTelemetry(h *telemetry.Hub) {
	if h == nil {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	old := d.m
	d.hub = h
	d.m = resolveDeviceMetrics(h, d.cfg.Name)
	d.spans = true
	d.m.launches.Add(old.launches.Value())
	d.m.blocks.Add(old.blocks.Value())
	d.m.h2dTransfers.Add(old.h2dTransfers.Value())
	d.m.d2hTransfers.Add(old.d2hTransfers.Value())
	d.m.h2dBytes.Add(old.h2dBytes.Value())
	d.m.d2hBytes.Add(old.d2hBytes.Value())
	d.m.kernelOps.Add(old.kernelOps.Value())
	d.m.kernelWallNs.Add(old.kernelWallNs.Value())
	d.m.allocBytes.Set(old.allocBytes.Value())
	d.m.peakAlloc.SetMax(old.peakAlloc.Value())
	d.m.poolHits.Add(old.poolHits.Value())
	d.m.poolMisses.Add(old.poolMisses.Value())
	d.m.poolReclaims.Add(old.poolReclaims.Value())
	d.m.poolBytes.Set(old.poolBytes.Value())
	d.m.corruptTransfers.Add(old.corruptTransfers.Value())
	d.m.transferRetries.Add(old.transferRetries.Value())
}

// SetTraceParent nests the device's spans (kernel launches, transfers)
// under s — the leaf span of the cluster phase that owns this device.
func (d *Device) SetTraceParent(s *telemetry.Span) {
	d.mu.Lock()
	d.parent = s
	d.mu.Unlock()
}

// telemetry snapshots the hub, span parent and metric handles.
func (d *Device) telemetry() (*telemetry.Hub, *telemetry.Span, deviceMetrics, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := *d.metrics()
	return d.hub, d.parent, m, d.spans
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetFaultPlan installs the fault plan consulted at the gpusim.launch
// site before every kernel launch (an injected fault models an ECC
// error or a hung kernel aborted by the driver). A nil plan disables
// injection.
func (d *Device) SetFaultPlan(p *faultinject.Plan) {
	d.mu.Lock()
	d.plan = p
	d.mu.Unlock()
}

func (d *Device) checkFault() error {
	d.mu.Lock()
	plan := d.plan
	d.mu.Unlock()
	return plan.Check(faultinject.GPULaunch)
}

// Clock returns the simulated clock costs are charged to.
func (d *Device) Clock() *simclock.Clock { return d.clock }

// Stats returns a snapshot of device statistics, read back from the
// telemetry registry.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	m := *d.metrics()
	d.mu.Unlock()
	return Stats{
		KernelLaunches: m.launches.Value(),
		BlocksExecuted: m.blocks.Value(),
		H2DTransfers:   m.h2dTransfers.Value(),
		D2HTransfers:   m.d2hTransfers.Value(),
		H2DBytes:       m.h2dBytes.Value(),
		D2HBytes:       m.d2hBytes.Value(),
		KernelWall:     time.Duration(m.kernelWallNs.Value()),
		AllocBytes:     m.allocBytes.Value(),
		PeakAllocBytes: m.peakAlloc.Value(),
		PoolHits:       m.poolHits.Value(),
		PoolMisses:     m.poolMisses.Value(),
		PoolBytes:      m.poolBytes.Value(),
		PoolReclaims:   m.poolReclaims.Value(),
	}
}

// resource names on the simulated clock.
func (d *Device) pcieResource() string { return d.cfg.Name + "/pcie" }

// GPUResource is the clock resource kernels are charged to.
func (d *Device) GPUResource() string { return d.cfg.Name + "/sm" }

// SimTime returns the simulated time charged to the device so far: its
// kernels and its transfers.
func (d *Device) SimTime() time.Duration {
	return d.clock.Resource(d.GPUResource()) + d.clock.Resource(d.pcieResource())
}

// Buffer is a device memory allocation. It tracks bytes only: kernel code
// accesses ordinary Go slices (the "device copy"), because simulating the
// address space would add nothing to the cost model.
type Buffer struct {
	dev  *Device
	name string
	// size is the logical byte size of the current lease; capacity is
	// the underlying allocation, which can exceed size after the buffer
	// has been recycled through the pool for a smaller request.
	size     int64
	capacity int64
	freed    bool
}

// Alloc reserves size bytes of device memory.
func (d *Device) Alloc(name string, size int64) (*Buffer, error) {
	if size < 0 {
		return nil, fmt.Errorf("gpusim: negative allocation %d for %q", size, name)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.metrics()
	inUse := m.allocBytes.Value()
	if d.cfg.MemBytes > 0 && inUse+size > d.cfg.MemBytes {
		return nil, fmt.Errorf("%w: %q needs %d bytes, %d of %d in use",
			ErrOutOfMemory, name, size, inUse, d.cfg.MemBytes)
	}
	m.allocBytes.Add(size)
	m.peakAlloc.SetMax(inUse + size)
	return &Buffer{dev: d, name: name, size: size, capacity: size}, nil
}

// Size returns the buffer's logical byte size.
func (b *Buffer) Size() int64 { return b.size }

// Free releases the buffer's full capacity. Double frees are ignored.
func (b *Buffer) Free() {
	if b == nil || b.freed {
		return
	}
	b.freed = true
	b.dev.mu.Lock()
	b.dev.metrics().allocBytes.Add(-b.capacity)
	b.dev.mu.Unlock()
}

// maxTransferRetries bounds how many corrupted DMA transfers of one
// payload are re-issued before the device gives up — mirroring a driver
// that downs the link after repeated CRC errors.
const maxTransferRetries = 3

// ErrTransferCorrupt reports a host↔device transfer that kept failing
// its end-to-end CRC across maxTransferRetries re-issues.
var ErrTransferCorrupt = errors.New("gpusim: transfer corrupt after retries")

// transferIntegrity models the PCIe end-to-end CRC: a corrupt rule
// firing at gpusim.transfer means the DMA'd bytes arrived flipped, the
// far side's CRC check catches it, and the transfer is re-issued (the
// wire time was still spent, so the cost is charged per attempt). The
// payload bytes themselves live in host slices, so — unlike the byte
// planes — detection here is certain by construction. Returns the extra
// cost of the corrupted attempts.
func (d *Device) transferIntegrity(dir string, n int64, cost time.Duration) (time.Duration, error) {
	d.mu.Lock()
	plan := d.plan
	d.mu.Unlock()
	if plan == nil {
		return 0, nil
	}
	var extra time.Duration
	for attempt := 0; ; attempt++ {
		c := plan.CorruptCheck(faultinject.GPUTransfer, n)
		if c == nil {
			return extra, nil
		}
		d.clock.Charge(d.pcieResource(), cost)
		extra += cost
		hub, parent, m, _ := d.telemetry()
		m.corruptTransfers.Inc()
		m.transferRetries.Inc()
		hub.Event(parent, "integrity.corruption.detected",
			telemetry.String("site", string(faultinject.GPUTransfer)),
			telemetry.String("device", d.cfg.Name),
			telemetry.String("dir", dir),
			telemetry.Int64("offset", c.Offset),
			telemetry.Bool("healed", attempt+1 < maxTransferRetries),
		)
		if attempt+1 >= maxTransferRetries {
			return extra, fmt.Errorf("gpusim: %s transfer of %d bytes: %w", dir, n, ErrTransferCorrupt)
		}
	}
}

// CopyToDevice charges a host→device transfer of n bytes.
func (d *Device) CopyToDevice(b *Buffer, n int64) error {
	if err := d.checkTransfer(b, n); err != nil {
		return err
	}
	cost := d.cfg.TransferLatency + simclock.BytesDuration(n, d.cfg.H2DBandwidth)
	extra, err := d.transferIntegrity("h2d", n, cost)
	if err != nil {
		return err
	}
	hub, parent, m, spans := d.telemetry()
	if spans {
		hub.RecordSim(parent, "gpu.h2d", cost+extra, telemetry.Int64("bytes", n))
	}
	d.clock.Charge(d.pcieResource(), cost)
	m.h2dTransfers.Inc()
	m.h2dBytes.Add(n)
	return nil
}

// CopyFromDevice charges a device→host transfer of n bytes.
func (d *Device) CopyFromDevice(b *Buffer, n int64) error {
	if err := d.checkTransfer(b, n); err != nil {
		return err
	}
	cost := d.cfg.TransferLatency + simclock.BytesDuration(n, d.cfg.D2HBandwidth)
	extra, err := d.transferIntegrity("d2h", n, cost)
	if err != nil {
		return err
	}
	hub, parent, m, spans := d.telemetry()
	if spans {
		hub.RecordSim(parent, "gpu.d2h", cost+extra, telemetry.Int64("bytes", n))
	}
	d.clock.Charge(d.pcieResource(), cost)
	m.d2hTransfers.Inc()
	m.d2hBytes.Add(n)
	return nil
}

func (d *Device) checkTransfer(b *Buffer, n int64) error {
	if b == nil {
		return errors.New("gpusim: transfer with nil buffer")
	}
	if b.freed {
		return fmt.Errorf("gpusim: transfer on freed buffer %q", b.name)
	}
	if n < 0 || n > b.size {
		return fmt.Errorf("gpusim: transfer of %d bytes exceeds buffer %q size %d", n, b.name, b.size)
	}
	return nil
}

// LaunchConfig is a kernel grid: Blocks × ThreadsPerBlock.
type LaunchConfig struct {
	Blocks          int
	ThreadsPerBlock int
}

// GridFor returns a launch configuration covering n work items with the
// given block width (like the usual (n + tpb - 1) / tpb CUDA idiom).
func GridFor(n, threadsPerBlock int) LaunchConfig {
	if threadsPerBlock <= 0 {
		threadsPerBlock = 256
	}
	blocks := (n + threadsPerBlock - 1) / threadsPerBlock
	if blocks < 1 {
		blocks = 1
	}
	return LaunchConfig{Blocks: blocks, ThreadsPerBlock: threadsPerBlock}
}

// KernelCtx identifies the executing thread, mirroring CUDA's
// blockIdx/threadIdx/gridDim/blockDim.
type KernelCtx struct {
	Block           int
	Thread          int
	Blocks          int
	ThreadsPerBlock int
	// ops is the work counter of the SM running the thread.
	ops *int64
}

// GlobalID returns the flattened thread index
// (blockIdx.x*blockDim.x + threadIdx.x).
func (c KernelCtx) GlobalID() int { return c.Block*c.ThreadsPerBlock + c.Thread }

// Ops counts n distance or rectangle tests of the thread toward its
// launch's simulated time. Kernels count work that does not depend on
// which block reached a point first, so a launch's total is a function
// of its input alone.
func (c KernelCtx) Ops(n int) { *c.ops += int64(n) }

// Kernel is the device function type. Each invocation is one thread.
type Kernel func(ctx KernelCtx)

// opCost is the simulated time of one counted op on one SM: a least-
// squares fit, in log space, to the host wall time each leaf took when
// leaves ran one at a time on Figure 9c's small ladder (DESIGN.md
// "Counted kernel work").
const opCost = 420 * time.Nanosecond

// Launch executes the kernel over the grid. Blocks are scheduled onto
// min(cfg.SMs, Blocks) concurrent workers; within a block, threads run
// sequentially (warp-level parallelism buys nothing for the cost model
// and the code paths are identical). Launch blocks until the grid
// completes, like a cudaDeviceSynchronize after the kernel.
//
// The launch is charged LaunchOverhead + opCost·⌈ops / workers⌉, ops the
// grid's counted work. The split is even, not each SM's own share:
// blocks race for points, so which SM did which work depends on the
// host's scheduling, and only the total is a function of the input.
func (d *Device) Launch(name string, lc LaunchConfig, k Kernel) error {
	if lc.Blocks <= 0 || lc.ThreadsPerBlock <= 0 {
		return fmt.Errorf("gpusim: invalid launch config %+v for kernel %q", lc, name)
	}
	if err := d.checkFault(); err != nil {
		return fmt.Errorf("gpusim: launching kernel %q on %s: %w", name, d.cfg.Name, err)
	}
	hub, parent, m, spans := d.telemetry()
	var sp *telemetry.Span
	if spans {
		sp = hub.Start(parent, "kernel:"+name,
			telemetry.Int("blocks", lc.Blocks), telemetry.Int("tpb", lc.ThreadsPerBlock))
	}
	start := time.Now()
	workers := min(d.cfg.SMs, lc.Blocks)
	ops := d.smOps[:workers]
	clear(ops)
	d.next = -1
	d.smWG.Add(workers)
	for w := range ops {
		go func() {
			defer d.smWG.Done()
			ctx := KernelCtx{Blocks: lc.Blocks, ThreadsPerBlock: lc.ThreadsPerBlock, ops: &d.smOps[w]}
			for {
				ctx.Block = int(atomic.AddInt64(&d.next, 1))
				if ctx.Block >= lc.Blocks {
					return
				}
				for ctx.Thread = 0; ctx.Thread < lc.ThreadsPerBlock; ctx.Thread++ {
					k(ctx)
				}
			}
		}()
	}
	d.smWG.Wait()
	wall := time.Since(start)
	var total int64
	for _, n := range ops {
		total += n
	}
	perSM := (total + int64(workers) - 1) / int64(workers)
	d.clock.Charge(d.GPUResource(), d.cfg.LaunchOverhead+time.Duration(perSM)*opCost)
	sp.End()
	m.launches.Inc()
	m.blocks.Add(int64(lc.Blocks))
	m.kernelOps.Add(total)
	m.kernelWallNs.Add(wall.Nanoseconds())
	m.occupancy.Observe(float64(workers) / float64(d.cfg.SMs))
	return nil
}
