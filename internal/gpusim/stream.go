package gpusim

// Stream is an ordered kernel queue, modeling a CUDA stream. Launches
// enqueue without running; Synchronize runs the queue in order on the
// caller's goroutine and returns the first error, like CUDA's deferred
// errors. Kernels still run their blocks on the device's SMs.
//
// This is the mechanism behind §3.2.2's optimization: "the next input
// seed point for DBSCAN is determined by the parameters of the CUDA
// kernel call. This allows for all kernel invocations needed to cluster
// the dataset to be issued in bulk without any intervening memory
// copies" — the host enqueues every expansion kernel up front and
// synchronizes once.
type Stream struct {
	dev   *Device
	queue []streamOp
}

type streamOp struct {
	name   string
	lc     LaunchConfig
	kernel Kernel
}

// NewStream creates a stream on the device.
func (d *Device) NewStream() *Stream { return &Stream{dev: d} }

// LaunchAsync enqueues a kernel. Invalid launch configurations surface
// at Synchronize.
func (s *Stream) LaunchAsync(name string, lc LaunchConfig, k Kernel) {
	s.queue = append(s.queue, streamOp{name: name, lc: lc, kernel: k})
}

// Synchronize runs and dequeues every enqueued kernel in order. The first
// failed launch ends it, dropping the rest, and its error is returned.
func (s *Stream) Synchronize() error {
	queue := s.queue
	s.queue = nil
	for _, op := range queue {
		if err := s.dev.Launch(op.name, op.lc, op.kernel); err != nil {
			return err
		}
	}
	return nil
}
