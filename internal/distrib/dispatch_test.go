package distrib

import (
	"context"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/integrity"
)

// TestEnvelopeGoldenBytes pins this plane's parameters to the wire the
// revision before the shared frame wrote (hex printed by its sealEnvelope
// and nackEnvelope; the header layout itself is pinned in
// internal/integrity): a worker of that revision still talks to this
// coordinator.
func TestEnvelopeGoldenBytes(t *testing.T) {
	data := wire.Seal(append(wire.Begin(nil, 0), "Mr. Scan golden payload"...), envData)
	for got, want := range map[string]string{
		hex.EncodeToString(data):                                     "4d530201170000001984fb944d722e205363616e20676f6c64656e207061796c6f6164",
		hex.EncodeToString(wire.Seal(wire.Begin(nil, 0), wire.Nack)): "4d5302020000000000000000",
	} {
		if got != want {
			t.Errorf("envelope = %s, want %s", got, want)
		}
	}
}

// TestMalformedPeerFramesRejected: a peer whose frames are checksum-clean
// but make no sense where they arrive — a NACK when nothing was sent, a
// kind nobody asked for — is refused with ErrMalformed, at the handshake
// and mid-dispatch alike.
func TestMalformedPeerFramesRejected(t *testing.T) {
	// rawWorker dials in, writes first, then answers the first frame it
	// receives (if it gets that far) with reply.
	rawWorker := func(c *Coordinator, first, reply []byte) {
		conn, err := net.Dial("tcp", c.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		conn.Write(first)
		if _, _, _, err := wire.Read(conn, new([]byte)); err == nil {
			conn.Write(reply)
		}
		conn.Read(make([]byte, 1)) // until the coordinator hangs up
	}
	hello := wire.Seal(appendHello(wire.Begin(nil, helloLen), &Hello{Pid: 4242}), envData)
	nack := wire.Seal(wire.Begin(nil, 0), envNack)
	stray := wire.Seal(append(wire.Begin(nil, 0), "who asked"...), 9)

	t.Run("NACK for a hello", func(t *testing.T) {
		c, err := NewCoordinator()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		go rawWorker(c, nack, nil)
		if err := c.AcceptWorkers(1, 5*time.Second); !errors.Is(err, integrity.ErrMalformed) {
			t.Fatalf("err = %v, want ErrMalformed", err)
		}
	})
	t.Run("unknown kind for a response", func(t *testing.T) {
		c, err := NewCoordinator()
		if err != nil {
			t.Fatal(err)
		}
		defer c.Shutdown()
		go rawWorker(c, hello, stray)
		if err := c.AcceptWorkers(1, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		_, err = c.Dispatch([]WorkRequest{{Leaf: 0, Eps: 0.1, MinPts: 4}})
		if !errors.Is(err, integrity.ErrMalformed) {
			t.Fatalf("err = %v, want ErrMalformed", err)
		}
		if got := c.Stats().WorkersLost; got != 1 {
			t.Fatalf("WorkersLost = %d, want 1", got)
		}
	})
}

// TestServeOrderIsOneDispatch: Stats.ServeOrder is the last dispatch's
// order, so a long-lived coordinator holds one dispatch's worth however
// many it has served.
func TestServeOrderIsOneDispatch(t *testing.T) {
	pts := dataset.Twitter(200, 3)
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	wg := startWorkers(t, c, 1)
	for round := 0; round < 40; round++ {
		reqs := smallReqs(pts, 3)
		if _, err := c.Dispatch(reqs); err != nil {
			t.Fatal(err)
		}
		if got := c.Stats().ServeOrder; len(got) != len(reqs) {
			t.Fatalf("after dispatch %d: ServeOrder = %v, want %d entries", round+1, got, len(reqs))
		}
	}
	c.Shutdown()
	wg.Wait()
}

// relay forwards one worker's connection to the coordinator at addr and
// returns the address for the worker to dial. What the coordinator sends
// waits until gate closes (nil: no wait); received, when not nil, runs
// when the first of it arrives, i.e. when the worker is handed a request
// (the coordinator sends nothing before one). Both goroutines start
// before the worker's hello is forwarded, so they are running when
// AcceptWorkers returns.
func relay(t *testing.T, addr string, gate <-chan struct{}, received func()) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		defer ln.Close()
		w, err := ln.Accept()
		if err != nil {
			return
		}
		defer w.Close()
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer c.Close()
		go func() {
			defer w.Close()
			defer c.Close()
			if gate != nil {
				<-gate
			}
			if received != nil {
				var first [1]byte
				if _, err := io.ReadFull(c, first[:]); err != nil {
					return
				}
				received()
				if _, err := w.Write(first[:]); err != nil {
					return
				}
			}
			_, _ = io.Copy(w, c)
		}()
		_, _ = io.Copy(c, w)
	}()
	return ln.Addr().String()
}

// settleGoroutines waits for the goroutine count to return to baseline.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDispatchLeavesNoGoroutines: whatever way a dispatch ends, every
// goroutine it started — worker loops, monitor, context watcher, backoff
// timers — ends too, a hedge's losing worker loop once its late exchange
// completes.
func TestDispatchLeavesNoGoroutines(t *testing.T) {
	pts := dataset.Twitter(1200, 21)
	const slow = 300 * time.Millisecond
	for _, tc := range []struct {
		name    string
		fast    int
		slow    int
		arm     func(c *Coordinator) context.Context
		wantErr bool
	}{
		{"success", 2, 0, nil, false},
		{"retries exhausted", 1, 0, func(c *Coordinator) context.Context {
			c.Retry = RetryPolicy{MaxAttempts: 1}
			c.SetFaultPlan(faultinject.New(0).Arm(WorkerFaultSite(0), faultinject.Rule{Times: 1}))
			return nil
		}, true},
		{"cancelled", 0, 2, func(c *Coordinator) context.Context {
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			t.Cleanup(cancel)
			return ctx
		}, true},
		{"hedge loser finishes late", 2, 1, func(c *Coordinator) context.Context {
			c.StragglerFactor = 2
			return nil
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCoordinator()
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			if tc.arm != nil {
				if armed := tc.arm(c); armed != nil {
					ctx = armed
				}
			}
			// With a straggler to hedge, the fast workers receive nothing
			// until the slow one holds a request: otherwise they may drain
			// the queue before its loop claims one, and nothing is hedged.
			hedged := tc.slow > 0 && !tc.wantErr
			gate := make(chan struct{})
			var held sync.Once
			for i := 0; i < tc.fast+tc.slow; i++ {
				opt, addr := WorkerOptions{}, c.Addr()
				if i >= tc.fast {
					opt.Delay = slow
				}
				switch {
				case hedged && i >= tc.fast:
					addr = relay(t, addr, nil, func() { held.Do(func() { close(gate) }) })
				case hedged:
					addr = relay(t, addr, gate, nil)
				}
				go func() { _ = WorkerWithOptions(addr, 5000+i, opt) }()
			}
			if err := c.AcceptWorkers(tc.fast+tc.slow, 30*time.Second); err != nil {
				t.Fatal(err)
			}
			baseline := runtime.NumGoroutine()
			_, err = c.DispatchContext(ctx, smallReqs(pts, 6))
			if (err != nil) != tc.wantErr {
				t.Fatalf("dispatch err = %v, want an error: %t", err, tc.wantErr)
			}
			if hedged && c.Stats().HedgesWon < 1 {
				t.Fatalf("HedgesWon = %d: the test needs a losing original", c.Stats().HedgesWon)
			}
			settleGoroutines(t, baseline)
			c.Shutdown()
		})
	}
}
