package distrib

import (
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/faultinject"
	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// TestAcceptWorkersRejectsForeignProtocol: a peer speaking another
// protocol (or plain garbage) is rejected at handshake time with a
// ProtocolError naming the mismatched field, never accepted into the
// worker pool.
func TestAcceptWorkersRejectsForeignProtocol(t *testing.T) {
	badVersion := wire.Seal(wire.Begin(nil, 0), envData)
	badVersion[2] = envVersion + 7

	cases := []struct {
		name  string
		wire  []byte
		field string
	}{
		{"http speaker", []byte("GET / HTTP/1.1\r\nHost: x\r\n\r\n"), "magic"},
		{"future revision", badVersion, "version"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCoordinator()
			if err != nil {
				t.Fatal(err)
			}
			defer c.Shutdown()
			go func() {
				conn, err := net.Dial("tcp", c.Addr())
				if err != nil {
					return
				}
				conn.Write(tc.wire)
				// Keep the conn open so the reject is a parse decision,
				// not a torn read.
				time.Sleep(2 * time.Second)
				conn.Close()
			}()
			err = c.AcceptWorkers(1, 5*time.Second)
			if err == nil {
				t.Fatal("AcceptWorkers admitted a foreign-protocol peer")
			}
			if !integrity.IsProtocolMismatch(err) {
				t.Fatalf("err = %v, want a ProtocolError", err)
			}
		})
	}
}

// TestEnvelopeCorruptionHealsTransparently: single bit flips on the
// request and response wires are caught by the envelope CRC, NACKed,
// and healed by retransmission — the dispatch output is identical to a
// fault-free run and no partition is redispatched.
func TestEnvelopeCorruptionHealsTransparently(t *testing.T) {
	pts := dataset.Twitter(4000, 9)
	want, cleanStats := runOnce(t, pts, 2, nil)
	if cleanStats.CorruptionRedispatches != 0 {
		t.Fatalf("fault-free run redispatched: %+v", cleanStats)
	}

	plan := faultinject.New(11).
		Arm(faultinject.DistribRequest, faultinject.Rule{Corrupt: true, Times: 1}).
		Arm(faultinject.DistribResponse, faultinject.Rule{Corrupt: true, Times: 1})
	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	c.RequestTimeout = 30 * time.Second
	c.SetFaultPlan(plan)
	hub := telemetry.New(nil)
	c.SetTelemetry(hub)
	wg := startWorkers(t, c, 2)
	res, err := c.Run(pts, Options{Eps: 0.1, MinPts: 10, Leaves: 9, DenseBox: true})
	if err != nil {
		t.Fatalf("run under envelope corruption: %v", err)
	}
	stats := c.Stats()
	c.Shutdown()
	wg.Wait()

	for _, site := range []faultinject.Site{faultinject.DistribRequest, faultinject.DistribResponse} {
		injected := plan.CorruptionsInjected(site)
		if injected == 0 {
			t.Errorf("%s: rule never fired", site)
		}
		detected := hub.Counter(integrity.MetricDetected, "site", string(site)).Value()
		masked := hub.Counter(integrity.MetricMasked, "site", string(site)).Value()
		if detected+masked != injected {
			t.Errorf("%s ledger: injected %d, detected %d + masked %d", site, injected, detected, masked)
		}
	}
	if stats.CorruptionRedispatches != 0 {
		t.Errorf("CorruptionRedispatches = %d: transient flips should heal by retransmit, not redispatch",
			stats.CorruptionRedispatches)
	}
	if stats.WorkersLost != 0 {
		t.Errorf("WorkersLost = %d, want 0", stats.WorkersLost)
	}
	for i := range want {
		if res.Labels[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d: healed corruption changed the clustering", i, res.Labels[i], want[i])
		}
	}
}

// TestPersistentCorrupterRemoved: a worker whose every exchange fails
// verification past the retransmit budget burns redispatches until its
// corruption streak exceeds Retry.MaxElapsed, then is removed from the
// pool like a crashed node — and the run still completes correctly on
// the survivors.
func TestPersistentCorrupterRemoved(t *testing.T) {
	pts := dataset.Twitter(4000, 13)
	want, _ := runOnce(t, pts, 3, nil)

	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	c.RequestTimeout = 30 * time.Second
	c.Retry = RetryPolicy{MaxAttempts: 3, MaxElapsed: 20 * time.Millisecond}
	// Worker 0 (accept order) corrupts every exchange, forever.
	c.SetFaultPlan(faultinject.New(0).
		Arm(WorkerFaultSite(0), faultinject.Rule{Corrupt: true}))

	// Clean workers serve slowly enough that the dispatch comfortably
	// outlives MaxElapsed, so the corrupter's removal deadline passes
	// while work remains.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = WorkerWithOptions(c.Addr(), 3000+i, WorkerOptions{Delay: 25 * time.Millisecond})
		}(i)
	}
	if err := c.AcceptWorkers(3, 30*time.Second); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(pts, Options{Eps: 0.1, MinPts: 10, Leaves: 9, DenseBox: true})
	if err != nil {
		t.Fatalf("run with a persistent corrupter: %v", err)
	}
	stats := c.Stats()
	c.Shutdown()
	wg.Wait()

	if stats.CorruptionRedispatches == 0 {
		t.Error("CorruptionRedispatches = 0: the corrupter's exchanges should have failed verification")
	}
	if stats.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1 (the persistent corrupter)", stats.WorkersLost)
	}
	for i := range want {
		if res.Labels[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d", i, res.Labels[i], want[i])
		}
	}
}

// TestCorruptResponderRemovedByMaxElapsed drives the MaxElapsed removal
// branch itself: a raw protocol speaker that answers every request with
// a corrupt envelope and resends the same bytes on every NACK. The
// coordinator exhausts its NACK budget per exchange (ErrChecksum
// → redispatch, no MaxAttempts consumed) while the responder never
// crashes — only the corruption-streak clock can remove it.
func TestCorruptResponderRemovedByMaxElapsed(t *testing.T) {
	pts := dataset.Twitter(4000, 13)
	want, _ := runOnce(t, pts, 3, nil)

	c, err := NewCoordinator()
	if err != nil {
		t.Fatal(err)
	}
	c.RequestTimeout = 30 * time.Second
	c.Retry = RetryPolicy{MaxAttempts: 3, MaxElapsed: 20 * time.Millisecond}

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_ = WorkerWithOptions(c.Addr(), 4000+i, WorkerOptions{Delay: 25 * time.Millisecond})
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := net.Dial("tcp", c.Addr())
		if err != nil {
			return
		}
		defer conn.Close()
		hello := wire.Seal(appendHello(wire.Begin(nil, helloLen), &Hello{Pid: 4999}), envData)
		if _, err := conn.Write(hello); err != nil {
			return
		}
		// Every data envelope we emit has one payload byte flipped after
		// the CRC was computed; NACKs are answered by resending the same
		// corrupt bytes, so the coordinator's budget always trips.
		bad := wire.Seal(append(wire.Begin(nil, 0), "not a response"...), envData)
		bad[integrity.HeaderLen] ^= 0x08
		for {
			kind, _, _, err := wire.Read(conn, new([]byte))
			if err != nil {
				return // removed by the coordinator
			}
			switch kind {
			case envData, envNack:
				if _, err := conn.Write(bad); err != nil {
					return
				}
			}
		}
	}()
	if err := c.AcceptWorkers(3, 30*time.Second); err != nil {
		t.Fatal(err)
	}

	res, err := c.Run(pts, Options{Eps: 0.1, MinPts: 10, Leaves: 9, DenseBox: true})
	if err != nil {
		t.Fatalf("run with a corrupt responder: %v", err)
	}
	stats := c.Stats()
	c.Shutdown()
	wg.Wait()

	if stats.WorkersLost != 1 {
		t.Errorf("WorkersLost = %d, want 1 (the corrupt responder, by MaxElapsed)", stats.WorkersLost)
	}
	// More redispatches than MaxAttempts with a successful run proves
	// verified-corruption redispatch does not consume the partition's
	// attempt budget.
	if stats.CorruptionRedispatches <= c.Retry.MaxAttempts {
		t.Errorf("CorruptionRedispatches = %d, want > MaxAttempts (%d)",
			stats.CorruptionRedispatches, c.Retry.MaxAttempts)
	}
	for i := range want {
		if res.Labels[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d", i, res.Labels[i], want[i])
		}
	}
}
