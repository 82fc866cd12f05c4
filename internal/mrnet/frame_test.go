package mrnet

import (
	"encoding/hex"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// sumOverlay builds a small TCP overlay whose Reduce sums leaf indexes.
func sumOverlay(t *testing.T, leaves, fanout int) *TCPNetwork {
	t.Helper()
	net, err := NewTCP(leaves, fanout, TCPHandlers{
		Leaf: func(leaf int, down []byte) ([]byte, error) {
			return []byte{byte(leaf + 1)}, nil
		},
		Filter: func(node *Node, in [][]byte) ([]byte, error) {
			var sum byte
			for _, p := range in {
				sum += p[0]
			}
			return []byte{sum}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	return net
}

// TestTCPFrameCorruptionNackHeals: wire bit flips are caught by the CRC
// trailer, NACKed, and healed by retransmission — the operation still
// returns the right answer, and the ledger balances.
func TestTCPFrameCorruptionNackHeals(t *testing.T) {
	net := sumOverlay(t, 4, 2)
	plan := faultinject.New(3).
		Arm(faultinject.MRNetFrame, faultinject.Rule{Corrupt: true, Times: 2})
	hub := telemetry.New(nil)
	net.SetFaultPlan(plan)
	net.SetTelemetry(hub)

	out, err := net.Reduce([]byte("go"))
	if err != nil {
		t.Fatalf("Reduce under frame corruption: %v", err)
	}
	if len(out) != 1 || out[0] != 1+2+3+4 {
		t.Fatalf("Reduce = %v, want [10]", out)
	}
	detected, masked, retransmits := net.FrameIntegrity()
	injected := plan.CorruptionsInjected(faultinject.MRNetFrame)
	if injected == 0 {
		t.Fatal("plan injected nothing — rule never fired")
	}
	if detected+masked != injected {
		t.Fatalf("ledger: injected %d, detected %d + masked %d", injected, detected, masked)
	}
	if detected == 0 || retransmits < detected {
		t.Fatalf("detected %d, retransmits %d: every detection should trigger a retransmit", detected, retransmits)
	}
	if got := hub.Counter(integrity.MetricDetected, "site", string(faultinject.MRNetFrame)).Value(); got != detected {
		t.Fatalf("hub integrity counter = %d, overlay detected = %d", got, detected)
	}
}

// TestTCPKillMidFrame: an error rule at mrnet.frame kills the sender
// mid-frame. The collective fails loudly (never hangs, never yields a
// wrong sum), and a rebuilt overlay — what the merge phase's retry does
// — succeeds.
func TestTCPKillMidFrame(t *testing.T) {
	net := sumOverlay(t, 4, 2)
	boom := errors.New("switch port died")
	net.SetFaultPlan(faultinject.New(0).
		Arm(faultinject.MRNetFrame, faultinject.Rule{Times: 1, Err: boom}))

	if _, err := net.Reduce([]byte("go")); err == nil {
		t.Fatal("Reduce succeeded over a connection killed mid-frame")
	}
	// Rebuild (the recovery path mrscan's merge-phase retry takes).
	net2 := sumOverlay(t, 4, 2)
	out, err := net2.Reduce([]byte("go"))
	if err != nil || out[0] != 10 {
		t.Fatalf("rebuilt overlay Reduce = (%v, %v), want ([10], nil)", out, err)
	}
}

// TestTCPPersistentCorruptionFailsLoudly: a link corrupting beyond the
// retransmit budget surfaces ErrChecksum instead of looping forever.
func TestTCPPersistentCorruptionFailsLoudly(t *testing.T) {
	net := sumOverlay(t, 2, 2)
	net.SetFaultPlan(faultinject.New(0).
		Arm(faultinject.MRNetFrame, faultinject.Rule{Corrupt: true})) // every frame
	_, err := net.Reduce([]byte("go"))
	if err == nil {
		t.Fatal("Reduce succeeded on a permanently corrupting link")
	}
	// The failure may surface typed (detected by the root itself) or as
	// a frameError relayed from a child — where the type is necessarily
	// lost crossing the wire but the message survives.
	if !errors.Is(err, integrity.ErrChecksum) && !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("err = %v, want a corruption failure", err)
	}
	detected, _, _ := net.FrameIntegrity()
	if detected < int64(maxFrameRetries)+1 {
		t.Fatalf("detected %d corruptions, want > retry budget %d", detected, maxFrameRetries)
	}
}

// TestTCPFrameGoldenBytes pins this plane's parameters to the wire the
// revision before the shared frame wrote (hex printed by its encodeFrame;
// the header layout itself is pinned in internal/integrity).
func TestTCPFrameGoldenBytes(t *testing.T) {
	for got, want := range map[string]string{
		hex.EncodeToString(rawFrame(frameUp, "Mr. Scan golden payload")): "4d520102170000001984fb944d722e205363616e20676f6c64656e207061796c6f6164",
		hex.EncodeToString(rawFrame(tcpFrame.Nack, "")):                  "4d5201040000000000000000",
	} {
		if got != want {
			t.Errorf("frame = %s, want %s", got, want)
		}
	}
}

// rawFrame is one sealed frame as a misbehaving peer would write it.
func rawFrame(ftype byte, payload string) []byte {
	return tcpFrame.Seal(append(tcpFrame.Begin(nil, len(payload)), payload...), ftype)
}

// TestTCPGatherRejectsWrongFrameType: a child answering an operation with
// anything but its upstream contribution (or an error) fails the gather
// with ErrMalformed — it is never combined as if it were one.
func TestTCPGatherRejectsWrongFrameType(t *testing.T) {
	for _, ftype := range []byte{frameDown, frameHello, 77} {
		overlay := &TCPNetwork{handlers: sumHandlers(func(int) uint64 { return 0 })}
		tree, err := New(1, 2, CostModel{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, conn := net.Pipe()
		root := &tcpNode{node: tree.nodes[0], children: []*integrity.Link{overlay.link(conn, 0)}}
		go func() {
			var buf []byte
			if _, _, _, err := tcpFrame.Read(raw, &buf); err == nil { // the operation start
				raw.Write(rawFrame(ftype, "12345678"))
			}
		}()
		_, err = overlay.runSubtree(root, []byte("go"))
		if !errors.Is(err, integrity.ErrMalformed) {
			t.Errorf("child answered with frame type %d: err = %v, want ErrMalformed", ftype, err)
		}
		raw.Close()
		conn.Close()
	}
}

// TestTCPServeRejectsWrongFrameType: a node whose parent sends anything
// but an operation start — an upstream frame, or a NACK when nothing was
// ever sent up — hangs up instead of skipping it or retransmitting a frame
// that does not exist.
func TestTCPServeRejectsWrongFrameType(t *testing.T) {
	for _, ftype := range []byte{frameUp, frameNack} {
		overlay := &TCPNetwork{handlers: sumHandlers(func(int) uint64 { return 0 })}
		tree, err := New(1, 2, CostModel{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		raw, conn := net.Pipe()
		leaf := tree.nodes[len(tree.nodes)-1]
		go overlay.serve(&tcpNode{node: leaf, parent: overlay.link(conn, leaf.id)})
		raw.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := raw.Write(rawFrame(ftype, "")); err != nil {
			t.Fatal(err)
		}
		if n, err := raw.Read(make([]byte, 64)); err != io.EOF {
			t.Errorf("after frame type %d the node wrote %d bytes (err %v), want a closed edge", ftype, n, err)
		}
		raw.Close()
	}
}
