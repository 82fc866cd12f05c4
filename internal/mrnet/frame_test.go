package mrnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/integrity"
	"repro/internal/telemetry"
)

// mangle returns a valid encoded frame with fn applied to it.
func mangle(ftype byte, payload []byte, fn func([]byte)) []byte {
	buf := encodeFrame(ftype, payload)
	if fn != nil {
		fn(buf)
	}
	return buf
}

func TestReadFrameTypedErrors(t *testing.T) {
	payload := []byte("twelve bytes")
	cases := []struct {
		name string
		wire []byte
		want error
	}{
		{"clean close", nil, io.EOF},
		{"torn header", mangle(frameUp, payload, nil)[:5], ErrFrameTorn},
		{"torn payload", mangle(frameUp, payload, nil)[:frameHdrLen+4], ErrFrameTorn},
		{"bad magic", mangle(frameUp, payload, func(b []byte) { b[0] = 'X' }), nil},
		{"bad version", mangle(frameUp, payload, func(b []byte) { b[2] = frameVersion + 9 }), nil},
		{"oversized", mangle(frameUp, payload, func(b []byte) {
			binary.LittleEndian.PutUint32(b[4:8], maxFrame+1)
		}), ErrFrameTooLarge},
		{"flipped payload bit", mangle(frameUp, payload, func(b []byte) { b[frameHdrLen] ^= 0x10 }), ErrFrameCorrupt},
		{"flipped crc bit", mangle(frameUp, payload, func(b []byte) { b[9] ^= 0x01 }), ErrFrameCorrupt},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := readFrame(bytes.NewReader(tc.wire))
			if err == nil {
				t.Fatal("readFrame accepted a damaged frame")
			}
			switch tc.name {
			case "bad magic", "bad version":
				if !integrity.IsProtocolMismatch(err) {
					t.Fatalf("err = %v, want a ProtocolError", err)
				}
				var pe *integrity.ProtocolError
				if !errors.As(err, &pe) || pe.Plane != "mrnet.tcp" {
					t.Fatalf("err = %v, want mrnet.tcp plane", err)
				}
			default:
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
			}
			// The torn-payload message reports how far the read got.
			if tc.name == "torn payload" && !strings.Contains(err.Error(), "(4 of 12 bytes)") {
				t.Fatalf("err = %v, want the 4 of 12 payload bytes read", err)
			}
			// A torn frame must never be mistaken for corruption (it
			// would trigger a pointless NACK to a dead peer) and vice
			// versa (a corrupt frame is healable, a torn one is not).
			if tc.want == ErrFrameTorn && errors.Is(err, ErrFrameCorrupt) {
				t.Fatalf("torn frame classified as corrupt: %v", err)
			}
			if tc.want == ErrFrameCorrupt && errors.Is(err, ErrFrameTorn) {
				t.Fatalf("corrupt frame classified as torn: %v", err)
			}
		})
	}
}

func TestReadFrameRoundTrip(t *testing.T) {
	payload := []byte{1, 2, 3, 4, 5}
	ftype, got, err := readFrame(bytes.NewReader(encodeFrame(frameDown, payload)))
	if err != nil || ftype != frameDown || !bytes.Equal(got, payload) {
		t.Fatalf("roundtrip = (%d, %v, %v), want (%d, %v, nil)", ftype, got, err, frameDown, payload)
	}
}

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
// retransmit budget surfaces ErrFrameCorrupt instead of looping forever.
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
	if !errors.Is(err, ErrFrameCorrupt) && !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("err = %v, want a corruption failure", err)
	}
	detected, _, _ := net.FrameIntegrity()
	if detected < int64(maxFrameRetries)+1 {
		t.Fatalf("detected %d corruptions, want > retry budget %d", detected, maxFrameRetries)
	}
}
