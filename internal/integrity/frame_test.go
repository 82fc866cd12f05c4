package integrity

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"net"
	"strings"
	"testing"

	"repro/internal/faultinject"
)

// The two socket planes' parameters as internal/distrib and internal/mrnet
// declare them, for the behaviour tests below (limits, budgets, NACK kinds).
// Their wire bytes are pinned next to the real values: distrib's
// TestEnvelopeGoldenBytes, mrnet's TestTCPFrameGoldenBytes.
var (
	planeMS = Frame{Plane: "distrib", Magic: [2]byte{'M', 'S'}, Version: 2, Limit: 64 << 20, Nack: 2, Retries: 3}
	planeMR = Frame{Plane: "mrnet.tcp", Magic: [2]byte{'M', 'R'}, Version: 1, Limit: 16 << 20, Nack: 4, Retries: 3}
)

const kindData = 1

func sealed(f *Frame, kind byte, payload string) []byte {
	return f.Seal(append(f.Begin(nil, len(payload)), payload...), kind)
}

// TestGoldenHeaderLayout pins the header layout on a plane of its own:
// magic, version, kind, little-endian length, little-endian CRC32C of the
// payload alone (1984fb94 is what the revision before the shared frame put
// on the wire for this payload), then the payload.
func TestGoldenHeaderLayout(t *testing.T) {
	plane := Frame{Plane: "test", Magic: [2]byte{'Z', 'Q'}, Version: 7, Limit: 1 << 10, Nack: 9, Retries: 1}
	const payload = "Mr. Scan golden payload"
	for _, tc := range []struct {
		kind          byte
		payload, want string
	}{
		{5, payload, "5a510705" + "17000000" + "1984fb94" + hex.EncodeToString([]byte(payload))},
		{plane.Nack, "", "5a510709" + "00000000" + "00000000"},
	} {
		if got := hex.EncodeToString(sealed(&plane, tc.kind, tc.payload)); got != tc.want {
			t.Errorf("kind %d = %s, want %s", tc.kind, got, tc.want)
		}
	}
}

// ledger counts a link's hook calls.
type ledger struct{ detected, unhealed, rejected, retransmits, masked int }

// hooks returns Hooks booking on l, whose OnSend flips a payload bit on
// each of the first flips writes (negative: every write).
func (l *ledger) hooks(flips int) Hooks {
	return Hooks{
		OnSend: func(n int) (*faultinject.Corruption, error) {
			if flips == 0 {
				return nil, nil
			}
			flips--
			return &faultinject.Corruption{Site: "test.send", Offset: int64(n / 2), Bit: 3}, nil
		},
		OnRecv: func(int) *faultinject.Corruption { return nil },
		Detected: func(healed bool) {
			l.detected++
			if !healed {
				l.unhealed++
			}
		},
		Rejected:   func(faultinject.Site, bool) { l.rejected++ },
		Retransmit: func() { l.retransmits++ },
		Masked:     func(faultinject.Site) { l.masked++ },
	}
}

// linkPair returns the two ends of f over an in-memory connection.
func linkPair(t *testing.T, f *Frame, a, b Hooks) (*Link, *Link) {
	t.Helper()
	ca, cb := net.Pipe()
	t.Cleanup(func() { ca.Close(); cb.Close() })
	return f.NewLink(ca, a), f.NewLink(cb, b)
}

func sendString(l *Link, kind byte, s string) error {
	return l.Send(kind, append(l.Begin(len(s)), s...))
}

// echo answers every kindData frame with its own payload until the link
// fails, and reports that failure.
func echo(l *Link) <-chan error {
	done := make(chan error, 1)
	go func() {
		for {
			_, p, err := l.Recv(kindData)
			if err == nil {
				err = l.Send(kindData, append(l.Begin(len(p)), p...))
			}
			if err != nil {
				done <- err
				return
			}
		}
	}()
	return done
}

func TestLinkRoundTripAndHeal(t *testing.T) {
	for _, f := range []*Frame{&planeMS, &planeMR} {
		for _, flips := range []int{0, 1} {
			var near, far ledger
			a, b := linkPair(t, f, near.hooks(flips), far.hooks(0))
			echo(b)
			if err := sendString(a, kindData, "ping across the pipe"); err != nil {
				t.Fatal(err)
			}
			_, p, err := a.Recv(kindData)
			if err != nil || string(p) != "ping across the pipe" {
				t.Fatalf("%s, %d flip(s): echo = (%q, %v)", f.Plane, flips, p, err)
			}
			// One flip costs exactly one NACK: the receiver detects once,
			// the sender hears it once and resends once.
			want, got := ledger{detected: flips}, far
			if got != want {
				t.Errorf("%s, %d flip(s): receiver ledger %+v, want %+v", f.Plane, flips, got, want)
			}
			if want = (ledger{rejected: flips, retransmits: flips}); near != want {
				t.Errorf("%s, %d flip(s): sender ledger %+v, want %+v", f.Plane, flips, near, want)
			}
		}
	}
}

// TestSendCleanSkipsOnSend: on a link whose every Send is flipped, a clean
// send still arrives whole and books nothing on either ledger.
func TestSendCleanSkipsOnSend(t *testing.T) {
	var near, far ledger
	a, b := linkPair(t, &planeMR, near.hooks(-1), far.hooks(0))
	go a.SendClean(kindData, append(a.Begin(5), "hello"...))
	_, p, err := b.Recv(kindData)
	if err != nil || string(p) != "hello" || near != (ledger{}) || far != (ledger{}) {
		t.Fatalf("Recv = (%q, %v), ledgers %+v / %+v, want a clean hello and nothing booked", p, err, near, far)
	}
}

// TestLinkPersistentCorruption: a sender flipping every write ends with
// ErrChecksum on the side the plane expects. distrib's worker tolerates
// one receipt more than the coordinator retransmits, so the coordinator
// (the sender) gives up first and every flip was NACKed; mrnet's budget is
// symmetric, so the receiver gives up on the fourth receipt.
func TestLinkPersistentCorruption(t *testing.T) {
	for _, tc := range []struct {
		f            *Frame
		extra        int
		senderFails  bool
		wantDetected int
	}{
		{&planeMS, 1, true, 4},
		{&planeMR, 0, false, 4},
	} {
		var near, far ledger
		a, b := linkPair(t, tc.f, near.hooks(-1), far.hooks(0))
		b.Tolerate += tc.extra
		farErr := echo(b)
		if err := sendString(a, kindData, "never arrives whole"); err != nil {
			t.Fatal(err)
		}
		if tc.senderFails {
			_, _, err := a.Recv(kindData)
			if !errors.Is(err, ErrChecksum) {
				t.Fatalf("%s: sender err = %v, want ErrChecksum", tc.f.Plane, err)
			}
			a.Conn.Close()
			if err := <-farErr; errors.Is(err, ErrChecksum) {
				t.Errorf("%s: receiver gave up first: %v", tc.f.Plane, err)
			}
			if near.rejected != 4 || near.retransmits != 3 || near.masked != 0 {
				t.Errorf("%s: sender ledger %+v, want 4 flips rejected over 3 retransmits", tc.f.Plane, near)
			}
		} else {
			go a.Recv(kindData) // answers NACKs until the pipe closes
			if err := <-farErr; !errors.Is(err, ErrChecksum) {
				t.Fatalf("%s: receiver err = %v, want ErrChecksum", tc.f.Plane, err)
			}
			if far.unhealed != 1 {
				t.Errorf("%s: %d unhealed detections, want 1", tc.f.Plane, far.unhealed)
			}
		}
		if far.detected != tc.wantDetected {
			t.Errorf("%s: receiver detected %d, want %d", tc.f.Plane, far.detected, tc.wantDetected)
		}
	}
}

// TestLinkRejectsDamagedFraming feeds one link raw bytes. Every way a
// frame can be wrong outside what the CRC guards is a typed error, never a
// NACK, and none of them is mistaken for another; a flip inside it — in the
// payload or in the CRC field itself — is one NACK, byte for byte the
// plane's, and the clean resend is accepted.
func TestLinkRejectsDamagedFraming(t *testing.T) {
	whole := sealed(&planeMR, kindData, "twelve bytes")
	mangled := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), whole...)
		fn(b)
		return b
	}
	for _, tc := range []struct {
		name  string
		wire  []byte
		want  error  // errors.Is target; nil for a ProtocolError, or for a frame that heals
		field string // the ProtocolError's field; "" with a nil want: the frame heals
	}{
		{"clean close", nil, io.EOF, ""},
		{"torn header", whole[:5], ErrTorn, ""},
		{"torn payload", whole[:HeaderLen+4], ErrTorn, ""},
		{"oversize length", mangled(func(b []byte) { binary.LittleEndian.PutUint32(b[4:8], planeMR.Limit+1) })[:HeaderLen], ErrTooLarge, ""},
		{"wrong magic", mangled(func(b []byte) { b[1] = 'S' }), nil, "magic"},
		{"wrong version", mangled(func(b []byte) { b[2] = 9 }), nil, "version"},
		{"unknown kind", mangled(func(b []byte) { b[3] = 77 }), ErrMalformed, ""},
		{"NACK before send", sealed(&planeMR, planeMR.Nack, ""), ErrMalformed, ""},
		{"flipped payload bit", mangled(func(b []byte) { b[HeaderLen] ^= 0x10 }), nil, ""},
		{"flipped CRC bit", mangled(func(b []byte) { b[9] ^= 0x01 }), nil, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			heals := tc.want == nil && tc.field == ""
			var far ledger
			raw, conn := net.Pipe()
			defer conn.Close()
			go func() {
				defer raw.Close()
				if len(tc.wire) > 0 {
					raw.Write(tc.wire)
				}
				if !heals {
					return
				}
				nack := make([]byte, HeaderLen)
				if _, err := io.ReadFull(raw, nack); err == nil && bytes.Equal(nack, sealed(&planeMR, planeMR.Nack, "")) {
					raw.Write(whole)
				}
			}()
			l := planeMR.NewLink(conn, far.hooks(0))
			_, p, err := l.Recv(kindData)
			if heals {
				if err != nil || string(p) != "twelve bytes" || far != (ledger{detected: 1}) {
					t.Fatalf("Recv = (%q, %v) with ledger %+v, want the resend after one healed detection", p, err, far)
				}
				return
			}
			var pe *ProtocolError
			switch {
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Fatalf("err = %v, want %v", err, tc.want)
			case tc.want == nil && (!errors.As(err, &pe) || pe.Field != tc.field || pe.Plane != "mrnet.tcp"):
				t.Fatalf("err = %v, want a mrnet.tcp ProtocolError on %s", err, tc.field)
			}
			// A torn frame must never be taken for corruption (it would
			// NACK a dead peer), and the message says how far it got.
			if errors.Is(err, ErrChecksum) || far.detected != 0 {
				t.Fatalf("framing damage booked as corruption: %v, %+v", err, far)
			}
			if tc.name == "torn payload" && !strings.Contains(err.Error(), "(4 of 12 bytes)") {
				t.Fatalf("err = %v, want the 4 of 12 payload bytes read", err)
			}
			if tc.name == "oversize length" && cap(l.recv) > HeaderLen {
				t.Fatalf("oversize length grew the receive buffer to %d bytes", cap(l.recv))
			}
		})
	}
}

// TestLinkSteadyStateAllocatesNothing: once a link's buffers have grown,
// request/response exchanges allocate nothing on either end — hooks
// consulted, frames sealed, verified and echoed.
func TestLinkSteadyStateAllocatesNothing(t *testing.T) {
	var near, far ledger
	a, b := linkPair(t, &planeMS, near.hooks(0), far.hooks(0))
	echo(b)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 4096)
	exchange := func() {
		if err := a.Send(kindData, append(a.Begin(len(payload)), payload...)); err != nil {
			t.Fatal(err)
		}
		if _, p, err := a.Recv(kindData); err != nil || len(p) != len(payload) {
			t.Fatalf("echo = (%d bytes, %v)", len(p), err)
		}
	}
	exchange() // grow the four buffers
	if allocs := testing.AllocsPerRun(100, exchange); allocs != 0 {
		t.Fatalf("%v allocations per warmed exchange, want 0", allocs)
	}
}

// FuzzReadFrame drives the one header reader with torn, bit-flipped and
// hostile input under both planes' parameters. It never panics, never
// allocates past the plane's limit, fails only in the documented typed
// ways (the NACK protocol dispatches on them), and anything it accepts
// with a matching CRC re-seals to the bytes it consumed.
func FuzzReadFrame(f *testing.F) {
	for i, p := range []*Frame{&planeMS, &planeMR} {
		whole := sealed(p, kindData, "leaf payload")
		f.Add(i, whole)
		f.Add(i, sealed(p, p.Nack, ""))
		f.Add(i, whole[:HeaderLen-3]) // torn mid-header
		f.Add(i, whole[:HeaderLen+1]) // torn mid-payload
		flipped := append([]byte(nil), whole...)
		flipped[HeaderLen+2] ^= 0x08
		f.Add(i, flipped)
		oversized := append([]byte(nil), whole[:HeaderLen]...)
		binary.LittleEndian.PutUint32(oversized[4:8], p.Limit+1)
		f.Add(i, oversized)
		f.Add(i, []byte{})
	}
	f.Fuzz(func(t *testing.T, plane int, data []byte) {
		p := []*Frame{&planeMS, &planeMR}[plane&1]
		var buf []byte
		kind, payload, crc, err := p.Read(bytes.NewReader(data), &buf)
		if limit := max(int(p.Limit), HeaderLen); cap(buf) > limit {
			t.Fatalf("receive buffer grew to %d bytes, past the %d limit", cap(buf), limit)
		}
		if err != nil {
			var pe *ProtocolError
			if err != io.EOF && !errors.Is(err, ErrTorn) && !errors.Is(err, ErrTooLarge) && !errors.As(err, &pe) {
				t.Fatalf("untyped Read error: %v", err)
			}
			return
		}
		if Checksum(payload) != crc {
			return // corrupt: the link NACKs it
		}
		enc := p.Seal(append(p.Begin(nil, len(payload)), payload...), kind)
		if len(data) < len(enc) || !bytes.Equal(data[:len(enc)], enc) {
			t.Fatalf("accepted frame (kind %d, %d-byte payload) does not re-seal to the consumed bytes", kind, len(payload))
		}
	})
}
