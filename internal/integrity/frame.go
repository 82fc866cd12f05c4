package integrity

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/faultinject"
)

// The checksummed frame both socket planes speak (distrib's coordinator/
// worker wire and mrnet's TCP overlay):
//
//	[2B magic][1B version][1B kind][4B LE payload len][4B LE CRC32C][payload]
//
// Magic and version reject a peer of another protocol or revision at its
// first frame with a ProtocolError. The CRC32C covers the payload: a
// receiver whose recomputed sum differs answers with the plane's
// payload-free NACK frame and the sender writes its last frame again —
// the same bytes, since a frame is sealed once and a value has one
// encoding. Frame is a plane's parameters; Link runs the protocol on one
// connection. The disk headers (checkpoint envelopes, journal records)
// are other layouts and are not built on this.

// HeaderLen is the length of the frame header.
const HeaderLen = 12

// Frame describes one socket plane.
type Frame struct {
	// Plane names the protocol in errors ("distrib", "mrnet.tcp").
	Plane   string
	Magic   [2]byte
	Version byte
	// Limit bounds a payload, so a corrupted length field fails fast
	// instead of allocating.
	Limit uint32
	// Nack is the kind of the control frame that asks the peer to resend
	// its last frame.
	Nack byte
	// Retries bounds the NACK/retransmit dance of one receive: how many
	// times a sender answers a NACK, and (unless the Link says otherwise)
	// how many corrupt receipts a receiver NACKs before giving up.
	Retries int
}

// Begin returns a buffer holding the reserved header with room for size
// payload bytes to be appended: buf itself when it is large enough, else a
// new one.
func (f *Frame) Begin(buf []byte, size int) []byte {
	if cap(buf) < HeaderLen+size {
		buf = make([]byte, HeaderLen+size)
	}
	return buf[:HeaderLen]
}

// Seal fills in the header of frame (Begin's buffer with the payload
// appended) and returns the finished wire bytes.
func (f *Frame) Seal(frame []byte, kind byte) []byte {
	payload := frame[HeaderLen:]
	frame[0], frame[1], frame[2], frame[3] = f.Magic[0], f.Magic[1], f.Version, kind
	binary.LittleEndian.PutUint32(frame[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[8:12], Checksum(payload))
	return frame
}

// Read reads one frame and validates its framing: io.EOF for a clean
// close between frames, ErrTorn for a connection lost mid-frame, a
// ProtocolError for another magic or version, ErrTooLarge (before any
// allocation) for a length past Limit. The payload's CRC is returned
// unverified so receive-side fault injection can run before the check.
// Header and payload land in *buf, grown when too small and overwritten
// by the next Read: decoders copy out of it.
func (f *Frame) Read(r io.Reader, buf *[]byte) (kind byte, payload []byte, crc uint32, err error) {
	if cap(*buf) < HeaderLen {
		*buf = make([]byte, HeaderLen)
	}
	hdr := (*buf)[:HeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, fmt.Errorf("%s: frame header: %w (%v)", f.Plane, ErrTorn, err)
	}
	if hdr[0] != f.Magic[0] || hdr[1] != f.Magic[1] {
		return 0, nil, 0, &ProtocolError{Plane: f.Plane, Field: "magic",
			Got: uint64(binary.LittleEndian.Uint16(hdr)), Want: uint64(binary.LittleEndian.Uint16(f.Magic[:]))}
	}
	if hdr[2] != f.Version {
		return 0, nil, 0, &ProtocolError{Plane: f.Plane, Field: "version", Got: uint64(hdr[2]), Want: uint64(f.Version)}
	}
	kind = hdr[3]
	n := binary.LittleEndian.Uint32(hdr[4:8])
	crc = binary.LittleEndian.Uint32(hdr[8:12])
	if n > f.Limit {
		return 0, nil, 0, fmt.Errorf("%s: frame of %d bytes: %w", f.Plane, n, ErrTooLarge)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload = (*buf)[:n]
	if got, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("%s: frame payload (%d of %d bytes): %w (%v)", f.Plane, got, n, ErrTorn, err)
	}
	return kind, payload, crc, nil
}

// Hooks are what differs between the endpoints of the two planes: where
// fault injection flips wire bits, and which ledger hears about it. Any
// of them may be nil.
type Hooks struct {
	// OnSend is consulted before every write of a data frame, Send and
	// retransmit alike (not SendClean), with the payload length. A returned flip is
	// applied to the wire for that write only (the buffer stays clean, so
	// a retransmit consults again instead of replaying it); it lands in
	// the payload, or in the CRC field of a payload-free frame. A returned
	// error kills the sender mid-frame: half the frame is written, the
	// connection closed, the error returned from Send.
	OnSend func(payloadLen int) (*faultinject.Corruption, error)
	// OnRecv is consulted once per received non-empty data frame; a
	// returned flip is applied to the payload before its CRC check.
	OnRecv func(payloadLen int) *faultinject.Corruption
	// Detected reports a received frame failing its CRC; healed says a
	// NACK was sent (the budget was not yet spent).
	Detected func(healed bool)
	// Rejected reports the peer's NACK arriving for a frame OnSend had
	// flipped at site: the peer's CRC caught it. An endpoint whose peer
	// books detections on the same ledger (mrnet: both ends of an edge
	// share one overlay) leaves it nil, and the link then forgets a flip
	// once it is written.
	Rejected func(site faultinject.Site, healed bool)
	// Retransmit reports this endpoint answering a NACK with a resend.
	Retransmit func()
	// Masked reports an OnSend flip no verifier ever saw: the write
	// failed, or the connection died before the peer answered.
	Masked func(site faultinject.Site)
}

// Link is one connection's end of a plane. It owns the send buffer (which
// is also the last frame sent, kept for retransmits) and the receive
// buffer, both reused from frame to frame, and runs the receiver's half of
// the protocol. One goroutine uses a Link at a time.
type Link struct {
	plane *Frame
	Conn  net.Conn
	Hooks Hooks
	// Tolerate is how many corrupt receipts one Recv NACKs before failing
	// with ErrChecksum. NewLink sets it to the plane's Retries; an endpoint that
	// must outlast its peer's retransmit budget raises it.
	Tolerate int

	send, recv []byte
	nack       [HeaderLen]byte
	// pending is the flip riding on the last write, until the peer's
	// answer (or the connection's death) settles it.
	pending *faultinject.Corruption
}

// NewLink returns conn's end of plane f.
func (f *Frame) NewLink(conn net.Conn, hooks Hooks) *Link {
	l := &Link{plane: f, Conn: conn, Hooks: hooks, Tolerate: f.Retries}
	f.Seal(l.nack[:], f.Nack)
	return l
}

// Begin returns the link's send buffer with the header reserved and room
// for size payload bytes; append the payload and pass the result to Send.
func (l *Link) Begin(size int) []byte { return l.plane.Begin(l.send, size) }

// Send seals frame as kind and writes it.
func (l *Link) Send(kind byte, frame []byte) error {
	l.send = l.plane.Seal(frame, kind)
	return l.transmit()
}

// SendClean is Send past OnSend, for the frames no fault rule may touch: a
// handshake, a goodbye, the report that this very link keeps corrupting.
func (l *Link) SendClean(kind byte, frame []byte) error {
	l.send = l.plane.Seal(frame, kind)
	_, err := l.Conn.Write(l.send)
	return err
}

// transmit writes the last sealed frame, consulting OnSend.
func (l *Link) transmit() error {
	frame := l.send
	var flip *faultinject.Corruption
	if l.Hooks.OnSend != nil {
		var err error
		if flip, err = l.Hooks.OnSend(len(frame) - HeaderLen); err != nil {
			_, _ = l.Conn.Write(frame[:len(frame)/2]) // the peer's read tears either way
			l.Conn.Close()
			return fmt.Errorf("%s: sender died mid-frame: %w", l.plane.Plane, err)
		}
	}
	at := 0
	if flip != nil {
		at = HeaderLen + int(flip.Offset)
		if len(frame) == HeaderLen {
			at = 8 + int(flip.Offset)%4
		}
		frame[at] ^= 1 << flip.Bit
	}
	_, err := l.Conn.Write(frame)
	if flip != nil {
		frame[at] ^= 1 << flip.Bit
	}
	if err != nil {
		l.masked(flip)
		return err
	}
	if l.Hooks.Rejected != nil {
		l.pending = flip
	}
	return nil
}

// masked books a flip that died unverified and forgets it.
func (l *Link) masked(flip *faultinject.Corruption) {
	if flip != nil && l.Hooks.Masked != nil {
		l.Hooks.Masked(flip.Site)
	}
	l.pending = nil
}

// Recv reads frames until a clean one of a wanted kind arrives, and
// returns its kind and payload (valid until the next Recv). A corrupt
// payload is counted, NACKed and read again; an incoming NACK is answered
// by resending the last frame; either budget running out is ErrChecksum.
// A NACK with nothing sent, and any kind not in want, is ErrMalformed.
func (l *Link) Recv(want ...byte) (byte, []byte, error) {
	// However this ends, a flip still riding met no verifier's objection.
	defer func() { l.masked(l.pending) }()
	f := l.plane
	nacks, resends := 0, 0
	for {
		kind, p, crc, err := f.Read(l.Conn, &l.recv)
		if err != nil {
			return 0, nil, err
		}
		if kind == f.Nack {
			if l.send == nil {
				return 0, nil, fmt.Errorf("%s: NACK with nothing sent: %w", f.Plane, ErrMalformed)
			}
			if flip := l.pending; flip != nil {
				l.pending = nil
				l.Hooks.Rejected(flip.Site, resends < f.Retries)
			}
			if resends++; resends > f.Retries {
				return 0, nil, fmt.Errorf("%s: peer rejected %d retransmits: %w", f.Plane, resends, ErrChecksum)
			}
			if l.Hooks.Retransmit != nil {
				l.Hooks.Retransmit()
			}
			if err := l.transmit(); err != nil {
				return 0, nil, err
			}
			continue
		}
		if bytes.IndexByte(want, kind) < 0 {
			return 0, nil, fmt.Errorf("%s: unexpected frame kind %d: %w", f.Plane, kind, ErrMalformed)
		}
		if l.Hooks.OnRecv != nil && len(p) > 0 {
			if flip := l.Hooks.OnRecv(len(p)); flip != nil {
				p[flip.Offset] ^= 1 << flip.Bit
			}
		}
		if Checksum(p) == crc {
			return kind, p, nil
		}
		nacks++
		healed := nacks <= l.Tolerate
		if l.Hooks.Detected != nil {
			l.Hooks.Detected(healed)
		}
		if !healed {
			return 0, nil, fmt.Errorf("%s: giving up after %d corrupt frames: %w", f.Plane, nacks, ErrChecksum)
		}
		if _, err := l.Conn.Write(l.nack[:]); err != nil {
			return 0, nil, err
		}
	}
}
