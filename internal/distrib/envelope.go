package distrib

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/integrity"
)

// Checksummed message envelopes for the coordinator/worker wire.
//
// Every message — including the worker's Hello — travels as:
//
//	[2B magic "MS"][1B version][1B kind][4B LE payload len][4B LE CRC32C][payload]
//
// The magic and version bytes reject a peer speaking a different
// protocol revision at the first message with a ProtocolError, instead
// of a confusing decode failure deep in a dispatch. The CRC32C covers
// the payload: a receiver whose recomputed sum differs answers with a
// NACK envelope and the sender retransmits, bounded by
// maxEnvelopeRetries per exchange, after which the exchange fails with
// ErrPayloadCorrupt and the dispatch layer redispatches the partition.
//
// Payloads are the fixed-record encodings of codec.go, appended straight
// into the envelope's buffer behind twelve reserved header bytes and
// sealed once. Each envelope is self-contained and a value has exactly
// one encoding, so a retransmit is the same bytes written again.
// Version 1 carried gob payloads.

const (
	envMagic   = "MS"
	envVersion = 2
	envHdrLen  = 12

	// envelope kinds.
	envData = 1 // a Hello, WorkRequest or WorkResponse
	envNack = 2 // checksum reject: resend your last envelope

	// maxEnvelope bounds a payload (64 MiB — partitions carry point
	// slices) so a corrupted length field fails fast.
	maxEnvelope = 64 << 20

	// maxEnvelopeRetries bounds the NACK/retransmit dance per exchange.
	maxEnvelopeRetries = 3
)

// ErrPayloadCorrupt reports an exchange abandoned because payload
// corruption persisted past the retransmit budget. errors.Is-compatible
// with integrity.ErrChecksum.
var ErrPayloadCorrupt = integrity.ErrChecksum

// ErrEnvelopeTorn reports a connection that died mid-envelope.
// errors.Is-compatible with integrity.ErrTorn.
var ErrEnvelopeTorn = integrity.ErrTorn

// newEnvelope returns a buffer holding the reserved header, with room
// for a payload of the given size to be appended: buf itself when it is
// large enough (a connection reuses its last envelope's), else a new one.
func newEnvelope(buf []byte, payloadSize int) []byte {
	if cap(buf) < envHdrLen+payloadSize {
		buf = make([]byte, envHdrLen+payloadSize)
	}
	return buf[:envHdrLen]
}

// sealEnvelope fills in the header of env (newEnvelope's buffer with the
// payload appended) and returns the finished wire bytes.
func sealEnvelope(env []byte, kind byte) []byte {
	payload := env[envHdrLen:]
	copy(env, envMagic)
	env[2] = envVersion
	env[3] = kind
	binary.LittleEndian.PutUint32(env[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint32(env[8:12], integrity.Checksum(payload))
	return env
}

// nackEnvelope is the one NACK there is.
var nackEnvelope = sealEnvelope(newEnvelope(nil, 0), envNack)

// readEnvelope reads one envelope and validates its framing: magic and
// version (ProtocolError on mismatch), length (ErrTooLarge), and
// completeness (io.EOF for a clean close between envelopes,
// ErrEnvelopeTorn mid-envelope). The payload's CRC is returned
// unverified so the caller can apply receive-side fault injection
// before checking it. The payload lands in *buf, grown when too small and
// overwritten by the connection's next read: decoders copy out of it.
func readEnvelope(r io.Reader, buf *[]byte) (kind byte, payload []byte, crc uint32, err error) {
	var hdr [envHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			return 0, nil, 0, io.EOF
		}
		return 0, nil, 0, fmt.Errorf("distrib: envelope header: %w (%v)", ErrEnvelopeTorn, err)
	}
	if string(hdr[:2]) != envMagic {
		return 0, nil, 0, &integrity.ProtocolError{
			Plane: "distrib", Field: "magic",
			Got: uint64(binary.LittleEndian.Uint16(hdr[:2])), Want: uint64('M') | uint64('S')<<8,
		}
	}
	if hdr[2] != envVersion {
		return 0, nil, 0, &integrity.ProtocolError{
			Plane: "distrib", Field: "version", Got: uint64(hdr[2]), Want: envVersion,
		}
	}
	kind = hdr[3]
	n := binary.LittleEndian.Uint32(hdr[4:8])
	if n > maxEnvelope {
		return 0, nil, 0, fmt.Errorf("distrib: envelope of %d bytes: %w", n, integrity.ErrTooLarge)
	}
	crc = binary.LittleEndian.Uint32(hdr[8:12])
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload = (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, 0, fmt.Errorf("distrib: envelope payload: %w (%v)", ErrEnvelopeTorn, err)
	}
	return kind, payload, crc, nil
}

// recvVerified reads envelopes off conn until a clean data envelope
// arrives, running the receiver's half of the integrity protocol with
// no fault injection and no counters — the worker side. A corrupt
// payload is NACKed (bounded); an incoming NACK resends lastSent, the
// caller's last sealed envelope.
func recvVerified(conn net.Conn, lastSent, buf *[]byte) ([]byte, error) {
	nacks, resends := 0, 0
	for {
		kind, p, crc, err := readEnvelope(conn, buf)
		if err != nil {
			return nil, err
		}
		switch kind {
		case envNack:
			resends++
			if resends > maxEnvelopeRetries {
				return nil, fmt.Errorf("distrib: peer rejected %d retransmits: %w", resends, ErrPayloadCorrupt)
			}
			if *lastSent == nil {
				return nil, fmt.Errorf("distrib: NACK with nothing to resend")
			}
			if _, err := conn.Write(*lastSent); err != nil {
				return nil, err
			}
		case envData:
			if integrity.Checksum(p) != crc {
				nacks++
				// Tolerate one corrupt receipt more than the sender
				// will retransmit (initial send + maxEnvelopeRetries
				// resends): the sender must always exhaust its budget
				// first and fail with ErrPayloadCorrupt on its side,
				// where the dispatch layer redispatches the partition —
				// rather than this side closing the connection and
				// turning verified corruption into a generic conn loss.
				if nacks > maxEnvelopeRetries+1 {
					return nil, fmt.Errorf("distrib: giving up after %d corrupt envelopes: %w", nacks, ErrPayloadCorrupt)
				}
				if _, err := conn.Write(nackEnvelope); err != nil {
					return nil, err
				}
				continue
			}
			return p, nil
		default:
			return nil, fmt.Errorf("distrib: unknown envelope kind %d", kind)
		}
	}
}
