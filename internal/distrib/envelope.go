package distrib

import "repro/internal/integrity"

// The coordinator/worker wire. Every message — the worker's Hello
// included — is one checksummed frame of internal/integrity (layout, NACK
// protocol and typed errors: docs/FORMATS.md, "Checksummed frame") with
// the parameters below, so a peer of another protocol revision is refused
// at its first message with a ProtocolError instead of a confusing decode
// failure deep in a dispatch. An exchange whose corruption outlasts the
// retransmit budget fails with integrity.ErrChecksum and the dispatch
// layer redispatches the partition.
//
// Payloads are the fixed-record encodings of codec.go, appended straight
// into the connection's send buffer behind the reserved header and sealed
// once. Version 1 carried gob payloads.

const (
	envVersion = 2

	// envelope kinds.
	envData = 1 // a Hello, WorkRequest or WorkResponse
	envNack = 2 // checksum reject: resend your last envelope

	// maxEnvelope bounds a payload (64 MiB — partitions carry point
	// slices) so a corrupted length field fails fast.
	maxEnvelope = 64 << 20

	// maxEnvelopeRetries bounds the NACK/retransmit dance per exchange.
	maxEnvelopeRetries = 3
)

// wire is the plane both ends of a worker connection speak.
var wire = integrity.Frame{
	Plane: "distrib", Magic: [2]byte{'M', 'S'}, Version: envVersion,
	Limit: maxEnvelope, Nack: envNack, Retries: maxEnvelopeRetries,
}
