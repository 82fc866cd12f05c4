// Package integrity holds the CRC32C checksum primitives and the typed
// wire-corruption errors shared by every checksummed data plane in the
// pipeline: checkpoint envelopes, Lustre block sums, mrnet TCP frame
// trailers, and distrib envelopes.
//
// All planes use CRC32C (the Castagnoli polynomial) — the same checksum
// Lustre's T10-PI integration and NVMe end-to-end protection use, and
// one with hardware support (SSE4.2 crc32 instruction) on every node of
// a Titan-class machine. Centralizing the table means a corruption
// detected at any layer reports through the same error vocabulary, so
// retry layers and the chaos harness can classify failures without
// knowing which plane caught them.
package integrity

import (
	"errors"
	"fmt"
	"hash/crc32"
)

// castagnoli is the CRC32C table shared by all planes.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32C of p.
func Checksum(p []byte) uint32 {
	return crc32.Checksum(p, castagnoli)
}

// Update extends an in-progress CRC32C with p, for checksums computed
// over discontiguous spans (e.g. a read that straddles stored and
// copied bytes).
func Update(crc uint32, p []byte) uint32 {
	return crc32.Update(crc, castagnoli, p)
}

// ErrChecksum reports a checksum mismatch: the payload arrived (or was
// stored) complete but its bytes do not match the recorded CRC32C.
// Transient wire corruption is retried by the detecting layer; a
// persistent mismatch surfaces wrapped in this error.
var ErrChecksum = errors.New("integrity: checksum mismatch")

// ErrTorn reports a short read mid-message: the peer died (or the file
// was truncated) partway through a frame or envelope. Distinct from
// ErrTooLarge and ErrChecksum so retry layers can tell a dropped
// connection from a hostile or corrupt length field.
var ErrTorn = errors.New("integrity: torn message (short read mid-frame)")

// ErrTooLarge reports a length field exceeding the plane's frame limit
// — either a corrupted header or a protocol mismatch, never retried.
var ErrTooLarge = errors.New("integrity: message exceeds size limit")

// ErrMalformed reports a payload that arrived whole and checksum-clean
// but does not parse: a count that overruns the bytes present, records
// out of canonical order, trailing bytes. The sender is buggy or hostile
// — never retried, and never mistaken for a closed connection.
var ErrMalformed = errors.New("integrity: malformed message")

// ProtocolError reports a magic or version mismatch during a handshake
// or frame decode: the peer speaks a different protocol revision (or is
// not a peer at all). Surfaced instead of a payload decoder failing
// obscurely deep in an exchange.
type ProtocolError struct {
	// Plane names the protocol that rejected the peer (e.g.
	// "mrnet.tcp", "distrib").
	Plane string
	// Field is what mismatched: "magic" or "version".
	Field string
	Got   uint64
	Want  uint64
}

func (e *ProtocolError) Error() string {
	return fmt.Sprintf("integrity: %s protocol %s mismatch: got %#x, want %#x (peer runs an incompatible revision)",
		e.Plane, e.Field, e.Got, e.Want)
}

// IsProtocolMismatch reports whether err carries a ProtocolError.
func IsProtocolMismatch(err error) bool {
	var pe *ProtocolError
	return errors.As(err, &pe)
}

// MetricDetected is the telemetry counter every plane increments (with
// a "site" label) when a checksum or protocol layer catches an injected
// or real corruption. The chaos harness asserts this total equals the
// number of injected corruptions that reached a checksummed boundary.
const MetricDetected = "integrity_corruptions_detected"

// MetricMasked counts injected corruptions that were provably
// neutralized before any consumer saw them (e.g. a corrupted Lustre
// block fully overwritten by a later write). Detected + masked + latent
// must equal injected for a chaos run to pass.
const MetricMasked = "integrity_corruptions_masked"
