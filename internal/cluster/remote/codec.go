// Package remote distributes the chase across process boundaries: a
// Coordinator that owns the truth ledger and round barrier, and N
// worker processes (cmd/rockworker) that own engine replicas and speak
// a length-prefixed TCP protocol. The design is lockstep replication —
// see the package comment in internal/chase/distributed.go — so the
// wire only ever carries round preambles (truth journal + accepted
// fixes + rule IDs), unit index assignments, and per-unit deduction
// buffers tagged with generation order. Each frame is one gob-encoded
// envelope whose round and result payloads are chase.RoundPreamble and
// chase.UnitOutcome themselves (data.Value encodes itself through
// MarshalBinary). The coordinator splits each round's sorted unit IDs
// into contiguous even chunks over the live workers, and its merge
// consumes buffers in unit-index order, keeping distributed runs
// bit-identical to serial ones.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// DefaultMaxFrame bounds a single frame's payload. Round preambles
// carry the truth journal and can grow with the dataset, but 64 MiB is
// far beyond any realistic round; anything larger is a corrupt or
// hostile length prefix and the connection is torn down.
const DefaultMaxFrame = 64 << 20

// Codec errors. Both are terminal for the connection: framing is
// stateful, so a bad frame loses synchronization.
var (
	ErrChecksum      = errors.New("remote: frame checksum mismatch")
	ErrFrameTooLarge = errors.New("remote: frame exceeds size limit")
)

// Frame layout: 4-byte big-endian payload length, 4-byte big-endian
// CRC32 (IEEE) of the payload, then the payload bytes. The checksum
// catches corruption that TCP's 16-bit checksum can miss on long
// drains, and — more practically — turns a desynchronized stream into
// an immediate error instead of a garbage envelope.
const frameHeader = 8

// WriteFrame writes one framed payload. A single Write call is used
// for header+payload so concurrent writers guarded by a mutex never
// interleave partial frames.
func WriteFrame(w io.Writer, payload []byte) error {
	buf := make([]byte, frameHeader+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	copy(buf[frameHeader:], payload)
	_, err := w.Write(buf)
	return err
}

// ReadFrame reads one framed payload, enforcing max as the payload
// size limit (DefaultMaxFrame when max <= 0). The length is validated
// before any payload allocation, so a corrupt prefix cannot trigger a
// huge allocation.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max <= 0 {
		max = DefaultMaxFrame
	}
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, n, max)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, ErrChecksum
	}
	return payload, nil
}
