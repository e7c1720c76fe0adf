package remote

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"github.com/rockclean/rock/internal/chase"
)

// Message types. Every frame payload is one gob-encoded envelope.
type msgType string

const (
	mtHello     msgType = "hello"     // worker -> coordinator: fingerprint handshake
	mtHelloAck  msgType = "hello_ack" // coordinator -> worker: assigned node name
	mtRound     msgType = "round"     // coordinator -> worker: round preamble
	mtRoundAck  msgType = "round_ack" // worker -> coordinator: derived unit count or error
	mtAssign    msgType = "assign"    // coordinator -> worker: unit indices to execute
	mtResult    msgType = "result"    // worker -> coordinator: one unit's deduction buffer
	mtHeartbeat msgType = "hb"        // worker -> coordinator: liveness
)

// envelope is the single wire message shape; exactly one payload
// pointer is set according to Type (heartbeats carry none). The round
// and result payloads are the engine's own types, so the wire cannot
// drift from what the engine produces.
type envelope struct {
	Type   msgType
	Hello  *helloMsg
	Ack    *helloAckMsg
	Round  *chase.RoundPreamble
	RAck   *roundAckMsg
	Assign *assignMsg
	Result *resultMsg
}

type helloMsg struct {
	// Fingerprint digests the worker's replica inputs (relation names and
	// tuple counts, rule IDs, partition count); the coordinator rejects a
	// worker whose fingerprint differs from its own, since a diverged
	// replica would fail the first round barrier anyway.
	Fingerprint string
	Name        string
}

type helloAckMsg struct {
	Name string
	Err  string
}

type roundAckMsg struct {
	Round int
	Units int
	Err   string
}

type assignMsg struct {
	Round int
	Units []int
}

type resultMsg struct {
	// Round, with the outcome's unit, names the request a result answers,
	// so the coordinator drops one no request awaits (an earlier round's,
	// or a duplicate).
	Round   int
	Err     string
	Outcome chase.UnitOutcome
}

// encodeMsg gob-encodes one envelope with a fresh encoder, so every
// frame carries its own type descriptions and decodes on its own.
func encodeMsg(env envelope) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		return nil, fmt.Errorf("remote: encode %s: %w", env.Type, err)
	}
	return buf.Bytes(), nil
}

// writeMsg frames and writes one envelope.
func writeMsg(w io.Writer, env envelope) error {
	payload, err := encodeMsg(env)
	if err != nil {
		return err
	}
	return WriteFrame(w, payload)
}

// readMsg reads and decodes one envelope.
func readMsg(r io.Reader, max int) (envelope, error) {
	payload, err := ReadFrame(r, max)
	if err != nil {
		return envelope{}, err
	}
	var env envelope
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&env); err != nil {
		return envelope{}, fmt.Errorf("remote: decode frame: %w", err)
	}
	return env, nil
}
