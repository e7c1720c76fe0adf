package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{0, 1, 7, 64, 1024, 1 << 16, 1<<20 + 13}
	for _, n := range sizes {
		payload := make([]byte, n)
		rng.Read(payload)
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", n, err)
		}
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("ReadFrame(%d bytes): %v", n, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("round-trip of %d bytes: payload mismatch", n)
		}
	}
}

func TestFrameStream(t *testing.T) {
	// Frames are stateful: several frames on one stream must come back
	// in order with boundaries intact.
	var buf bytes.Buffer
	frames := [][]byte{[]byte("alpha"), {}, []byte("beta"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
	if _, err := ReadFrame(&buf, 0); !errors.Is(err, io.EOF) {
		t.Fatalf("after last frame: want io.EOF, got %v", err)
	}
}

func TestTruncatedFrameRejected(t *testing.T) {
	payload := []byte("the quick brown fox")
	var full bytes.Buffer
	if err := WriteFrame(&full, payload); err != nil {
		t.Fatal(err)
	}
	raw := full.Bytes()
	// Every possible truncation point short of the full frame must fail,
	// never hang or return a partial payload.
	for cut := 0; cut < len(raw); cut++ {
		_, err := ReadFrame(bytes.NewReader(raw[:cut]), 0)
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes: want error, got payload", cut, len(raw))
		}
	}
}

func TestChecksumMismatchRejected(t *testing.T) {
	payload := []byte("payload under test")
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one bit in each payload byte position in turn.
	for i := frameHeader; i < len(raw); i++ {
		corrupt := append([]byte(nil), raw...)
		corrupt[i] ^= 0x01
		_, err := ReadFrame(bytes.NewReader(corrupt), 0)
		if !errors.Is(err, ErrChecksum) {
			t.Fatalf("corrupt byte %d: want ErrChecksum, got %v", i, err)
		}
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	payload := bytes.Repeat([]byte{'x'}, 100)
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 99); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("100-byte payload with max 99: want ErrFrameTooLarge, got %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(buf.Bytes()), 100); err != nil {
		t.Fatalf("100-byte payload with max 100: %v", err)
	}

	// A hostile length prefix must be rejected before any allocation —
	// the header claims 3 GiB with no payload behind it.
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], 3<<30)
	if _, err := ReadFrame(bytes.NewReader(hdr[:]), 0); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("hostile 3GiB prefix: want ErrFrameTooLarge, got %v", err)
	}
}

func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("hello"))
	f.Add(bytes.Repeat([]byte{0xFF}, 1000))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, payload); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatal("payload mismatch")
		}
	})
}

func FuzzReadFrameGarbage(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4})
	f.Add(bytes.Repeat([]byte{0x7F}, 64))
	// Arbitrary bytes must never panic or over-allocate; they either
	// parse as a valid frame or return an error.
	f.Fuzz(func(t *testing.T, raw []byte) {
		ReadFrame(bytes.NewReader(raw), 1<<20)
	})
}
