// Package data defines the relational substrate underlying Rock: typed
// values with nulls, schemas, tuples carrying entity identifiers (EIDs),
// relations, databases, and temporal relations that attach per-cell
// timestamps and partial currency orders (paper §2, "Preliminaries").
package data

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type enumerates the attribute types supported by Rock schemas.
type Type int

const (
	// TString is a textual attribute.
	TString Type = iota
	// TInt is a 64-bit integer attribute.
	TInt
	// TFloat is a 64-bit floating point attribute.
	TFloat
	// TBool is a Boolean attribute.
	TBool
	// TTime is a timestamp attribute (stored as Unix seconds).
	TTime
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TString:
		return "string"
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TBool:
		return "bool"
	case TTime:
		return "time"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a single attribute value. The zero Value is null.
// Values are small and passed by value throughout.
//
// Every tuple cell is one Value, so its size is the data's: 32 bytes. The
// string payload comes first, then one word holding the payload of every
// other kind (n), then the kind and the flags in one byte each.
type Value struct {
	s     string
	n     uint64 // an int or time as int64 bits, a float's IEEE-754 bits, 1 for true
	kind  uint8  // a Type
	null  bool
	valid bool // distinguishes the zero Value (null) from constructed ones
}

// Null returns a null value of the given type.
func Null(t Type) Value { return Value{kind: uint8(t), null: true, valid: true} }

// S constructs a string value.
func S(v string) Value { return Value{kind: uint8(TString), s: v, valid: true} }

// I constructs an integer value.
func I(v int64) Value { return Value{kind: uint8(TInt), n: uint64(v), valid: true} }

// F constructs a float value.
func F(v float64) Value { return Value{kind: uint8(TFloat), n: math.Float64bits(v), valid: true} }

// B constructs a Boolean value.
func B(v bool) Value {
	out := Value{kind: uint8(TBool), valid: true}
	if v {
		out.n = 1
	}
	return out
}

// TS constructs a timestamp value from Unix seconds.
func TS(unix int64) Value { return Value{kind: uint8(TTime), n: uint64(unix), valid: true} }

// Time constructs a timestamp value from a time.Time.
func Time(t time.Time) Value { return TS(t.Unix()) }

// Kind reports the type of the value.
func (v Value) Kind() Type { return Type(v.kind) }

// IsNull reports whether the value is null. The zero Value is null.
func (v Value) IsNull() bool { return v.null || !v.valid }

// Str returns the string payload; only meaningful for TString values.
func (v Value) Str() string { return v.s }

// Int returns the integer payload of TInt and TTime values, 0 for any
// other kind.
func (v Value) Int() int64 {
	if k := v.Kind(); k == TInt || k == TTime {
		return int64(v.n)
	}
	return 0
}

// Float returns the numeric payload as float64 for TInt, TFloat and TTime.
func (v Value) Float() float64 {
	switch v.Kind() {
	case TInt, TTime:
		return float64(int64(v.n))
	case TFloat:
		return math.Float64frombits(v.n)
	default:
		return 0
	}
}

// Bool returns the Boolean payload of TBool values, false for any other
// kind.
func (v Value) Bool() bool { return v.Kind() == TBool && v.n != 0 }

// Unix returns the timestamp payload in Unix seconds for TTime values.
func (v Value) Unix() int64 { return v.Int() }

// Equal reports deep equality between two values. Nulls are equal only to
// nulls of any type (SQL users beware: Rock treats null = null as true when
// comparing fix candidates, and the chase never equates a null with a
// non-null).
func (v Value) Equal(w Value) bool {
	if v.IsNull() || w.IsNull() {
		return v.IsNull() && w.IsNull()
	}
	if v.kind != w.kind {
		// Numeric cross-type comparison.
		if isNumeric(v.Kind()) && isNumeric(w.Kind()) {
			return v.Float() == w.Float()
		}
		return false
	}
	switch v.Kind() {
	case TString:
		return v.s == w.s
	case TInt, TTime, TBool:
		return v.n == w.n
	case TFloat:
		return v.Float() == w.Float()
	}
	return false
}

// Compare orders two non-null values: -1 if v<w, 0 if equal, +1 if v>w.
// Null values sort before everything; two nulls compare equal.
func (v Value) Compare(w Value) int {
	switch {
	case v.IsNull() && w.IsNull():
		return 0
	case v.IsNull():
		return -1
	case w.IsNull():
		return 1
	}
	if isNumeric(v.Kind()) && isNumeric(w.Kind()) {
		a, b := v.Float(), w.Float()
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		default:
			return 0
		}
	}
	if v.Kind() == TString && w.Kind() == TString {
		return strings.Compare(v.s, w.s)
	}
	if v.Kind() == TBool && w.Kind() == TBool {
		switch {
		case v.n == w.n:
			return 0
		case w.Bool():
			return -1
		default:
			return 1
		}
	}
	// Incomparable kinds order by kind for determinism.
	switch {
	case v.kind < w.kind:
		return -1
	case v.kind > w.kind:
		return 1
	default:
		return 0
	}
}

func isNumeric(t Type) bool { return t == TInt || t == TFloat || t == TTime }

// String renders the value for display and CSV round-tripping.
func (v Value) String() string {
	if v.IsNull() {
		return "null"
	}
	switch v.Kind() {
	case TString:
		return v.s
	case TInt:
		return strconv.FormatInt(v.Int(), 10)
	case TFloat:
		return strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case TBool:
		return strconv.FormatBool(v.Bool())
	case TTime:
		return time.Unix(v.Int(), 0).UTC().Format("2006-01-02T15:04:05Z")
	}
	return ""
}

// Parse converts text into a value of type t. The literal "null" (and the
// empty string for non-string types) parses as null.
func Parse(t Type, text string) (Value, error) {
	if text == "null" || (text == "" && t != TString) {
		return Null(t), nil
	}
	switch t {
	case TString:
		return S(text), nil
	case TInt:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse int %q: %w", text, err)
		}
		return I(n), nil
	case TFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse float %q: %w", text, err)
		}
		return F(f), nil
	case TBool:
		b, err := strconv.ParseBool(text)
		if err != nil {
			return Value{}, fmt.Errorf("parse bool %q: %w", text, err)
		}
		return B(b), nil
	case TTime:
		if ts, err := time.Parse("2006-01-02T15:04:05Z", text); err == nil {
			return TS(ts.Unix()), nil
		}
		if ts, err := time.Parse("2006-01-02", text); err == nil {
			return TS(ts.Unix()), nil
		}
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("parse time %q: %w", text, err)
		}
		return TS(n), nil
	}
	return Value{}, fmt.Errorf("unknown type %v", t)
}

// Key returns a canonical string for a value. Keys agree with Equal: all
// nulls share one key, and the numeric kinds (int, float, time) collapse
// onto one canonical encoding of their float64 value, as Equal and
// Compare treat I(5), F(5) and TS(5) as the same value. Non-numeric kinds
// stay kind-prefixed so values of different kinds never collide. Key is
// for text and order (snapshots, signatures, sorted ties); hash maps key
// on Canon, the same identity without an allocation.
func (v Value) Key() string {
	if v.IsNull() {
		return "\x00null"
	}
	if isNumeric(v.Kind()) {
		return "N\x1f" + strconv.FormatFloat(v.Float(), 'g', -1, 64)
	}
	return string(rune('0'+int(v.kind))) + "\x1f" + v.String()
}

// Canon is a value's identity as Key draws it — two Canons are equal
// exactly when the Keys are — in a comparable form built without
// allocating.
type Canon struct {
	s    string
	n    uint64
	kind uint8 // a Type; 0xff for every null
}

// Canon returns the value's canonical form: the numeric kinds collapse
// onto the bits of their float64 value, every NaN onto one (Key renders
// them all "NaN", and keeps -0 apart from +0).
func (v Value) Canon() Canon {
	switch {
	case v.IsNull():
		return Canon{kind: 0xff}
	case isNumeric(v.Kind()):
		f := v.Float()
		if f != f {
			f = math.NaN()
		}
		return Canon{kind: uint8(TFloat), n: math.Float64bits(f)}
	}
	return Canon{kind: v.kind, s: v.s, n: v.n}
}

// Binary form of a Value: one kind byte, one flags byte (bit 0 null,
// bit 1 valid), then the payload of a valid non-null value — the string
// bytes, a varint for int and time, the IEEE-754 bits for float, one
// byte for bool. The zero Value encodes as two zero bytes.
const (
	flagNull  = 1 << 0
	flagValid = 1 << 1
)

// MarshalBinary writes the value's full state, so UnmarshalBinary gives
// back a value with the same Kind, IsNull and Key — a typed null stays
// typed and the zero Value stays the zero Value.
func (v Value) MarshalBinary() ([]byte, error) {
	var flags byte
	if v.null {
		flags |= flagNull
	}
	if v.valid {
		flags |= flagValid
	}
	b := []byte{v.kind, flags}
	if v.null || !v.valid {
		return b, nil
	}
	switch v.Kind() {
	case TString:
		b = append(b, v.s...)
	case TInt, TTime:
		b = binary.AppendVarint(b, v.Int())
	case TFloat:
		b = binary.BigEndian.AppendUint64(b, v.n)
	case TBool:
		b = append(b, byte(v.n))
	}
	return b, nil
}

// UnmarshalBinary decodes MarshalBinary's form. The bytes may come from
// another process, so anything malformed — a short buffer, an unknown
// kind or flag, a payload of the wrong size — is an error.
func (v *Value) UnmarshalBinary(b []byte) error {
	if len(b) < 2 {
		return fmt.Errorf("data: value: %d bytes, want at least 2", len(b))
	}
	kind, flags, rest := Type(b[0]), b[1], b[2:]
	if kind > TTime {
		return fmt.Errorf("data: value: unknown kind %d", b[0])
	}
	if flags&^(flagNull|flagValid) != 0 {
		return fmt.Errorf("data: value: unknown flags %#x", flags)
	}
	out := Value{kind: b[0], null: flags&flagNull != 0, valid: flags&flagValid != 0}
	bad := func() error { return fmt.Errorf("data: value: bad %v payload of %d bytes", kind, len(rest)) }
	switch {
	case out.null || !out.valid:
		if len(rest) != 0 {
			return bad()
		}
	case kind == TString:
		out.s = string(rest)
	case kind == TInt || kind == TTime:
		i, n := binary.Varint(rest)
		if n <= 0 || n != len(rest) {
			return bad()
		}
		out.n = uint64(i)
	case kind == TFloat:
		if len(rest) != 8 {
			return bad()
		}
		out.n = binary.BigEndian.Uint64(rest)
	case kind == TBool:
		if len(rest) != 1 || rest[0] > 1 {
			return bad()
		}
		out.n = uint64(rest[0])
	}
	*v = out
	return nil
}
