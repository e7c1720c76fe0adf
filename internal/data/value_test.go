package data

import (
	"math"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestValueNullness(t *testing.T) {
	var zero Value
	if !zero.IsNull() {
		t.Fatal("zero Value must be null")
	}
	if !Null(TInt).IsNull() {
		t.Fatal("Null(TInt) must be null")
	}
	if S("x").IsNull() {
		t.Fatal("S must not be null")
	}
	if S("").IsNull() {
		t.Fatal("empty string is a value, not null")
	}
}

func TestValueEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{S("a"), S("a"), true},
		{S("a"), S("b"), false},
		{I(3), I(3), true},
		{I(3), F(3), true}, // numeric cross-type
		{I(3), F(3.5), false},
		{B(true), B(true), true},
		{B(true), B(false), false},
		{Null(TString), Null(TInt), true}, // null equals null
		{Null(TString), S(""), false},
		{TS(100), TS(100), true},
		{TS(100), I(100), true},
		{S("3"), I(3), false}, // no string/number coercion
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("case %d: %v == %v: got %v want %v", i, c.a, c.b, got, c.want)
		}
		if got := c.b.Equal(c.a); got != c.want {
			t.Errorf("case %d (sym): %v == %v: got %v want %v", i, c.b, c.a, got, c.want)
		}
	}
}

func TestValueCompare(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{I(1), I(2), -1},
		{I(2), I(1), 1},
		{F(1.5), I(2), -1},
		{S("a"), S("b"), -1},
		{S("b"), S("a"), 1},
		{S("a"), S("a"), 0},
		{Null(TInt), I(0), -1},
		{I(0), Null(TInt), 1},
		{Null(TInt), Null(TString), 0},
		{B(false), B(true), -1},
		{TS(5), TS(9), -1},
	}
	for i, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("case %d: cmp(%v,%v)=%d want %d", i, c.a, c.b, got, c.want)
		}
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return I(a).Compare(I(b)) == -I(b).Compare(I(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	g := func(a, b string) bool {
		return S(a).Compare(S(b)) == -S(b).Compare(S(a))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestParseRoundTrip(t *testing.T) {
	vals := []Value{S("hello world"), I(-42), F(3.25), B(true), TS(1700000000), Null(TInt), Null(TString)}
	types := []Type{TString, TInt, TFloat, TBool, TTime, TInt, TString}
	for i, v := range vals {
		if v.IsNull() && types[i] == TString {
			// "null" string round-trips as the literal string; skip.
			continue
		}
		got, err := Parse(types[i], v.String())
		if err != nil {
			t.Fatalf("parse %v: %v", v, err)
		}
		if !got.Equal(v) {
			t.Errorf("round trip %v -> %v", v, got)
		}
	}
}

func TestParseRoundTripQuick(t *testing.T) {
	f := func(n int64) bool {
		v, err := Parse(TInt, I(n).String())
		return err == nil && v.Equal(I(n))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseDate(t *testing.T) {
	v, err := Parse(TTime, "2021-11-11")
	if err != nil {
		t.Fatal(err)
	}
	if v.IsNull() || v.Kind() != TTime {
		t.Fatalf("bad date value: %v", v)
	}
	v2 := MustParse(TTime, "2023-08-12")
	if v.Compare(v2) != -1 {
		t.Error("2021-11-11 should be before 2023-08-12")
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(TInt, "abc"); err == nil {
		t.Error("expected int parse error")
	}
	if _, err := Parse(TFloat, "xx"); err == nil {
		t.Error("expected float parse error")
	}
	if _, err := Parse(TBool, "yes?no"); err == nil {
		t.Error("expected bool parse error")
	}
	if _, err := Parse(TTime, "not-a-date"); err == nil {
		t.Error("expected time parse error")
	}
}

func TestValueKeyDistinct(t *testing.T) {
	// Values of different kinds must never share a key.
	pairs := [][2]Value{
		{S("3"), I(3)},
		{S("true"), B(true)},
		{I(0), B(false)},
	}
	for _, p := range pairs {
		if p[0].Key() == p[1].Key() {
			t.Errorf("key collision between %v and %v", p[0], p[1])
		}
	}
	if S("x").Key() != S("x").Key() {
		t.Error("same value must have same key")
	}
	if Null(TInt).Key() != Null(TString).Key() {
		t.Error("nulls share one key")
	}
}

func TestValueAccessors(t *testing.T) {
	if S("abc").Str() != "abc" {
		t.Error("Str")
	}
	if I(42).Int() != 42 {
		t.Error("Int")
	}
	if !B(true).Bool() {
		t.Error("Bool")
	}
	if TS(99).Unix() != 99 {
		t.Error("Unix")
	}
	when := Time(time.Unix(12345, 0))
	if when.Kind() != TTime || when.Unix() != 12345 {
		t.Error("Time constructor")
	}
	// Float accessor across kinds.
	if I(3).Float() != 3 || F(2.5).Float() != 2.5 || TS(7).Float() != 7 || S("x").Float() != 0 {
		t.Error("Float")
	}
	if B(true).String() != "true" {
		t.Error("bool String")
	}
}

func TestValueKeyAgreesWithEqual(t *testing.T) {
	// Key is the canonical hash key of the executor's join indexes: two
	// values must share a key exactly when Equal holds, or hash joins and
	// probe joins disagree about which tuples match. Numerics equal across
	// kinds (I(5), F(5), TS(5)) are the regression case.
	if I(5).Key() != F(5).Key() {
		t.Error("I(5) and F(5) are Equal but keyed apart")
	}
	if I(5).Key() != TS(5).Key() {
		t.Error("I(5) and TS(5) are Equal but keyed apart")
	}
	if F(2.5).Key() == I(2).Key() {
		t.Error("F(2.5) and I(2) differ but share a key")
	}
	sample := []Value{
		I(0), I(5), I(-3), F(0), F(5), F(5.5), F(-3), TS(5), TS(0),
		S("5"), S(""), S("abc"), B(true), B(false),
		Null(TInt), Null(TFloat), Null(TString), Null(TBool), Null(TTime),
	}
	for _, a := range sample {
		for _, b := range sample {
			eq := a.Equal(b)
			keq := a.Key() == b.Key()
			if eq != keq {
				t.Errorf("%v vs %v: Equal=%v but key equality=%v (keys %q, %q)",
					a, b, eq, keq, a.Key(), b.Key())
			}
		}
	}
}

func TestValueBinaryRoundTrip(t *testing.T) {
	vals := []Value{
		{},                               // the zero Value
		S(""), S("hello"), S("\x00null"), // the null sentinel as a real string
		I(0), I(-42), I(1 << 60), I(math.MaxInt64), I(math.MinInt64),
		F(0), F(-3.25), F(1e300), F(math.NaN()), F(math.Inf(1)), F(math.Inf(-1)),
		B(true), B(false),
		TS(0), TS(1722470400), TS(-86400),
		Null(TString), Null(TInt), Null(TFloat), Null(TBool), Null(TTime),
	}
	for _, v := range vals {
		b, err := v.MarshalBinary()
		if err != nil {
			t.Fatalf("value %v: MarshalBinary: %v", v, err)
		}
		var got Value
		if err := got.UnmarshalBinary(b); err != nil {
			t.Fatalf("value %v: UnmarshalBinary(%x): %v", v, b, err)
		}
		nan := math.IsNaN(v.Float()) && math.IsNaN(got.Float())
		if !got.Equal(v) && !nan {
			t.Errorf("value %v: round-trip gave %v", v, got)
		}
		if got.Key() != v.Key() {
			t.Errorf("value %v: Key %q round-tripped to %q", v, v.Key(), got.Key())
		}
		if got.Kind() != v.Kind() {
			t.Errorf("value %v: kind %v round-tripped to %v", v, v.Kind(), got.Kind())
		}
		if got.IsNull() != v.IsNull() {
			t.Errorf("value %v: IsNull %v round-tripped to %v", v, v.IsNull(), got.IsNull())
		}
	}
	var zero Value
	if err := zero.UnmarshalBinary([]byte{0, 0}); err != nil || zero != (Value{}) {
		t.Errorf("two zero bytes decode to %#v (%v), want the zero Value", zero, err)
	}
}

func TestValueBinaryMalformed(t *testing.T) {
	bad := map[string][]byte{
		"empty":              nil,
		"short":              {byte(TInt)},
		"unknown kind":       {byte(TTime) + 1, flagValid},
		"unknown flag":       {byte(TInt), 1 << 2},
		"null with payload":  {byte(TString), flagValid | flagNull, 'x'},
		"zero with payload":  {0, 0, 'x'},
		"int missing":        {byte(TInt), flagValid},
		"int trailing":       {byte(TInt), flagValid, 2, 0},
		"int overflow":       {byte(TInt), flagValid, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"time truncated":     {byte(TTime), flagValid, 0x80},
		"float short":        {byte(TFloat), flagValid, 1, 2, 3},
		"float long":         {byte(TFloat), flagValid, 1, 2, 3, 4, 5, 6, 7, 8, 9},
		"bool missing":       {byte(TBool), flagValid},
		"bool out of range":  {byte(TBool), flagValid, 2},
		"bool trailing byte": {byte(TBool), flagValid, 1, 0},
	}
	for name, b := range bad {
		v := S("untouched")
		if err := v.UnmarshalBinary(b); err == nil {
			t.Errorf("%s (%x): decoded to %#v, want an error", name, b, v)
		} else if !v.Equal(S("untouched")) {
			t.Errorf("%s: failed decode overwrote the value with %#v", name, v)
		}
	}
}

// TestValueSize pins the layout of Value: one string, one payload word,
// three bytes. Every tuple cell is one Value.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n != 32 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want 32", n)
	}
}

// TestCanonAgreesWithKey checks Canon against Key over every pair of a
// value set that covers the collisions Key makes (I(3), F(3), TS(3);
// every null; every NaN) and the ones it does not (-0 and +0, kinds that
// print alike).
func TestCanonAgreesWithKey(t *testing.T) {
	vals := []Value{
		{}, Null(TString), Null(TInt), Null(TTime),
		I(3), F(3), TS(3), I(-3), F(3.5), F(math.Copysign(0, -1)), F(0), I(0), TS(0),
		F(math.NaN()), F(-math.NaN()), F(math.Inf(1)), F(math.Inf(-1)),
		I(1 << 60), F(1 << 60), I(1<<60 + 1),
		S(""), S("3"), S("true"), S("null"), B(true), B(false),
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := a.Canon() == b.Canon(), a.Key() == b.Key(); got != want {
				t.Errorf("%#v vs %#v: equal Canons %v, equal Keys %v", a, b, got, want)
			}
		}
	}
}
