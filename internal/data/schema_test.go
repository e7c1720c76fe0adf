package data

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func personSchema(t *testing.T) *Schema {
	t.Helper()
	return MustSchema("Person",
		Attribute{"LN", TString},
		Attribute{"FN", TString},
		Attribute{"age", TInt},
	)
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(""); err == nil {
		t.Error("empty name must fail")
	}
	if _, err := NewSchema("R", Attribute{"", TInt}); err == nil {
		t.Error("empty attribute name must fail")
	}
	if _, err := NewSchema("R", Attribute{"A", TInt}, Attribute{"A", TString}); err == nil {
		t.Error("duplicate attribute must fail")
	}
	s := personSchema(t)
	if s.Index("LN") != 0 || s.Index("age") != 2 || s.Index("nope") != -1 {
		t.Error("bad attribute index")
	}
	if ty, ok := s.TypeOf("age"); !ok || ty != TInt {
		t.Error("TypeOf failed")
	}
	if got := s.String(); got != "Person(LN:string, FN:string, age:int)" {
		t.Errorf("schema string: %s", got)
	}
}

func TestRelationCRUD(t *testing.T) {
	r := NewRelation(personSchema(t))
	t1 := r.Insert("p1", S("Jones"), S("Christine"), I(30))
	t2 := r.Insert("p2", S("Smith"))
	if r.Len() != 2 {
		t.Fatalf("len=%d", r.Len())
	}
	if t1.TID == t2.TID {
		t.Fatal("TIDs must be unique")
	}
	// Short insert pads with nulls.
	if v, _ := r.Value(t2.TID, "age"); !v.IsNull() {
		t.Error("padded value must be null")
	}
	if ok := r.SetValue(t2.TID, "age", I(41)); !ok {
		t.Fatal("SetValue failed")
	}
	if v, _ := r.Value(t2.TID, "age"); !v.Equal(I(41)) {
		t.Error("SetValue not visible")
	}
	if r.SetValue(999, "age", I(1)) {
		t.Error("SetValue on missing tid must fail")
	}
	if r.SetValue(t1.TID, "ghost", I(1)) {
		t.Error("SetValue on missing attr must fail")
	}
	if !r.Delete(t1.TID) || r.Delete(t1.TID) {
		t.Error("delete semantics wrong")
	}
	if r.Len() != 1 || r.Get(t1.TID) != nil {
		t.Error("delete did not remove tuple")
	}
}

func TestRelationCloneIsDeep(t *testing.T) {
	r := NewRelation(personSchema(t))
	tp := r.Insert("p1", S("Jones"), S("C"), I(1))
	c := r.Clone()
	c.SetValue(tp.TID, "LN", S("Changed"))
	if v, _ := r.Value(tp.TID, "LN"); !v.Equal(S("Jones")) {
		t.Error("clone mutated original")
	}
	// Fresh inserts in the clone must not collide with original TIDs.
	nt := c.Insert("p9", S("New"), S("N"), I(2))
	if r.Get(nt.TID) != nil {
		t.Error("clone insert leaked into original")
	}
}

func TestDatabase(t *testing.T) {
	db := NewDatabase()
	db.Add(NewRelation(personSchema(t)))
	db.Add(NewRelation(MustSchema("Store", Attribute{"name", TString})))
	if got := db.Names(); len(got) != 2 || got[0] != "Person" || got[1] != "Store" {
		t.Errorf("names: %v", got)
	}
	db.Rel("Person").Insert("p1", S("a"), S("b"), I(1))
	if db.TupleCount() != 1 {
		t.Error("tuple count")
	}
	c := db.Clone()
	c.Rel("Person").Insert("p2", S("x"), S("y"), I(2))
	if db.TupleCount() != 1 || c.TupleCount() != 2 {
		t.Error("database clone not deep")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := NewRelation(MustSchema("T",
		Attribute{"s", TString},
		Attribute{"n", TInt},
		Attribute{"f", TFloat},
		Attribute{"b", TBool},
		Attribute{"ts", TTime},
	))
	r.Insert("e1", S("hello, world"), I(-5), F(2.5), B(true), TS(1600000000))
	r.Insert("e2", S(`quoted "txt"`), Null(TInt), Null(TFloat), B(false), Null(TTime))
	var buf bytes.Buffer
	if err := WriteCSV(&buf, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "T")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("len=%d", got.Len())
	}
	for i, orig := range r.Tuples {
		back := got.Tuples[i]
		if back.EID != orig.EID {
			t.Errorf("row %d eid %q != %q", i, back.EID, orig.EID)
		}
		for j := range orig.Values {
			if !back.Values[j].Equal(orig.Values[j]) {
				t.Errorf("row %d col %d: %v != %v", i, j, back.Values[j], orig.Values[j])
			}
		}
	}
}

// TestReadCSVDir: every .csv file of a directory loads as the relation
// its name gives; other files are skipped, and a directory without a
// .csv file is an error.
func TestReadCSVDir(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"A", "B"} {
		r := NewRelation(MustSchema(name, Attribute{"x", TInt}))
		r.Insert(name+"1", I(1))
		r.Insert(name+"2", I(2))
		var buf bytes.Buffer
		if err := WriteCSV(&buf, r); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name+".csv"), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "rules.ree"), []byte("not a relation\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	db, err := ReadCSVDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Relations) != 2 || db.Rel("A").Len() != 2 || db.Rel("B").Len() != 2 {
		t.Fatalf("loaded %d relations, %d tuples; want A and B with 2 tuples each", len(db.Relations), db.TupleCount())
	}
	if _, err := ReadCSVDir(t.TempDir()); err == nil {
		t.Error("a directory without .csv files must fail")
	}
}

func TestCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "T"); err == nil {
		t.Error("empty csv must fail")
	}
	if _, err := ReadCSV(strings.NewReader("a,b\n"), "T"); err == nil {
		t.Error("missing types row must fail")
	}
	if _, err := ReadCSV(strings.NewReader("x,b\nstring,int\n"), "T"); err == nil {
		t.Error("missing eid column must fail")
	}
	if _, err := ReadCSV(strings.NewReader("eid,b\nstring,widget\n"), "T"); err == nil {
		t.Error("unknown type must fail")
	}
	if _, err := ReadCSV(strings.NewReader("eid,b\nstring,int\ne1,notanint\n"), "T"); err == nil {
		t.Error("bad cell must fail")
	}
}
