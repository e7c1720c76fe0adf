package data

import (
	"fmt"
	"sort"
	"strings"
)

// Attribute is a named, typed column of a relation schema.
type Attribute struct {
	Name string
	Type Type
}

// Schema is a relation schema R(A1:τ1, ..., Ak:τk). Attribute names are
// unique within a schema. Following the paper we assume every tuple also
// carries an EID attribute identifying the entity it represents; the EID is
// stored on the tuple, not as a schema attribute.
type Schema struct {
	Name  string
	Attrs []Attribute
	index map[string]int
}

// NewSchema builds a schema, validating attribute-name uniqueness.
func NewSchema(name string, attrs ...Attribute) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("schema: empty relation name")
	}
	s := &Schema{Name: name, Attrs: attrs, index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a.Name == "" {
			return nil, fmt.Errorf("schema %s: attribute %d has empty name", name, i)
		}
		if _, dup := s.index[a.Name]; dup {
			return nil, fmt.Errorf("schema %s: duplicate attribute %q", name, a.Name)
		}
		s.index[a.Name] = i
	}
	return s, nil
}

// Index returns the position of the named attribute, or -1.
func (s *Schema) Index(attr string) int {
	if i, ok := s.index[attr]; ok {
		return i
	}
	return -1
}

// Has reports whether the schema contains the named attribute.
func (s *Schema) Has(attr string) bool { return s.Index(attr) >= 0 }

// TypeOf returns the type of the named attribute; ok is false if absent.
func (s *Schema) TypeOf(attr string) (Type, bool) {
	i := s.Index(attr)
	if i < 0 {
		return TString, false
	}
	return s.Attrs[i].Type, true
}

// AttrNames returns the attribute names in schema order.
func (s *Schema) AttrNames() []string {
	names := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		names[i] = a.Name
	}
	return names
}

// String renders the schema as R(A:τ, ...).
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, a := range s.Attrs {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%s", a.Name, a.Type)
	}
	b.WriteByte(')')
	return b.String()
}

// Tuple is a row of a relation. TID is unique within its relation and stable
// across updates; EID identifies the real-world entity the tuple represents
// (paper §2 follows [21] in assuming an EID attribute).
type Tuple struct {
	TID    int
	EID    string
	Values []Value
}

// Clone deep-copies the tuple.
func (t *Tuple) Clone() *Tuple {
	vs := make([]Value, len(t.Values))
	copy(vs, t.Values)
	return &Tuple{TID: t.TID, EID: t.EID, Values: vs}
}

// Relation is an instance D of a schema R: an ordered collection of tuples
// with TID-based lookup.
type Relation struct {
	Schema *Schema
	Tuples []*Tuple
	// byTID[tid] is the live tuple with that TID, nil once deleted: TIDs
	// are dense from 0, so a slice serves where a map would cost five
	// times the memory.
	byTID  []*Tuple
	nextID int
	// version counts the mutations Insert, SetValue and Delete made.
	version uint64
}

// NewRelation creates an empty relation of the given schema.
func NewRelation(s *Schema) *Relation {
	return &Relation{Schema: s}
}

// Insert appends a tuple with a fresh TID and returns it. The value slice
// must match the schema arity; a short slice is padded with nulls.
func (r *Relation) Insert(eid string, values ...Value) *Tuple {
	vs := make([]Value, len(r.Schema.Attrs))
	for i := range vs {
		if i < len(values) {
			vs[i] = values[i]
		} else {
			vs[i] = Null(r.Schema.Attrs[i].Type)
		}
	}
	t := &Tuple{TID: r.nextID, EID: eid, Values: vs}
	r.nextID++
	r.version++
	r.Tuples = append(r.Tuples, t)
	r.byTID = append(r.byTID, t)
	return t
}

// Get returns the tuple with the given TID, or nil.
func (r *Relation) Get(tid int) *Tuple {
	if tid < 0 || tid >= len(r.byTID) {
		return nil
	}
	return r.byTID[tid]
}

// NextTID returns the TID the next Insert will assign — the exclusive
// upper bound of every TID ever assigned. Dense TID-indexed structures
// (crystal columns) use it to tell full coverage from stale builds.
func (r *Relation) NextTID() int { return r.nextID }

// Version counts the mutations Insert, SetValue and Delete have made to
// the relation. Copies derived from its tuples (crystal's columns) stamp
// themselves with it and count as current only while it has not moved; a
// write that bypasses these methods (t.Values[i] = v) is invisible to it.
func (r *Relation) Version() uint64 { return r.version }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Value returns t[attr] for the tuple with the given TID.
func (r *Relation) Value(tid int, attr string) (Value, bool) {
	t := r.Get(tid)
	if t == nil {
		return Value{}, false
	}
	i := r.Schema.Index(attr)
	if i < 0 {
		return Value{}, false
	}
	return t.Values[i], true
}

// SetValue updates t[attr] in place; used by error correction when a fix is
// applied back to the data.
func (r *Relation) SetValue(tid int, attr string, v Value) bool {
	t := r.Get(tid)
	if t == nil {
		return false
	}
	i := r.Schema.Index(attr)
	if i < 0 {
		return false
	}
	t.Values[i] = v
	r.version++
	return true
}

// Delete removes the tuple with the given TID; it reports whether the tuple
// existed. Used by the incremental modes to apply ΔD deletions.
func (r *Relation) Delete(tid int) bool {
	if r.Get(tid) == nil {
		return false
	}
	r.byTID[tid] = nil
	r.version++
	for i, u := range r.Tuples {
		if u.TID == tid {
			r.Tuples = append(r.Tuples[:i], r.Tuples[i+1:]...)
			break
		}
	}
	return true
}

// Clone deep-copies the relation (tuples included).
func (r *Relation) Clone() *Relation {
	c := NewRelation(r.Schema)
	c.nextID = r.nextID
	c.Tuples = make([]*Tuple, 0, len(r.Tuples))
	c.byTID = make([]*Tuple, r.nextID)
	for _, t := range r.Tuples {
		ct := t.Clone()
		c.Tuples = append(c.Tuples, ct)
		c.byTID[ct.TID] = ct
	}
	return c
}

// Database is an instance of a database schema: named relations. Attribute
// names need not be globally unique; the qualified form "Rel.Attr" is used
// wherever cross-relation disambiguation matters.
type Database struct {
	Relations map[string]*Relation
}

// NewDatabase creates an empty database.
func NewDatabase() *Database { return &Database{Relations: make(map[string]*Relation)} }

// Add registers a relation; it replaces any previous relation of that name.
func (d *Database) Add(r *Relation) { d.Relations[r.Schema.Name] = r }

// Rel returns the named relation, or nil.
func (d *Database) Rel(name string) *Relation { return d.Relations[name] }

// Names returns the relation names in sorted order for deterministic
// iteration.
func (d *Database) Names() []string {
	names := make([]string, 0, len(d.Relations))
	for n := range d.Relations {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Clone deep-copies the database.
func (d *Database) Clone() *Database {
	c := NewDatabase()
	for _, r := range d.Relations {
		c.Add(r.Clone())
	}
	return c
}

// Versions returns every relation's Version by name: the counts a batch
// of writes starts from.
func (d *Database) Versions() map[string]uint64 {
	out := make(map[string]uint64, len(d.Relations))
	for name, r := range d.Relations {
		out[name] = r.version
	}
	return out
}

// TupleCount returns the total number of tuples across relations.
func (d *Database) TupleCount() int {
	n := 0
	for _, r := range d.Relations {
		n += r.Len()
	}
	return n
}
