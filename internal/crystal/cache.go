package crystal

import (
	"sync"
	"sync/atomic"

	"github.com/rockclean/rock/internal/data"
)

// ColumnStore is the column-oriented copy of one relation (the row-oriented
// copy is the relation itself): one column per attribute, each encoded on
// first use and served only while it is current. A column is stamped with
// the relation's mutation count (data.Relation.Version) when it is built
// or refreshed, and a read at any other count rebuilds it, so a write the
// store was never told about costs a rebuild, never a stale read. Builds of
// different attributes run concurrently; readers of one attribute wait for
// a single build.
type ColumnStore struct {
	Rel string
	// Columns holds the columns BuildColumnStore encoded. A Cache's stores
	// fill lazily and leave it nil; Column serves the current column either
	// way.
	Columns map[string]*Column

	rel     *data.Relation
	entries map[string]*entry // one per schema attribute, fixed at creation

	// tmu guards the indexes over the relation's tuples rather than its
	// values (tuples.go): the EID index and the TID % b blocks by b. They
	// are stamped with the relation's shape, not its mutation count, as a
	// value write moves neither.
	tmu   sync.Mutex
	eids  *eidIndex
	parts map[int]*partition
}

// entry is one attribute's slot: the current column behind an atomic
// pointer, so a read takes no lock, and a mutex that serialises builds and
// refreshes.
type entry struct {
	mu  sync.Mutex
	cur atomic.Pointer[stamped]
}

// stamped is a column with the mutation count of its relation it reflects.
type stamped struct {
	col   *Column
	stamp uint64
}

func newColumnStore(rel *data.Relation) *ColumnStore {
	cs := &ColumnStore{Rel: rel.Schema.Name, rel: rel, entries: make(map[string]*entry, len(rel.Schema.Attrs))}
	for _, a := range rel.Schema.Attrs {
		cs.entries[a.Name] = &entry{}
	}
	return cs
}

// BuildColumnStore encodes every attribute of the relation. The error is
// always nil: every attribute it encodes comes from the schema.
func BuildColumnStore(rel *data.Relation) (*ColumnStore, error) {
	cs := newColumnStore(rel)
	cs.Columns = make(map[string]*Column, len(cs.entries))
	for attr := range cs.entries {
		cs.Columns[attr], _ = cs.Column(attr)
	}
	return cs, nil
}

// Column returns the column of attr current at the relation's mutation
// count, encoding it first when there is none or it is stale; built
// reports that this call encoded it. An unknown attribute yields nil.
func (cs *ColumnStore) Column(attr string) (col *Column, built bool) {
	en := cs.entries[attr]
	if en == nil {
		return nil, false
	}
	if cur := en.cur.Load(); cur != nil && cur.stamp == cs.rel.Version() {
		return cur.col, false
	}
	en.mu.Lock()
	defer en.mu.Unlock()
	now := cs.rel.Version()
	if cur := en.cur.Load(); cur != nil && cur.stamp == now {
		return cur.col, false // built while this reader waited
	}
	col, _ = BuildColumn(cs.rel, attr)
	en.cur.Store(&stamped{col: col, stamp: now})
	return col, true
}

// refreshSince re-interns tids into every column stamped at count from and
// re-stamps it current, so it costs the writes instead of a rebuild. It
// does so only when the relation's Version has moved by exactly writes
// since from — every write is then one of the batch's, so tids accounts
// for all of them. Otherwise, and for a column stamped at any other count,
// the column is left to rebuild on its next read. It returns the number of
// columns refreshed. Call it between runs, never while one reads the store.
func (cs *ColumnStore) refreshSince(from, writes uint64, tids map[int]bool) int {
	now := cs.rel.Version()
	if now == from || now-from != writes {
		return 0
	}
	n := 0
	for _, en := range cs.entries {
		en.mu.Lock()
		if cur := en.cur.Load(); cur != nil && cur.stamp == from {
			cur.col.Refresh(cs.rel, tids)
			en.cur.Store(&stamped{col: cur.col, stamp: now})
			n++
		}
		en.mu.Unlock()
	}
	return n
}

// Refresh re-interns the given TIDs (nil: all) into every built column in
// place. It vouches for nothing, so it moves no stamp: a column whose
// relation changed since its stamp is still rebuilt on its next read.
// Cache.Refresh is the refresh that keeps a column current.
func (cs *ColumnStore) Refresh(tids map[int]bool) {
	for _, en := range cs.entries {
		en.mu.Lock()
		if cur := en.cur.Load(); cur != nil {
			cur.col.Refresh(cs.rel, tids)
		}
		en.mu.Unlock()
	}
}

// Cache is the column cache of one evaluation environment: a ColumnStore
// per relation, shared by every executor over the environment — detection,
// the chase and every later delta — plus the cross-column id translations
// equality joins read. Each store also keeps the relation's EID index and
// its TID % b blocks (tuples.go), so a delta extends them instead of
// rebuilding them. A store serves only the exact *data.Relation it was
// made for: a relation replaced under the same name gets a new store. A
// nil Cache serves no column.
type Cache struct {
	mu     sync.RWMutex
	stores map[string]*ColumnStore
	trans  map[transKey]*translation
}

// transKey names a translation: the ids of relA.attrA in relB.attrB's
// dictionary.
type transKey struct{ relA, attrA, relB, attrB string }

// translation is a translation with the two columns it was computed from.
type translation struct {
	a, b *Column
	ids  []ValueID
}

// NewCache creates an empty column cache.
func NewCache() *Cache {
	return &Cache{stores: make(map[string]*ColumnStore), trans: make(map[transKey]*translation)}
}

// store returns rel's ColumnStore, creating it (no column is built) when
// there is none or the one there was made for another relation.
func (c *Cache) store(rel *data.Relation) *ColumnStore {
	name := rel.Schema.Name
	c.mu.RLock()
	cs := c.stores[name]
	c.mu.RUnlock()
	if cs != nil && cs.rel == rel {
		return cs
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cs = c.stores[name]; cs == nil || cs.rel != rel {
		cs = newColumnStore(rel)
		c.stores[name] = cs
	}
	return cs
}

// Column returns rel's column of attr, current at rel's mutation count
// (ColumnStore.Column); built reports that this call encoded it. Unknown
// attributes, and a nil Cache, yield nil.
func (c *Cache) Column(rel *data.Relation, attr string) (col *Column, built bool) {
	if c == nil {
		return nil, false
	}
	return c.store(rel).Column(attr)
}

// Writes records a batch of writes to a database so a Cache can refresh
// its columns for exactly those writes. NewWrites reads every relation's
// Version before the first write; Wrote records one successful Insert,
// SetValue or Delete. Each of those moves its relation's Version by
// exactly one, so Refresh can tell whether the batch accounts for every
// write since it began, and rebuilds instead when another write slipped
// in between.
type Writes struct {
	// Dirty holds the TIDs written, by relation.
	Dirty map[string]map[int]bool
	from  map[string]uint64
	n     map[string]uint64
}

// NewWrites starts a batch of writes to db.
func NewWrites(db *data.Database) *Writes {
	return &Writes{Dirty: make(map[string]map[int]bool), from: db.Versions(), n: make(map[string]uint64)}
}

// Wrote records one successful write to tid of rel. Call it once per
// write, right after it.
func (w *Writes) Wrote(rel string, tid int) {
	m := w.Dirty[rel]
	if m == nil {
		m = make(map[int]bool)
		w.Dirty[rel] = m
	}
	m[tid] = true
	w.n[rel]++
}

// Refresh brings the columns of db's relations current after the batch w:
// a column stamped when w began, of a relation no other write has touched
// since, re-interns w's TIDs in place. Every other column is left to
// rebuild on its next read. It returns the number of columns refreshed.
// Call it between runs, never while one reads the cache.
func (c *Cache) Refresh(db *data.Database, w *Writes) int {
	if c == nil {
		return 0
	}
	n := 0
	for name, tids := range w.Dirty {
		from, ok := w.from[name]
		rel := db.Rel(name)
		if !ok || rel == nil {
			continue
		}
		c.mu.Lock()
		cs := c.stores[name]
		// A refresh keeps the column pointers, so Translation's pointer
		// check cannot see it: drop the relation's translations here.
		c.dropTranslationsLocked(name)
		c.mu.Unlock()
		if cs != nil && cs.rel == rel {
			n += cs.refreshSince(from, w.n[name], tids)
		}
	}
	return n
}

// Translation maps the ids of column a (relA.attrA) into the dictionary of
// column b (relB.attrB): entry i is b's id of a's value i, or NoValue when
// b never saw that value. One O(|dict a|) pass per column pair replaces
// per-tuple key hashing on every join. It is computed again once either
// column is rebuilt (a new pointer) or refreshed (Refresh drops it).
func (c *Cache) Translation(relA, attrA string, a *Column, relB, attrB string, b *Column) []ValueID {
	k := transKey{relA, attrA, relB, attrB}
	c.mu.RLock()
	t := c.trans[k]
	c.mu.RUnlock()
	if t != nil && t.a == a && t.b == b {
		return t.ids
	}
	ids := make([]ValueID, a.Dict.Size())
	for i := range ids {
		v, _ := a.Dict.Value(ValueID(i))
		if id, ok := b.Dict.ID(v); ok {
			ids[i] = id
		} else {
			ids[i] = NoValue
		}
	}
	c.mu.Lock()
	c.trans[k] = &translation{a: a, b: b, ids: ids}
	c.mu.Unlock()
	return ids
}

// dropTranslationsLocked forgets every translation from or into rel's
// columns. c.mu must be held for writing.
func (c *Cache) dropTranslationsLocked(rel string) {
	for k := range c.trans {
		if k.relA == rel || k.relB == rel {
			delete(c.trans, k)
		}
	}
}
