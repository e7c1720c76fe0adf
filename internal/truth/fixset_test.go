package truth

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"github.com/rockclean/rock/internal/data"
)

func TestUnionFind(t *testing.T) {
	u := NewUnionFind()
	if !u.Union("a", "b") {
		t.Error("first union must change")
	}
	if u.Union("a", "b") {
		t.Error("repeat union must not change")
	}
	u.Union("b", "c")
	if !u.Same("a", "c") {
		t.Error("transitivity")
	}
	if u.Same("a", "z") {
		t.Error("unrelated elements")
	}
	c := u.Clone()
	c.Union("a", "z")
	if u.Same("a", "z") {
		t.Error("clone leaked")
	}
}

func TestUnionFindProperty(t *testing.T) {
	// After unioning a chain, all elements share one root.
	f := func(n uint8) bool {
		u := NewUnionFind()
		k := int(n%20) + 2
		names := make([]string, k)
		for i := range names {
			names[i] = string(rune('a'+i%26)) + string(rune('0'+i/26))
		}
		for i := 1; i < k; i++ {
			u.Union(names[i-1], names[i])
		}
		for i := 1; i < k; i++ {
			if !u.Same(names[0], names[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMergeAndSeparate(t *testing.T) {
	f := NewFixSet()
	if ch, c := f.MergeEIDs("p1", "p2"); !ch || c != nil {
		t.Fatal("merge must succeed")
	}
	if ch, _ := f.MergeEIDs("p1", "p2"); ch {
		t.Error("re-merge is a no-op")
	}
	if !f.SameEntity("p1", "p2") {
		t.Error("merge not visible")
	}
	if _, c := f.SeparateEIDs("p1", "p2"); c == nil {
		t.Error("separating identified entities must conflict")
	}
	if ch, c := f.SeparateEIDs("p1", "p3"); !ch || c != nil {
		t.Error("separate must succeed")
	}
	if _, c := f.MergeEIDs("p2", "p3"); c == nil || c.Kind != EIDConflict {
		t.Error("merging separated entities must conflict")
	}
	if !f.DistinctEntity("p1", "p3") || !f.DistinctEntity("p2", "p3") {
		t.Error("distinctness must follow classes")
	}
}

func TestSetCellConflicts(t *testing.T) {
	f := NewFixSet()
	if ch, c := f.SetCell("Person", "p1", "home", data.S("5 Beijing West Road")); !ch || c != nil {
		t.Fatal("first set must succeed")
	}
	if ch, c := f.SetCell("Person", "p1", "home", data.S("5 Beijing West Road")); ch || c != nil {
		t.Error("idempotent set")
	}
	if _, c := f.SetCell("Person", "p1", "home", data.S("elsewhere")); c == nil || c.Kind != ValueConflict {
		t.Error("distinct value must conflict")
	}
	if v, ok := f.Cell("Person", "p1", "home"); !ok || v.Str() != "5 Beijing West Road" {
		t.Error("cell lookup")
	}
	if _, ok := f.Cell("Person", "p1", "status"); ok {
		t.Error("missing cell")
	}
}

func TestMergePropagatesCells(t *testing.T) {
	f := NewFixSet()
	f.SetCell("Person", "p1", "home", data.S("addr"))
	f.MergeEIDs("p1", "p2")
	if v, ok := f.Cell("Person", "p2", "home"); !ok || v.Str() != "addr" {
		t.Error("merged entity must see validated cells")
	}
	// Conflicting cells block the merge.
	g := NewFixSet()
	g.SetCell("Person", "a", "home", data.S("x"))
	g.SetCell("Person", "b", "home", data.S("y"))
	if _, c := g.MergeEIDs("a", "b"); c == nil || c.Kind != ValueConflict {
		t.Error("merge with clashing cells must conflict")
	}
	// Compatible cells merge fine.
	h := NewFixSet()
	h.SetCell("Person", "a", "home", data.S("x"))
	h.SetCell("Person", "b", "home", data.S("x"))
	h.SetCell("Person", "b", "status", data.S("married"))
	if _, c := h.MergeEIDs("a", "b"); c != nil {
		t.Errorf("compatible merge failed: %v", c)
	}
	if v, ok := h.Cell("Person", "a", "status"); !ok || v.Str() != "married" {
		t.Error("cells from both classes must survive merge")
	}
}

func TestAddOrderConflicts(t *testing.T) {
	f := NewFixSet()
	if ch, c := f.AddOrder("Person", "home", 1, 2, false); !ch || c != nil {
		t.Fatal("weak add must succeed")
	}
	if ch, _ := f.AddOrder("Person", "home", 1, 2, false); ch {
		t.Error("idempotent weak add")
	}
	// Tie is fine.
	if _, c := f.AddOrder("Person", "home", 2, 1, false); c != nil {
		t.Error("weak tie must be allowed")
	}
	// Strict against an existing tie conflicts.
	if _, c := f.AddOrder("Person", "home", 1, 2, true); c == nil || c.Kind != OrderConflict {
		t.Error("strict edge against tie must conflict")
	}
	// Fresh strict chain then reverse weak conflicts.
	g := NewFixSet()
	g.AddOrder("R", "A", 1, 2, true)
	g.AddOrder("R", "A", 2, 3, true)
	if _, c := g.AddOrder("R", "A", 3, 1, false); c == nil {
		t.Error("weak edge closing a strict cycle must conflict")
	}
	if ch, c := g.AddOrder("R", "A", 1, 3, true); ch || c != nil {
		t.Error("already-entailed strict edge is a no-op")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := NewFixSet()
	f.MergeEIDs("a", "b")
	f.SetCell("R", "a", "x", data.I(1))
	f.AddOrder("R", "x", 1, 2, true)
	c := f.Clone()
	c.MergeEIDs("a", "z")
	c.SetCell("R", "q", "x", data.I(9))
	c.AddOrder("R", "x", 2, 3, false)
	if f.SameEntity("a", "z") {
		t.Error("clone merge leaked")
	}
	if _, ok := f.Cell("R", "q", "x"); ok {
		t.Error("clone cell leaked")
	}
	if f.Order("R", "x").Leq(2, 3) {
		t.Error("clone order leaked")
	}
	if !c.Order("R", "x").Less(1, 2) {
		t.Error("clone lost strict edges")
	}
	// Each journal records its own mutations: the clone's starts empty.
	if got := opKinds(f.OpsSince(0)); got != "merge cell order" {
		t.Errorf("original journal = %q", got)
	}
	if got := opKinds(c.OpsSince(0)); got != "merge cell order" {
		t.Errorf("clone journal = %q", got)
	}
}

func TestSnapshotEquality(t *testing.T) {
	// Same logical content in different insertion orders → same snapshot.
	a := NewFixSet()
	a.MergeEIDs("p1", "p2")
	a.SetCell("R", "p1", "x", data.I(1))
	a.AddOrder("R", "x", 1, 2, true)

	b := NewFixSet()
	b.AddOrder("R", "x", 1, 2, true)
	b.SetCell("R", "p2", "x", data.I(1)) // via the other member
	b.MergeEIDs("p2", "p1")

	if a.Snapshot() != b.Snapshot() {
		t.Errorf("snapshots differ:\n a=%s\n b=%s", a.Snapshot(), b.Snapshot())
	}
	// The digest's bytes are compared across processes and versions: sorted
	// lines joined by ";", a cell named by its class's smallest member.
	if want := "cell{R.x@p1=" + data.I(1).Key() + "};class{p1;p2};ord{R.x:1s2}"; a.Snapshot() != want {
		t.Errorf("snapshot %q, want %q", a.Snapshot(), want)
	}
	c := NewFixSet()
	c.MergeEIDs("p1", "p3")
	if a.Snapshot() == c.Snapshot() {
		t.Error("different content must differ")
	}
}

// snapshotFixture is a fix set whose snapshot has about n lines: n/2
// two-member classes, a cell on every class and on n/2 singletons, and a
// strict order chain.
func snapshotFixture(n int) *FixSet {
	f := NewFixSet()
	// All merges first: MergeEIDs scans the validated cells.
	for i := 0; i < n/2; i++ {
		f.MergeEIDs(fmt.Sprintf("p%d", i), fmt.Sprintf("q%d", i))
	}
	for i := 0; i < n/2; i++ {
		f.SetCell("R", fmt.Sprintf("q%d", i), "x", data.I(int64(i)))
		f.SetCell("R", fmt.Sprintf("s%d", i), "y", data.S("v"))
	}
	for i := 0; i < 10; i++ {
		f.AddOrder("R", "x", i, i+1, true)
	}
	return f
}

// TestSnapshotAllocatesLinearly: building the digest costs memory in
// proportion to its length (appending line by line to one string cost the
// square: gigabytes for a snapshot of a quarter megabyte).
func TestSnapshotAllocatesLinearly(t *testing.T) {
	f := snapshotFixture(20000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := f.Snapshot()
	runtime.ReadMemStats(&after)
	if lines := strings.Count(s, ";") + 1; lines < 20000 {
		t.Fatalf("fixture too small: %d lines", lines)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(s)); got > limit {
		t.Errorf("a %d-byte snapshot allocated %d bytes, over %d", len(s), got, limit)
	}
}

func BenchmarkSnapshot(b *testing.B) {
	f := snapshotFixture(20000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapshotSink = f.Snapshot()
	}
}

var snapshotSink string
