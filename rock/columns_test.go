package rock

import (
	"testing"

	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/workload"
)

// TestPipelineSharesColumns: a pipeline's detection and chase encode each
// of Scale's three columns (sku, region, code) once between them, and a
// delta afterwards encodes none — it refreshes the columns for its own
// tuples — and still imputes exactly what it must.
func TestPipelineSharesColumns(t *testing.T) {
	ds := workload.Scale(workload.Config{N: 20000, Seed: 77})
	opts := DefaultOptions()
	opts.UseBlocking = false
	opts.Predication = false
	opts.Obs = obs.New()
	p := NewPipelineWith(ds.DB, opts)
	p.rules = ds.Rules
	if _, err := p.Clean(); err != nil {
		t.Fatal(err)
	}
	built := func() uint64 { return opts.Obs.CounterValue("exec.columns.built") }
	if got := built(); got != 3 {
		t.Fatalf("the batch clean built %d columns, want 3 (sku, region, code)", got)
	}

	rel := ds.DB.Rel("Events")
	sku, mfg := rel.Schema.Index("sku"), rel.Schema.Index("mfg")
	peer, victim := rel.Tuples[100], rel.Tuples[200]
	wantVictim := victim.Values[mfg]
	d := p.NewDelta()
	nt := d.Insert("Events", "late", peer.Values[sku], Null(TString), S("R1"), S("C1"))
	d.Update("Events", victim.TID, "mfg", Null(TString))
	refreshed := opts.Obs.CounterValue("exec.columns.refreshed")
	rep, err := d.CleanIncrementalReport(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if got := built(); got != 3 {
		t.Fatalf("the delta built %d columns, want none", got-3)
	}
	if opts.Obs.CounterValue("exec.columns.refreshed") == refreshed {
		t.Fatal("the delta refreshed no column")
	}
	if len(rep.Corrections) != 2 {
		t.Fatalf("%d corrections, want the 2 imputations", len(rep.Corrections))
	}
	if v, _ := rel.Value(nt.TID, "mfg"); !v.Equal(peer.Values[mfg]) {
		t.Fatalf("inserted tuple imputed %v, want %v", v, peer.Values[mfg])
	}
	if v, _ := rel.Value(victim.TID, "mfg"); !v.Equal(wantVictim) {
		t.Fatalf("updated tuple imputed %v, want %v", v, wantVictim)
	}
}

// TestInterleavedDeltasSeeEachOthersWrites: two deltas open at once. The
// second moves a tuple into a sku group whose manufacturers the first
// nulls, so the moved tuple is the group's only witness. The first clean
// must not vouch for the columns at a count that includes the second
// delta's write: its chase reads the moved tuple's sku from the columns
// (the tuple is not dirty in this delta) and must find it in the group.
func TestInterleavedDeltasSeeEachOthersWrites(t *testing.T) {
	ds := workload.Scale(workload.Config{N: 2000, Seed: 77})
	opts := DefaultOptions()
	opts.UseBlocking = false
	opts.Predication = false
	p := NewPipelineWith(ds.DB, opts)
	p.rules = ds.Rules
	if _, err := p.Clean(); err != nil {
		t.Fatal(err)
	}
	rel := ds.DB.Rel("Events")
	sku, mfg := rel.Schema.Index("sku"), rel.Schema.Index("mfg")
	group := rel.Tuples[100].Values[sku]
	moved := rel.Tuples[900]
	want := moved.Values[mfg]

	d1, d2 := p.NewDelta(), p.NewDelta()
	var members []int
	for _, tp := range rel.Tuples {
		if tp.Values[sku].Equal(group) {
			members = append(members, tp.TID)
			d1.Update("Events", tp.TID, "mfg", Null(TString))
		}
	}
	d2.Update("Events", moved.TID, "sku", group)
	if _, err := d1.CleanIncremental(); err != nil {
		t.Fatal(err)
	}
	for _, tid := range members {
		if v, _ := rel.Value(tid, "mfg"); !v.Equal(want) {
			t.Fatalf("group member %d imputed %v, want the moved tuple's %v", tid, v, want)
		}
	}
	if _, err := d2.CleanIncremental(); err != nil {
		t.Fatal(err)
	}
	if v, _ := rel.Value(moved.TID, "mfg"); !v.Equal(want) {
		t.Fatalf("the moved tuple now reads %v, want %v", v, want)
	}
}
