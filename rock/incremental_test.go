package rock

import "testing"

func TestDeltaIncrementalFlow(t *testing.T) {
	db := NewDB()
	trans := NewRel(MustSchema("Trans",
		Attribute{Name: "com", Type: TString},
		Attribute{Name: "mfg", Type: TString},
	))
	trans.Insert("t1", S("Mate X2"), S("Huawei"))
	trans.Insert("t2", S("Mate X2"), S("Huawei"))
	db.Add(trans)

	p := NewPipeline(db)
	p.TrainCorrelationModels()
	p.MustAddRule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg")
	if _, err := p.Clean(); err != nil {
		t.Fatal(err)
	}

	// ΔD: a new transaction arrives with a wrong manufactory.
	d := p.NewDelta()
	nt := d.Insert("Trans", "t9", S("Mate X2"), S("Apple"))
	if nt == nil || d.Size() != 1 {
		t.Fatal("delta insert failed")
	}
	errs, err := d.DetectIncremental()
	if err != nil {
		t.Fatal(err)
	}
	if len(errs) == 0 {
		t.Fatal("incremental detection missed the new error")
	}
	for _, e := range errs {
		touches := false
		for _, c := range e.Cells {
			if c.TID == nt.TID {
				touches = true
			}
		}
		if !touches {
			t.Errorf("error does not touch the delta: %+v", e)
		}
	}
	corr, err := d.CleanIncremental()
	if err != nil {
		t.Fatal(err)
	}
	if len(corr) != 1 || corr[0].New.Str() != "Huawei" {
		t.Fatalf("incremental correction: %+v", corr)
	}
	if v, _ := trans.Value(nt.TID, "mfg"); v.Str() != "Huawei" {
		t.Error("materialization missing")
	}
}

func TestDeltaUpdate(t *testing.T) {
	db := NewDB()
	rel := NewRel(MustSchema("R", Attribute{Name: "a", Type: TString}))
	tp := rel.Insert("e", S("x"))
	db.Add(rel)
	p := NewPipeline(db)
	d := p.NewDelta()
	if !d.Update("R", tp.TID, "a", S("y")) {
		t.Fatal("update failed")
	}
	if d.Update("R", 999, "a", S("z")) || d.Update("Ghost", 0, "a", S("z")) {
		t.Error("bad updates must report false")
	}
	if d.Insert("Ghost", "e", S("x")) != nil {
		t.Error("insert into unknown relation must fail")
	}
	if v, _ := rel.Value(tp.TID, "a"); v.Str() != "y" {
		t.Error("update not applied")
	}
}

// Regression: chase.New used to install its value/Orders hooks on the
// pipeline's env and never restore them, so every detection after the
// first clean read through the dead engine's fix set — a cell the clean
// had repaired still read as repaired after an update broke it again.
func TestDetectAfterCleanReadsRawValues(t *testing.T) {
	db := NewDB()
	trans := NewRel(MustSchema("Trans",
		Attribute{Name: "com", Type: TString},
		Attribute{Name: "mfg", Type: TString},
	))
	trans.Insert("t1", S("Mate X2"), S("Huawei"))
	trans.Insert("t2", S("Mate X2"), S("Huawei"))
	t3 := trans.Insert("t3", S("Mate X2"), S("Apple"))
	db.Add(trans)

	p := NewPipeline(db)
	p.TrainCorrelationModels()
	p.MustAddRule("Trans(t) ^ Trans(s) ^ t.com = s.com -> t.mfg = s.mfg")
	if _, err := p.Clean(); err != nil {
		t.Fatal(err)
	}
	if v, _ := trans.Value(t3.TID, "mfg"); v.Str() != "Huawei" {
		t.Fatalf("clean should repair t3.mfg, got %q", v.Str())
	}
	if p.env.View != nil {
		t.Fatal("the chase left its view on the pipeline's env")
	}

	d := p.NewDelta()
	if !d.Update("Trans", t3.TID, "mfg", S("Apple")) {
		t.Fatal("update failed")
	}
	inc, err := d.DetectIncremental()
	if err != nil {
		t.Fatal(err)
	}
	full, err := p.Detect()
	if err != nil {
		t.Fatal(err)
	}
	if len(inc) != 1 || len(full) != 1 {
		t.Fatalf("the re-broken cell must be detected: incremental %d errors, full %d, want 1 and 1", len(inc), len(full))
	}
}
