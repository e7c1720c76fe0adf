package rock

import (
	"fmt"
	"testing"
)

// blockedTransPipeline is a Trans relation of the given (sku, com, mfg)
// rows under M_ER and the given rules, at the given worker count with LSH
// blocking on or off. A "" mfg is null.
func blockedTransPipeline(t *testing.T, workers int, blocking bool, rows [][3]string, rules ...string) *Pipeline {
	t.Helper()
	db := NewDB()
	rel := NewRel(MustSchema("Trans",
		Attribute{Name: "sku", Type: TString},
		Attribute{Name: "com", Type: TString},
		Attribute{Name: "mfg", Type: TString},
	))
	for i, r := range rows {
		mfg := S(r[2])
		if r[2] == "" {
			mfg = Null(TString)
		}
		rel.Insert(fmt.Sprintf("e%d", i), S(r[0]), S(r[1]), mfg)
	}
	db.Add(rel)
	opts := DefaultOptions()
	opts.Workers = workers
	opts.UseBlocking = blocking
	p := NewPipelineWith(db, opts)
	p.RegisterMatcher("M_ER", 0.82)
	for _, r := range rules {
		p.MustAddRule(r)
	}
	return p
}

// cleaned runs Clean and renders what it found and fixed.
func cleaned(t *testing.T, p *Pipeline) (errors int, corrections string) {
	t.Helper()
	rep, err := p.Clean()
	if err != nil {
		t.Fatal(err)
	}
	return len(rep.Errors), fmt.Sprint(rep.Corrections)
}

// TestBlockedMLRuleSpansBlocks: a same-relation ML rule pairs tuples
// that the HyperCube planner puts in different blocks. Identical strings
// embed identically, so LSH must propose the pair whatever its seed; a
// blocked run finds and fixes exactly what the unblocked one does, at
// every worker count.
func TestBlockedMLRuleSpansBlocks(t *testing.T) {
	const detectRule = "Trans(t) ^ Trans(s) ^ M_ER(t[com], s[com]) -> t.mfg = s.mfg"
	const imputeRule = "Trans(t) ^ Trans(s) ^ M_ER(t[com], s[com]) ^ null(t.mfg) -> t.mfg = s.mfg"
	conflicting := [][3]string{{"p1", "Huawei Mate X2", "Huawei"}, {"p2", "Huawei Mate X2", "Apple"}}
	missing := [][3]string{{"p1", "Huawei Mate X2", "Huawei"}, {"p2", "Huawei Mate X2", ""}}
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			d := blockedTransPipeline(t, w, true, conflicting, detectRule)
			if got, err := d.Detect(); err != nil {
				t.Fatal(err)
			} else if len(got) == 0 {
				t.Error("blocked detection missed the violation across two blocks")
			}
			blocked, fixed := cleaned(t, blockedTransPipeline(t, w, true, missing, imputeRule))
			plain, want := cleaned(t, blockedTransPipeline(t, w, false, missing, imputeRule))
			if want == "[]" {
				t.Fatal("the unblocked chase imputed nothing")
			}
			if blocked != plain || fixed != want {
				t.Errorf("blocked: %d errors, corrections %s; unblocked: %d errors, corrections %s",
					blocked, fixed, plain, want)
			}
		})
	}
}

// TestBlockedMLRuleFreshAcrossRounds: a fix in round 1 gives a tuple the
// com it needs to pair under a blocked ML rule in round 2. The blocking
// vectors must be read through that fix; an index built over round 1's
// values misses the pair.
func TestBlockedMLRuleFreshAcrossRounds(t *testing.T) {
	rows := [][3]string{{"p1", "Huawei Mate X2", "Huawei"}, {"p9", "zzzz qqqq", ""}}
	rules := []string{
		"Trans(t) ^ t.sku = 'p9' -> t.com = 'Huawei Mate X2'",
		"Trans(t) ^ Trans(s) ^ M_ER(t[com], s[com]) ^ null(t.mfg) -> t.mfg = s.mfg",
	}
	for _, w := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			rep, err := blockedTransPipeline(t, w, true, rows, rules...).Clean()
			if err != nil {
				t.Fatal(err)
			}
			if rep.ChaseRounds < 2 {
				t.Fatalf("chase ran %d rounds, want the imputation in a later round", rep.ChaseRounds)
			}
			_, want := cleaned(t, blockedTransPipeline(t, w, false, rows, rules...))
			if got := fmt.Sprint(rep.Corrections); got != want {
				t.Errorf("blocked corrections %s, unblocked %s", got, want)
			}
			imputed := false
			for _, c := range rep.Corrections {
				imputed = imputed || c.Cell.Attr == "mfg" && c.New.Equal(S("Huawei"))
			}
			if !imputed {
				t.Errorf("mfg of the renamed tuple not imputed: %s", want)
			}
		})
	}
}
