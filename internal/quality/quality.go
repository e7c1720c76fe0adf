// Package quality provides the evaluation machinery of paper §6: gold
// error labels, precision/recall/F-measure accounting for error detection
// and correction (overall and per task), and the data-quality assessment
// dimensions (completeness, validity, consistency, timeliness) that Rock's
// monitoring reports (paper §4.1, workflow step 3).
package quality

import (
	"fmt"

	"github.com/rockclean/rock/internal/data"
)

// Gold is the ground-truth error labelling of a generated dataset: which
// cells are wrong (and their correct values), which are missing (and their
// true values), which tuple pairs are unidentified duplicates, and which
// temporal pairs order the stale/current versions.
type Gold struct {
	// WrongCells maps cell keys to the correct value (CR errors).
	WrongCells map[string]data.Value
	// MissingCells maps cell keys to the true value (MI errors).
	MissingCells map[string]data.Value
	// DupPairs holds duplicate EID pairs, lexicographically ordered (ER).
	DupPairs map[[2]string]bool
	// ChainDupPairs holds duplicates that only become identifiable after
	// other corrections (interaction chains, paper Example 7). They are
	// excluded from detection scoring — no static violation witnesses them
	// — but count for correction scoring.
	ChainDupPairs map[[2]string]bool
	// OrderPairs maps "rel.attr" to gold (olderTID, newerTID) pairs (TD).
	OrderPairs map[string]map[[2]int]bool
}

// NewGold creates an empty labelling.
func NewGold() *Gold {
	return &Gold{
		WrongCells:    make(map[string]data.Value),
		MissingCells:  make(map[string]data.Value),
		DupPairs:      make(map[[2]string]bool),
		ChainDupPairs: make(map[[2]string]bool),
		OrderPairs:    make(map[string]map[[2]int]bool),
	}
}

// CellKey renders the canonical key of a cell.
func CellKey(rel string, tid int, attr string) string {
	return data.CellRef{Rel: rel, TID: tid, Attr: attr}.String()
}

// AddWrong labels a cell erroneous with its correct value.
func (g *Gold) AddWrong(rel string, tid int, attr string, correct data.Value) {
	g.WrongCells[CellKey(rel, tid, attr)] = correct
}

// AddMissing labels a null cell with its true value.
func (g *Gold) AddMissing(rel string, tid int, attr string, truth data.Value) {
	g.MissingCells[CellKey(rel, tid, attr)] = truth
}

// AddDup labels an unidentified duplicate pair.
func (g *Gold) AddDup(a, b string) {
	if a > b {
		a, b = b, a
	}
	g.DupPairs[[2]string{a, b}] = true
}

// AddChainDup labels a duplicate pair identifiable only through an
// interaction chain (correction-time gold only).
func (g *Gold) AddChainDup(a, b string) {
	if a > b {
		a, b = b, a
	}
	g.ChainDupPairs[[2]string{a, b}] = true
}

// AllDups returns the union of plain and chain duplicates.
func (g *Gold) AllDups() map[[2]string]bool {
	out := make(map[[2]string]bool, len(g.DupPairs)+len(g.ChainDupPairs))
	for p := range g.DupPairs {
		out[p] = true
	}
	for p := range g.ChainDupPairs {
		out[p] = true
	}
	return out
}

// AddOrder labels older ⪯ newer on rel.attr.
func (g *Gold) AddOrder(rel, attr string, older, newer int) {
	key := rel + "." + attr
	m := g.OrderPairs[key]
	if m == nil {
		m = make(map[[2]int]bool)
		g.OrderPairs[key] = m
	}
	m[[2]int{older, newer}] = true
}

// ErrorCells returns all labelled error cell keys (wrong ∪ missing).
func (g *Gold) ErrorCells() map[string]bool {
	out := make(map[string]bool, len(g.WrongCells)+len(g.MissingCells))
	for k := range g.WrongCells {
		out[k] = true
	}
	for k := range g.MissingCells {
		out[k] = true
	}
	return out
}

// Total returns the number of labelled errors across kinds.
func (g *Gold) Total() int {
	n := len(g.WrongCells) + len(g.MissingCells) + len(g.DupPairs) + len(g.ChainDupPairs)
	for _, m := range g.OrderPairs {
		n += len(m)
	}
	return n
}

// PRF is a precision/recall/F-measure triple.
type PRF struct {
	TP, FP, FN int
}

// Add accumulates counts.
func (p *PRF) Add(q PRF) {
	p.TP += q.TP
	p.FP += q.FP
	p.FN += q.FN
}

// Precision returns TP/(TP+FP), 0 when undefined.
func (p PRF) Precision() float64 {
	if p.TP+p.FP == 0 {
		return 0
	}
	return float64(p.TP) / float64(p.TP+p.FP)
}

// Recall returns TP/(TP+FN), 0 when undefined.
func (p PRF) Recall() float64 {
	if p.TP+p.FN == 0 {
		return 0
	}
	return float64(p.TP) / float64(p.TP+p.FN)
}

// F1 returns the harmonic mean of precision and recall.
func (p PRF) F1() float64 {
	pr, rc := p.Precision(), p.Recall()
	if pr+rc == 0 {
		return 0
	}
	return 2 * pr * rc / (pr + rc)
}

// String renders the triple.
func (p PRF) String() string {
	return fmt.Sprintf("P=%.3f R=%.3f F1=%.3f (tp=%d fp=%d fn=%d)", p.Precision(), p.Recall(), p.F1(), p.TP, p.FP, p.FN)
}

// ScoreDetection scores a set of detected error cells and duplicate pairs
// against the gold labelling.
func ScoreDetection(g *Gold, cells map[string]bool, dups map[[2]string]bool) PRF {
	var p PRF
	goldCells := g.ErrorCells()
	for c := range cells {
		if goldCells[c] {
			p.TP++
		} else {
			p.FP++
		}
	}
	for c := range goldCells {
		if !cells[c] {
			p.FN++
		}
	}
	for d := range dups {
		if g.DupPairs[d] {
			p.TP++
		} else {
			p.FP++
		}
	}
	for d := range g.DupPairs {
		if !dups[d] {
			p.FN++
		}
	}
	return p
}

// Corrections is what a correction run produced, keyed like the gold.
type Corrections struct {
	// Cells maps cell keys to the value the system assigned.
	Cells map[string]data.Value
	// Merged holds identified EID pairs.
	Merged map[[2]string]bool
	// Orders maps "rel.attr" to deduced (older, newer) pairs.
	Orders map[string]map[[2]int]bool
}

// NewCorrections creates an empty result.
func NewCorrections() *Corrections {
	return &Corrections{
		Cells:  make(map[string]data.Value),
		Merged: make(map[[2]string]bool),
		Orders: make(map[string]map[[2]int]bool),
	}
}

// AddCell records a cell repair.
func (c *Corrections) AddCell(rel string, tid int, attr string, v data.Value) {
	c.Cells[CellKey(rel, tid, attr)] = v
}

// AddMerge records an entity identification.
func (c *Corrections) AddMerge(a, b string) {
	if a > b {
		a, b = b, a
	}
	c.Merged[[2]string{a, b}] = true
}

// AddOrder records a deduced temporal pair.
func (c *Corrections) AddOrder(rel, attr string, older, newer int) {
	key := rel + "." + attr
	m := c.Orders[key]
	if m == nil {
		m = make(map[[2]int]bool)
		c.Orders[key] = m
	}
	m[[2]int{older, newer}] = true
}

// TaskScores holds per-task and overall correction scores.
type TaskScores struct {
	ER, CR, MI, TD PRF
}

// Overall aggregates the four tasks.
func (s TaskScores) Overall() PRF {
	var p PRF
	p.Add(s.ER)
	p.Add(s.CR)
	p.Add(s.MI)
	p.Add(s.TD)
	return p
}

// ScoreCorrection scores corrections against gold, per task:
//
//	CR: a repaired wrong cell counts TP iff the assigned value equals the
//	    gold correct value; repairing a clean cell to a different value is
//	    an FP; unrepaired wrong cells are FNs.
//	MI: same over missing cells.
//	ER: merged pairs vs gold duplicate pairs.
//	TD: deduced order pairs vs gold order pairs.
func ScoreCorrection(g *Gold, c *Corrections, rawValue func(cellKey string) (data.Value, bool)) TaskScores {
	var s TaskScores
	for key, v := range c.Cells {
		if want, ok := g.WrongCells[key]; ok {
			if v.Equal(want) {
				s.CR.TP++
			} else {
				s.CR.FP++
				s.CR.FN++ // the wrong cell remains effectively uncorrected
			}
			continue
		}
		if want, ok := g.MissingCells[key]; ok {
			if v.Equal(want) {
				s.MI.TP++
			} else {
				s.MI.FP++
				s.MI.FN++
			}
			continue
		}
		// Correction hit a clean cell: FP unless it reasserted the
		// existing value.
		if raw, ok := rawValue(key); !ok || !raw.Equal(v) {
			s.CR.FP++
		}
	}
	for key := range g.WrongCells {
		if _, fixed := c.Cells[key]; !fixed {
			s.CR.FN++
		}
	}
	for key := range g.MissingCells {
		if _, fixed := c.Cells[key]; !fixed {
			s.MI.FN++
		}
	}
	allDups := g.AllDups()
	for pair := range c.Merged {
		if allDups[pair] {
			s.ER.TP++
		} else {
			s.ER.FP++
		}
	}
	for pair := range allDups {
		if !c.Merged[pair] {
			s.ER.FN++
		}
	}
	for key, goldPairs := range g.OrderPairs {
		got := c.Orders[key]
		for pr := range got {
			if goldPairs[pr] {
				s.TD.TP++
			} else if goldPairs[[2]int{pr[1], pr[0]}] {
				s.TD.FP++ // reversed order is a real mistake
			}
			// Pairs outside the gold set are unlabelled; ignore.
		}
		for pr := range goldPairs {
			if !got[pr] {
				s.TD.FN++
			}
		}
	}
	for key, got := range c.Orders {
		if _, ok := g.OrderPairs[key]; ok {
			continue
		}
		_ = got // orders on unlabelled attributes are ignored
		_ = key
	}
	return s
}

// Assessment is the data-quality report of paper §4.1's monitoring step.
type Assessment struct {
	// Completeness is the fraction of non-null cells.
	Completeness float64
	// Validity is the fraction of cells passing type/domain checks (here:
	// non-null cells are valid by construction; exposed for extension).
	Validity float64
	// Consistency is 1 - (violating cells / total cells) for a supplied
	// violation count.
	Consistency float64
	// Timeliness is the fraction of entities whose attributes carry the
	// most current value among their class (requires gold; -1 if unknown).
	Timeliness float64
}

// Assess computes the dimensions over a database; violatingCells is the
// number of cells implicated in detected violations.
func Assess(db *data.Database, violatingCells int) Assessment {
	total, nonNull := 0, 0
	for _, rel := range db.Relations {
		for _, t := range rel.Tuples {
			for _, v := range t.Values {
				total++
				if !v.IsNull() {
					nonNull++
				}
			}
		}
	}
	a := Assessment{Timeliness: -1}
	if total > 0 {
		a.Completeness = float64(nonNull) / float64(total)
		a.Validity = a.Completeness
		c := 1 - float64(violatingCells)/float64(total)
		if c < 0 {
			c = 0
		}
		a.Consistency = c
	}
	return a
}
