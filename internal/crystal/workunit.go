package crystal

import "fmt"

// WorkUnit is T = (φ, D_T): a (partial) REE++ paired with a data partition
// (paper §5.2). The worker pool treats it opaquely; RuleID and Part
// identify the pieces, EstCost orders the pending list (costliest first),
// and Run executes it.
type WorkUnit struct {
	ID      int
	RuleID  string
	Part    string // partition key, e.g. "Trans/block3"
	EstCost float64
	// Run executes the unit on the named worker — the one that took it
	// from the pending list — so span tracing attributes work to the lane
	// that really ran it.
	Run func(node string)
}

// BlockUnit is the data half D_T of a work unit: one block (single-variable
// rule) or one block combination of the rule's first two tuple variables.
type BlockUnit struct {
	Part     string           // partition key, e.g. "Trans/b3" or "Trans-Store/b3-0"
	Restrict map[string]Block // tuple variable -> the block it ranges over
	EstCost  float64          // product of the block sizes
}

// Atom is one tuple atom R(t) of a rule as the planner reads it: the
// relation and the tuple variable ranging over it.
type Atom struct{ Rel, Var string }

// UnitsFor plans a rule over blocks from its tuple atoms, of which the
// first two partition the work: one unit per non-empty block combination,
// in block-index order, so the i-th unit of a rule names the same work on
// every process that partitioned the same data. A rule without tuple
// atoms yields no units.
func UnitsFor(atoms []Atom, blocks map[string][]Block) []BlockUnit {
	if len(atoms) == 0 {
		return nil
	}
	var units []BlockUnit
	a1 := atoms[0]
	for i, b1 := range blocks[a1.Rel] {
		if len(b1.Tuples) == 0 {
			continue
		}
		if len(atoms) == 1 {
			units = append(units, BlockUnit{
				Part:     fmt.Sprintf("%s/b%d", a1.Rel, i),
				Restrict: map[string]Block{a1.Var: b1},
				EstCost:  float64(len(b1.Tuples)),
			})
			continue
		}
		a2 := atoms[1]
		for j, b2 := range blocks[a2.Rel] {
			if len(b2.Tuples) == 0 {
				continue
			}
			units = append(units, BlockUnit{
				Part:     fmt.Sprintf("%s-%s/b%d-%d", a1.Rel, a2.Rel, i, j),
				Restrict: map[string]Block{a1.Var: b1, a2.Var: b2},
				EstCost:  float64(len(b1.Tuples)) * float64(len(b2.Tuples)),
			})
		}
	}
	return units
}
