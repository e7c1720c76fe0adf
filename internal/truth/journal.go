package truth

import (
	"fmt"

	"github.com/rockclean/rock/internal/data"
)

// The journal is the fix set's change log: every FixSet records each
// primitive mutation that succeeds, in order, from its creation (or
// Clone) on. It is also the replication primitive of the distributed
// chase (internal/cluster/remote): the coordinator owns the
// authoritative FixSet and ships the ops since its last round barrier to
// the worker replicas. A replica that replays the log over an identical
// starting FixSet ends in an identical state — union-find roots, cell
// keys and order closures are all deterministic functions of the op
// sequence — so workers deduce against exactly the truth the coordinator
// holds.

// OpKind enumerates the six primitive FixSet mutations.
type OpKind int

// Op kinds, one per FixSet write method.
const (
	OpMergeEIDs OpKind = iota
	OpSeparateEIDs
	OpSetCell
	OpReplaceCell
	OpAddOrder
	OpReplaceOrder
)

// Op is one recorded mutation. Fields are used per kind:
// merge/separate use A, B (the original EIDs, not roots — replay
// re-derives roots from its own union-find, which is state-identical);
// cell ops use Rel, Attr, A (EID), Value; AddOrder uses Rel, Attr,
// TID1 (older), TID2 (newer), Strict; ReplaceOrder carries the whole
// replacement order as covering pairs with per-pair strictness.
type Op struct {
	Kind        OpKind
	A, B        string
	Rel, Attr   string
	Value       data.Value
	TID1, TID2  int
	Strict      bool
	OrderPairs  [][2]int
	OrderStrict []bool
}

// Mark returns the journal's current position: OpsSince(Mark()) holds
// exactly the mutations made after the call.
func (f *FixSet) Mark() int { return len(f.journal) }

// OpsSince returns the ops recorded after mark, in order. The slice ends
// at its capacity, so a caller may append to it without writing into the
// journal; the ops themselves are shared and read-only.
func (f *FixSet) OpsSince(mark int) []Op {
	n := len(f.journal)
	return f.journal[mark:n:n]
}

func (f *FixSet) record(op Op) { f.journal = append(f.journal, op) }

// encodeOrder serializes a temporal order as its covering pairs plus
// per-pair strictness; rebuilding via AddStrict/AddWeak reproduces the
// same closure.
func encodeOrder(o *data.TemporalOrder) ([][2]int, []bool) {
	pairs := o.Pairs()
	strict := make([]bool, len(pairs))
	for i, p := range pairs {
		strict[i] = o.Less(p[0], p[1])
	}
	return pairs, strict
}

// Replay applies a recorded op sequence to f. Replaying a journal onto
// a replica of the state it was recorded against cannot conflict; a
// conflict therefore means the replica diverged, and is returned as an
// error.
func (f *FixSet) Replay(ops []Op) error {
	for i, op := range ops {
		var conflict *Conflict
		switch op.Kind {
		case OpMergeEIDs:
			_, conflict = f.MergeEIDs(op.A, op.B)
		case OpSeparateEIDs:
			_, conflict = f.SeparateEIDs(op.A, op.B)
		case OpSetCell:
			_, conflict = f.SetCell(op.Rel, op.A, op.Attr, op.Value)
		case OpReplaceCell:
			f.ReplaceCell(op.Rel, op.A, op.Attr, op.Value)
		case OpAddOrder:
			_, conflict = f.AddOrder(op.Rel, op.Attr, op.TID1, op.TID2, op.Strict)
		case OpReplaceOrder:
			o := data.NewTemporalOrder(op.Rel, op.Attr)
			for j, p := range op.OrderPairs {
				if op.OrderStrict[j] {
					o.AddStrict(p[0], p[1])
				} else {
					o.AddWeak(p[0], p[1])
				}
			}
			f.ReplaceOrder(op.Rel, op.Attr, o)
		default:
			return fmt.Errorf("journal op %d: unknown kind %d", i, op.Kind)
		}
		if conflict != nil {
			return fmt.Errorf("journal op %d: replica diverged: %w", i, conflict)
		}
	}
	return nil
}
