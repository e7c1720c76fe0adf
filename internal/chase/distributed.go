package chase

import (
	"context"
	"fmt"

	"github.com/rockclean/rock/internal/cluster"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/truth"
)

// The distributed chase is a lockstep-replica design: worker processes
// hold full engine replicas built from the same deterministic pipeline
// (same data, same rules and rule IDs, same trained models, same
// Workers partition count), so only three things ever cross the wire —
// the round preamble (the truth journal since the last preamble + last
// round's accepted fixes + active rule IDs), unit index assignments,
// and per-unit deduction buffers. Replaying the journal makes every replica's FixSet
// bit-identical to the coordinator's; the unit list is a deterministic
// function of (rules, partition, FixSet), so unit index i names the
// same work everywhere; and the coordinator's merge consumes buffers
// in unit-index order, which is exactly the serial generation order.
// Deduction reads only the replicated state (FixSet cells/orders via
// env.ValueOf, deterministically trained models), so a distributed run
// is bit-identical to the serial in-process run. Conflict resolution
// state that is NOT replicated (resolvedCells, the oracle memo) is
// only written by the coordinator-side apply step, never during
// deduction — with the one caveat that resolveValuePair may consult
// Options.Oracle during deduction, so distributed runs require a nil
// (or replica-identical deterministic) oracle.

// RoundPreamble is everything a worker replica needs to reconstruct a
// round's inputs: the truth mutations since the previous preamble, the
// fixes the coordinator accepted last round (source of the dirty set
// and of shadow marking), and the active rule IDs.
type RoundPreamble struct {
	Round   int
	RuleIDs []string
	// Journal holds the ops the coordinator's fix set recorded since the
	// previous preamble (since the engine cloned Γ, for the first one):
	// OpsSince the mark that preamble ended at. A replica Replays it over
	// its own clone of the same Γ.
	Journal  []truth.Op
	Accepted []Fix
	// UseDirty distinguishes "restrict enumeration to the dirty set
	// derived from Accepted" (lazy rounds after the first) from "consider
	// everything" (batch round 0, or Lazy off).
	UseDirty bool
	// Units is the coordinator's work-unit count — a cheap divergence
	// check: a replica whose FollowRound derives a different count is not
	// a replica.
	Units int
}

// UnitOutcome is everything one executed work unit produces, tagged with
// the unit index (the generation order): its deduction buffer, its stats,
// and the report state deduction produced (resolveValuePair escalations
// and M_c-decided imputation conflicts). Units write nowhere else, so an
// outcome means the same whether a local goroutine returned it or a
// replica shipped it back, and the round's merge folds outcomes in unit
// order — which makes every strategy's report match the serial one.
type UnitOutcome struct {
	Unit       int
	Fixes      []Fix
	Unresolved []UnresolvedConflict
	ResolvedMI int
	Valuations int
	MLCalls    int
	CostNs     int64
	Node       string
}

// DistRunner is the cluster surface of a distributed round: the plain
// Runner drain/submit contract plus the round barrier (BeginRound) and
// result collection (TakeResults). internal/cluster/remote.Coordinator
// implements it; New asserts it once on Options.Cluster, and every round
// of an engine holding one broadcasts the preamble before its drain and
// picks the results up after.
type DistRunner interface {
	cluster.Runner
	// BeginRound ships the preamble to every live worker and waits for
	// their acks (each ack echoes the worker's derived unit count).
	BeginRound(ctx context.Context, pre RoundPreamble) error
	// TakeResults returns the outcomes received during the last drain and
	// resets the collection buffer.
	TakeResults() []UnitOutcome
}

// FollowRound prepares a worker replica for one distributed round: it
// replays the coordinator's truth journal, mirrors the coordinator's
// post-merge executor bookkeeping (shadow marking for the tuples last
// round's fixes affected), selects the active rules by ID, and derives
// the round's work-unit list. It returns the unit count for the ack.
// Units are then executed on demand via RunFollowUnit.
func (e *Engine) FollowRound(pre RoundPreamble) (int, error) {
	if err := e.u.Replay(pre.Journal); err != nil {
		return 0, err
	}
	e.absorb(pre.Accepted)
	var dirty map[string]map[int]bool
	if pre.UseDirty {
		dirty = e.dirtySet(pre.Accepted)
	}
	byID := make(map[string]*ree.Rule, len(e.rules))
	for _, r := range e.rules {
		byID[r.ID] = r
	}
	active := make([]*ree.Rule, 0, len(pre.RuleIDs))
	for _, id := range pre.RuleIDs {
		r := byID[id]
		if r == nil {
			return 0, fmt.Errorf("chase follow: unknown rule %q (replica rule set diverged)", id)
		}
		active = append(active, r)
	}
	e.followWork = e.prepareRound(active)
	e.followDirty = dirty
	if pre.Units != len(e.followWork) {
		return len(e.followWork), fmt.Errorf("chase follow: derived %d units, coordinator has %d (replica diverged)",
			len(e.followWork), pre.Units)
	}
	return len(e.followWork), nil
}

// RunFollowUnit executes one unit of the round prepared by FollowRound
// and returns its deduction buffer. Safe to call for any assigned
// index, in any order — units only read the replicated state.
func (e *Engine) RunFollowUnit(ctx context.Context, i int, node string) (UnitOutcome, error) {
	if i < 0 || i >= len(e.followWork) {
		return UnitOutcome{}, fmt.Errorf("chase follow: unit %d out of range (have %d)", i, len(e.followWork))
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return e.runUnit(ctx, e.followWork[i], e.followDirty, node, nil)
}
