package chase

import (
	"testing"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/ree"
)

// TDConflictInput is a chase input built by this package's own tests.
type TDConflictInput struct {
	Name  string
	Env   *predicate.Env
	Rules []*ree.Rule
}

// TDConflictInputs hands the external test package the inputs of
// TestTDConflictRetractsLosingEdge and TestConflictResolutionTD: a TD
// conflict the ranker resolves by rebuilding the order
// (truth.FixSet.ReplaceOrder).
func TDConflictInputs(t *testing.T) []TDConflictInput {
	retractEnv, retractRules, _, _ := tdRetractInput()
	resolveEnv, resolveRules, _, _ := tdResolutionInput(t)
	return []TDConflictInput{
		{"td-retract", retractEnv, retractRules},
		{"td-resolution", resolveEnv, resolveRules},
	}
}

// View hands the external test package the engine's view as the fix set
// defines it: every read goes through U, so a check that an unshadowed
// tuple reads its raw data tests the shadow lists, not the bitmap
// shortcut that would answer raw for it by construction.
func (e *Engine) View() predicate.View { return fixSetView{e.view} }

// FastView hands the external test package the engine's view itself,
// bitmap shortcut included.
func (e *Engine) FastView() predicate.View { return e.view }

// fixSetView is a view whose every read goes through the fix set.
type fixSetView struct{ *view }

func (f fixSetView) Value(rel *data.Relation, t *data.Tuple, col int) data.Value {
	if col < 0 || col >= len(rel.Schema.Attrs) {
		return data.Value{}
	}
	return f.cell(rel, t, col)
}
