package chase

import (
	"testing"

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

// View hands the external test package the engine's view.
func (e *Engine) View() predicate.View { return e.view }
