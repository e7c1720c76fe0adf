package benchkit

import (
	"fmt"
	"strings"
	"testing"
)

// TestScalingPanelsMeasureTheSweep runs the two scaling panels small:
// one row per worker count of the sweep, every value a positive wall
// clock. fig4h returning at all means every row found the same number of
// errors.
func TestScalingPanelsMeasureTheSweep(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N = 60
	sweep := workerSweep()
	for _, id := range []string{"fig4h", "fig4l"} {
		tab, err := ByID(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.RowsLbl) != len(sweep) {
			t.Fatalf("%s: rows %v, want one per worker count of %v", id, tab.RowsLbl, sweep)
		}
		for i, n := range sweep {
			row := fmt.Sprintf("n=%d", n)
			if tab.RowsLbl[i] != row {
				t.Errorf("%s: row %d is %q, want %q", id, i, tab.RowsLbl[i], row)
			}
			if v := tab.Cells[row]["Rock"]; v <= 0 {
				t.Errorf("%s %s: wall clock %v ms, want > 0", id, row, v)
			}
		}
	}
}

// TestPanelTable: every id of the table is unique and dispatches, and an
// id the ledger took over says where its measurement lives now.
func TestPanelTable(t *testing.T) {
	seen := map[string]bool{}
	for _, id := range IDs() {
		if seen[id] {
			t.Errorf("id %q is in the table twice", id)
		}
		seen[id] = true
		if _, err := lookup(id); err != nil {
			t.Errorf("id %q does not resolve: %v", id, err)
		}
	}
	for _, id := range retired {
		if seen[id] {
			t.Errorf("retired id %q is still in the table", id)
		}
		_, err := ByID(id, DefaultConfig())
		if err == nil || !strings.Contains(err.Error(), "go run -C bench .") {
			t.Errorf("retired id %q: error %v does not point at the ledger", id, err)
		}
	}
	if _, err := ByID("nope", DefaultConfig()); err == nil || !strings.Contains(err.Error(), "fig4a") {
		t.Errorf("unknown id: error %v does not list the ids", err)
	}
}
