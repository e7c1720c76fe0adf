package rock_test

import (
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/rockclean/rock/internal/obs"
	"github.com/rockclean/rock/internal/serve"
	"github.com/rockclean/rock/internal/workload"
	"github.com/rockclean/rock/rock"
)

// TestRoundChildSpans: on a traced Logistics N = 300 clean, every chase
// round span has four children — round.prepare, round.drain,
// round.merge and round.absorb, in that order, one after the other —
// whose durations sum to no more than the round's, and every chase unit
// span hangs under a round.drain.
func TestRoundChildSpans(t *testing.T) {
	opts := rock.DefaultOptions()
	opts.Workers = 2
	reg := obs.New()
	reg.EnableSpans(1 << 20)
	opts.Obs = reg
	p, err := serve.PipelineFromDataset(workload.Logistics(workload.Config{N: 300, Seed: 2024}), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Clean(); err != nil {
		t.Fatal(err)
	}
	if n := reg.DroppedSpans(); n > 0 {
		t.Fatalf("%d spans evicted: the check below would be partial", n)
	}
	spans := reg.Spans()
	byID := make(map[uint64]obs.SpanRecord, len(spans))
	children := make(map[uint64][]obs.SpanRecord)
	for _, sp := range spans {
		byID[sp.ID] = sp
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	want := []string{"round.prepare", "round.drain", "round.merge", "round.absorb"}
	rounds := 0
	for _, round := range spans {
		if round.Name != "round" {
			continue
		}
		rounds++
		kids := children[round.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].ID < kids[j].ID })
		names := make([]string, len(kids))
		for i, k := range kids {
			names[i] = k.Name
		}
		if strings.Join(names, " ") != strings.Join(want, " ") {
			t.Fatalf("round %d has children %v, want %v", round.Round, names, want)
		}
		var sum time.Duration
		prevEnd := round.Start
		for _, k := range kids {
			if k.Start < prevEnd {
				t.Errorf("round %d: %s starts before its predecessor ends", round.Round, k.Name)
			}
			sum += k.End - k.Start
			prevEnd = k.End
		}
		if prevEnd > round.End || sum > round.End-round.Start {
			t.Errorf("round %d: children take %v of a %v round", round.Round, sum, round.End-round.Start)
		}
	}
	if rounds == 0 {
		t.Fatal("no chase round span recorded")
	}
	for _, sp := range spans {
		if sp.Name != "unit" {
			continue
		}
		if parent := byID[sp.Parent].Name; parent != "round.drain" && parent != "detect" {
			t.Errorf("unit span %d hangs under %q", sp.ID, parent)
		}
	}
}
