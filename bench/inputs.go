package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"

	"github.com/rockclean/rock/internal/data"
	"github.com/rockclean/rock/internal/predicate"
	"github.com/rockclean/rock/internal/quality"
	"github.com/rockclean/rock/internal/ree"
	"github.com/rockclean/rock/internal/workload"
)

// pinnedSeed is the seed inputs.json records; other seeds run unpinned.
const pinnedSeed = 2024

//go:embed inputs.json
var pinnedInputs []byte

// pins is one workload's input fingerprint: tuple counts, rule ids and
// the FNV-64 of every generated CSV (and of the ingest sequence).
type pins map[string]string

func fnv64(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	return fmt.Sprintf("%016x", h.Sum64())
}

// checkPins refuses to go on when the default seed's inputs drifted from
// inputs.json, so an edit to internal/workload cannot silently change
// the load the ledger's numbers were taken on.
func checkPins(workloadName string, got pins) error {
	var all map[string]pins
	if err := json.Unmarshal(pinnedInputs, &all); err != nil {
		return fmt.Errorf("inputs.json: %w", err)
	}
	want, ok := all[workloadName]
	if !ok {
		return fmt.Errorf("inputs.json has no pin for workload %s; run with -write-pins", workloadName)
	}
	var drift []string
	for k, v := range got {
		if want[k] != v {
			drift = append(drift, fmt.Sprintf("%s: pinned %q, generated %q", k, want[k], v))
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			drift = append(drift, fmt.Sprintf("%s: pinned but no longer generated", k))
		}
	}
	if len(drift) > 0 {
		sort.Strings(drift)
		return fmt.Errorf("inputs of %s drifted from inputs.json (rerun with -write-pins if intended):\n  %s",
			workloadName, strings.Join(drift, "\n  "))
	}
	return nil
}

// input is one generated dataset as the program receives it: CSV bytes
// per relation and the rule text, plus the generator's gold and ground
// truth for scoring.
type input struct {
	ds    *workload.Dataset
	rels  []string
	csv   map[string][]byte
	rules string
	// noML marks the Scale workload: no ML predicates, so blocking and
	// predication are off as in benchkit.Scale.
	noML bool
}

func newInput(ds *workload.Dataset, noML bool) (*input, error) {
	in := &input{ds: ds, rels: ds.DB.Names(), csv: make(map[string][]byte), noML: noML}
	for _, name := range in.rels {
		rel := ds.DB.Rel(name)
		// Gold labels and timestamps key cells by TID; a CSV round trip
		// re-assigns TIDs in row order, so the generated ones must be dense.
		for i, t := range rel.Tuples {
			if t.TID != i {
				return nil, fmt.Errorf("%s.%s: tuple %d has TID %d; gold labels would not survive the CSV round trip", ds.Name, name, i, t.TID)
			}
		}
		var buf bytes.Buffer
		if err := data.WriteCSV(&buf, rel); err != nil {
			return nil, fmt.Errorf("serialise %s.%s: %w", ds.Name, name, err)
		}
		in.csv[name] = buf.Bytes()
	}
	var sb strings.Builder
	for _, r := range ds.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	in.rules = sb.String()
	return in, nil
}

// pin adds this input's fingerprint to p.
func (in *input) pin(p pins) {
	ids := make([]string, len(in.ds.Rules))
	for i, r := range in.ds.Rules {
		ids[i] = r.ID
	}
	p[in.ds.Name+"/rules"] = strings.Join(ids, ",")
	for _, name := range in.rels {
		p[in.ds.Name+"/"+name+"/tuples"] = fmt.Sprint(in.ds.DB.Rel(name).Len())
		p[in.ds.Name+"/"+name+"/csv_fnv64"] = fnv64(in.csv[name])
	}
}

func (in *input) tuples() int { return in.ds.DB.TupleCount() }

// readCSV parses the CSV bytes into a fresh database.
func (in *input) readCSV() (*data.Database, error) {
	db := data.NewDatabase()
	for _, name := range in.rels {
		rel, err := data.ReadCSV(bytes.NewReader(in.csv[name]), name)
		if err != nil {
			return nil, fmt.Errorf("%s.%s: %w", in.ds.Name, name, err)
		}
		db.Add(rel)
	}
	return db, nil
}

// parseRules re-parses the rule text against the loaded schema, keeping
// the generator's rule ids (task and gold bookkeeping refer to them).
func (in *input) parseRules(db *data.Database) ([]*ree.Rule, error) {
	rules, err := ree.ParseAll(in.rules, db)
	if err != nil {
		return nil, fmt.Errorf("%s rules: %w", in.ds.Name, err)
	}
	for i, r := range rules {
		r.ID = in.ds.Rules[i].ID
	}
	return rules, nil
}

// env builds the evaluation environment over a loaded database: models
// trained for the applications, an empty one for Scale.
func (in *input) env(db *data.Database) *predicate.Env {
	if in.noML {
		return predicate.NewEnv(db)
	}
	cp := *in.ds
	cp.DB = db
	return cp.BuildEnv()
}

// rawValue reads a pre-correction cell of the generated database by its
// quality.CellKey ("Rel[tid].attr"), the hook ScoreCorrection expects.
func (in *input) rawValue(cellKey string) (data.Value, bool) {
	var tid int
	lb, rb := strings.IndexByte(cellKey, '['), strings.IndexByte(cellKey, ']')
	if lb < 0 || rb < lb || rb+2 > len(cellKey) {
		return data.Value{}, false
	}
	if _, err := fmt.Sscanf(cellKey[lb+1:rb], "%d", &tid); err != nil {
		return data.Value{}, false
	}
	rel := in.ds.DB.Rel(cellKey[:lb])
	if rel == nil {
		return data.Value{}, false
	}
	return rel.Value(tid, cellKey[rb+2:])
}

// score micro-averages correction quality against the generator's gold.
func (in *input) score(c *quality.Corrections) quality.PRF {
	return quality.ScoreCorrection(in.ds.Gold, c, in.rawValue).Overall()
}
