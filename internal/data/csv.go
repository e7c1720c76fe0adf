package data

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// WriteCSV serialises the relation with a two-row header: attribute names,
// then attribute types. The first column is always the EID.
func WriteCSV(w io.Writer, r *Relation) error {
	cw := csv.NewWriter(w)
	header := append([]string{"eid"}, r.Schema.AttrNames()...)
	if err := cw.Write(header); err != nil {
		return err
	}
	types := make([]string, 0, len(r.Schema.Attrs)+1)
	types = append(types, "string")
	for _, a := range r.Schema.Attrs {
		types = append(types, a.Type.String())
	}
	if err := cw.Write(types); err != nil {
		return err
	}
	row := make([]string, len(r.Schema.Attrs)+1)
	for _, t := range r.Tuples {
		row[0] = t.EID
		for i, v := range t.Values {
			row[i+1] = v.String()
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a relation written by WriteCSV.
func ReadCSV(rd io.Reader, name string) (*Relation, error) {
	cr := csv.NewReader(rd)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read csv header: %w", err)
	}
	typesRow, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("read csv types: %w", err)
	}
	if len(header) != len(typesRow) {
		return nil, fmt.Errorf("csv header/types arity mismatch: %d vs %d", len(header), len(typesRow))
	}
	if len(header) == 0 || header[0] != "eid" {
		return nil, fmt.Errorf("csv must start with an eid column")
	}
	attrs := make([]Attribute, 0, len(header)-1)
	for i := 1; i < len(header); i++ {
		t, err := parseType(typesRow[i])
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, Attribute{Name: header[i], Type: t})
	}
	schema, err := NewSchema(name, attrs...)
	if err != nil {
		return nil, err
	}
	rel := NewRelation(schema)
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("read csv row: %w", err)
		}
		vals := make([]Value, len(attrs))
		for i := range attrs {
			v, err := Parse(attrs[i].Type, row[i+1])
			if err != nil {
				return nil, fmt.Errorf("row %d col %s: %w", rel.Len(), attrs[i].Name, err)
			}
			vals[i] = v
		}
		rel.Insert(row[0], vals...)
	}
	return rel, nil
}

func parseType(s string) (Type, error) {
	switch strings.TrimSpace(s) {
	case "string":
		return TString, nil
	case "int":
		return TInt, nil
	case "float":
		return TFloat, nil
	case "bool":
		return TBool, nil
	case "time":
		return TTime, nil
	default:
		return TString, fmt.Errorf("unknown attribute type %q", s)
	}
}

// ReadCSVDir loads a database from a directory of <Relation>.csv files in
// the format of WriteCSV; other files and subdirectories are skipped. A
// directory without a .csv file is an error. The rock CLI and its worker
// processes both load through it, so a replica reads what its
// coordinator reads.
func ReadCSVDir(dir string) (*Database, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	db := NewDatabase()
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".csv") {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		rel, err := ReadCSV(f, strings.TrimSuffix(e.Name(), ".csv"))
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		db.Add(rel)
	}
	if len(db.Relations) == 0 {
		return nil, fmt.Errorf("no .csv relations in %s", dir)
	}
	return db, nil
}
