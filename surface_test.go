package rockbench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// stdlibMethods are method names that satisfy a standard-library
// interface (fmt.Stringer, error, sort.Interface, heap.Interface,
// encoding.Binary(Un)Marshaler): callers reach them through the
// interface, never by name.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalBinary": true, "UnmarshalBinary": true,
}

// surfaceAllow lists the exported names under internal/ that no non-test
// file references, each with the reason it stays.
var surfaceAllow = map[string]string{
	"cluster.NewFaultInjector":              "fault-test harness: the drain's kill/panic/slow tests build it",
	"cluster.FaultInjector.KillNode":        "fault-test harness: kills a worker mid-drain",
	"cluster.FaultInjector.PanicUnit":       "fault-test harness: panics one unit to drive retries",
	"cluster.FaultInjector.SlowUnit":        "fault-test harness: stalls one unit to drive stragglers and deadlines",
	"cluster/remote.Coordinator.WorkerMeta": "fault-test harness: reads a worker's PID to SIGKILL the real process",
	"data.Relation.Delete":                  "the column cache's delete handling is tested through it",
	"discovery.NewAnytime":                  "paper workflow (anytime discovery), ROADMAP item 14",
	"discovery.Anytime.Feedback":            "paper workflow (user feedback), ROADMAP item 14",
	"discovery.Anytime.Next":                "paper workflow (anytime discovery), ROADMAP item 14",
	"discovery.NoviceFeedback":              "paper workflow (novice user model), ROADMAP item 14",
	"discovery.PolyModel":                   "paper workflow (M_poly predicate), ROADMAP item 14",
	"ree.Rule.Satisfied":                    "reference semantics the executor is compared against, ROADMAP item 8",
	"ree.Rule.Measure":                      "reference semantics the executor is compared against, ROADMAP item 8",
	"truth.FixSet.SameEntity":               "the fix set's EID query; chase tests assert merges through it",
	"truth.FixSet.DistinctEntity":           "the fix set's EID query; chase tests assert splits through it",
	"ml.NewMonotoneValueConstraint":         "creator-critic constraint of the ranker (paper §3.2), trained in tests",
	"ml.NewMonotoneNumericConstraint":       "creator-critic constraint of the ranker (paper §3.2), trained in tests",
	"ml.LogisticRegression.Accuracy":        "the model's quality check; its tests score training through it",
	"kg.Graph.NumVertices":                  "graph size counter read by the kg and workload tests",
	"kg.Graph.NumEdges":                     "graph size counter read by the kg and workload tests",
	"kg.Graph.VerticesByLabel":              "label index of the graph, checked by the kg tests",
}

// TestSurface holds the line on dead surface: every exported top-level
// func, method, type, const and var declared in a non-test file under
// internal/ is referenced by name in some non-test .go file of the
// repository (bench/, cmd/ and examples/ included) other than at its own
// declaration, implements a standard-library interface, or is in
// surfaceAllow with a reason. A reference is any identifier with the
// name, so a selector, a struct field or an interface method of that
// name counts.
func TestSurface(t *testing.T) {
	fset := token.NewFileSet()
	var decls []exportedDecl
	declared := map[*ast.Ident]bool{}
	refs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
			for _, d := range exportedDecls(f) {
				declared[d.id] = true
				d.key = pkg + "." + d.key
				decls = append(decls, d)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				refs[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		if refs[d.id.Name] {
			if _, ok := surfaceAllow[d.key]; ok {
				t.Errorf("surfaceAllow lists %s, which now has a caller: drop the entry", d.key)
			}
			continue
		}
		if _, ok := surfaceAllow[d.key]; !ok {
			dead = append(dead, d.key)
		}
	}
	for key := range surfaceAllow {
		if !seen[key] {
			t.Errorf("surfaceAllow lists %s, which is not declared: drop the entry", key)
		}
	}
	if len(surfaceAllow) > 25 {
		t.Errorf("surfaceAllow has %d entries, at most 25", len(surfaceAllow))
	}
	sort.Strings(dead)
	for _, key := range dead {
		t.Errorf("%s is exported but no non-test file references it: delete it or unexport it", key)
	}
}

// exportedDecl is one exported declaration: its key (Name, or Recv.Name
// for a method) and the identifier that declares it.
type exportedDecl struct {
	key string
	id  *ast.Ident
}

// exportedDecls lists a file's exported top-level declarations, methods
// keyed by receiver type; methods that satisfy a standard-library
// interface are left out.
func exportedDecls(f *ast.File) []exportedDecl {
	var out []exportedDecl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				out = append(out, exportedDecl{d.Name.Name, d.Name})
			} else if !stdlibMethods[d.Name.Name] {
				out = append(out, exportedDecl{recvName(d.Recv.List[0].Type) + "." + d.Name.Name, d.Name})
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, exportedDecl{s.Name.Name, s.Name})
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							out = append(out, exportedDecl{id.Name, id})
						}
					}
				}
			}
		}
	}
	return out
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
