package docs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// repoRoot is the module root relative to this package. The walk below
// covers the module (cmd/, dftsp/, examples/, internal/) and bench/, which
// is a module of its own that drives the binaries and calls into internal
// packages.
const repoRoot = "../.."

// testOnlyExports names the exported internal functions and methods that
// only test files call, each with the reason it stays exported. A _test.go
// file cannot export across packages, so a helper that another package's
// tests import has to live in a non-test file.
var testOnlyExports = map[string]string{
	"repro/internal/noise.NewBatchPlan":           "builds fixed fault plans for the sim and core tests",
	"repro/internal/noise.None":                   "the fault-free injector of the sim and core tests",
	"repro/internal/f2.MustFromString":            "matrix literals in the tests of most packages",
	"repro/internal/f2.Mat.InSpan":                "span checks in the code, prep and core tests",
	"repro/internal/f2.Mat.Transpose":             "matrix identities in the code and core tests",
	"repro/internal/pauli.MustParse":              "Pauli literals in the circuit and tableau tests",
	"repro/internal/pauli.Pauli.Mul":              "stabilizer products in the tableau and core tests",
	"repro/internal/code.C4":                      "small fixture code of the prep and verify tests",
	"repro/internal/code.C6":                      "small fixture code of the prep and verify tests",
	"repro/internal/code.CSS.Dual":                "dual-code fixtures of the core and verify tests",
	"repro/internal/circuit.Circuit.AppendH":      "Hadamard circuits of the tableau tests",
	"repro/internal/cnf.Builder.AtMostKTotalizer": "the root cardinality-encoding ablation benchmark",
	"repro/internal/cnf.Builder.AtLeastK":         "the root cardinality-encoding ablation benchmark",
	"repro/internal/telemetry.Lint":               "validates live /metrics payloads in the server and telemetry tests",
	"repro/internal/sat.Solver.SetBudget":         "conflict budgets of the sat tests; kept until UNSAT answers are checked",
	"repro/internal/sat.Solver.NumClauses":        "clause counts of the sat tests; kept until UNSAT answers are checked",
	"repro/internal/sat.ParseDIMACS":              "loads the sat testdata instances",
	"repro/internal/sat.Solver.WriteDIMACS":       "DIMACS round trips of the sat tests",
	"repro/internal/sat.DIMACSError.Unwrap":       "errors.Is and errors.As call it through the unwrap interface",
}

// TestInternalExportsHaveCallers fails when an exported top-level function
// or method of an internal package has no reference from a non-test file:
// API that only tests call belongs in a _test.go file next to them, or in
// testOnlyExports with its reason.
func TestInternalExportsHaveCallers(t *testing.T) {
	files := parseRepo(t)
	decls := map[string]token.Position{}
	for _, f := range files {
		if !strings.HasPrefix(f.importPath, "repro/internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() && receiverExported(fd) {
				decls[f.importPath+"."+funcName(fd)] = f.fset.Position(fd.Pos())
			}
		}
	}
	funcRefs, methodRefs := references(files)
	keys := make([]string, 0, len(decls))
	for key := range decls {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		called := funcRefs[key] || methodRefs[methodName(key)]
		_, allowed := testOnlyExports[key]
		switch {
		case !called && !allowed:
			t.Errorf("%s: exported %s has no caller outside tests", decls[key], key)
		case called && allowed && methodName(key) == "":
			t.Errorf("%s: %s has a caller outside tests; drop it from testOnlyExports", decls[key], key)
		}
	}
	for key := range testOnlyExports {
		if _, ok := decls[key]; !ok {
			t.Errorf("testOnlyExports names %s, which is not declared", key)
		}
	}
}

type parsedFile struct {
	fset       *token.FileSet
	ast        *ast.File
	importPath string // of the package the file belongs to
}

// parseRepo parses every non-test Go file under repoRoot, skipping testdata
// and hidden or underscore directories as the go tool does.
func parseRepo(t *testing.T) []parsedFile {
	t.Helper()
	fset := token.NewFileSet()
	var files []parsedFile
	err := filepath.WalkDir(repoRoot, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != repoRoot && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(repoRoot, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, parsedFile{fset: fset, ast: f, importPath: path.Join("repro", filepath.ToSlash(rel))})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// references returns the package-qualified functions the files refer to
// ("repro/internal/x.Name") and the method names they select. A function
// counts as referenced by a qualified identifier in another package or by
// its bare name in its own package, except from inside its own body. A
// method counts as referenced by any selector of its name, since without
// type information the receiver of a selector is unknown.
func references(files []parsedFile) (funcs, methods map[string]bool) {
	funcs, methods = map[string]bool{}, map[string]bool{}
	for _, f := range files {
		imports := map[string]string{}
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		for _, d := range f.ast.Decls {
			self := ""
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				self = f.importPath + "." + fd.Name.Name
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					methods[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok {
						if p, ok := imports[x.Name]; ok {
							funcs[p+"."+n.Sel.Name] = true
							return false
						}
					}
				case *ast.Ident:
					if key := f.importPath + "." + n.Name; n.IsExported() && key != self {
						funcs[key] = true
					}
				}
				return true
			})
		}
	}
	return funcs, methods
}

// methodName returns the method of a "pkg.Type.Method" key, or "" for a
// plain function's "pkg.Func".
func methodName(key string) string {
	parts := strings.Split(key[strings.LastIndex(key, "/")+1:], ".")
	if len(parts) == 3 {
		return parts[2]
	}
	return ""
}
