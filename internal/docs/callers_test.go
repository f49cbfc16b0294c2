package docs

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
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
	"repro/internal/f2.Mat.Solve":                 "linear solves of the f2 tests and of the sim tests' tableau reference engine",
	"repro/internal/noise.Model.Rate":             "per-location rates of the noise tests and the sim tests' K >= 2 references",
	"repro/internal/pauli.MustParse":              "Pauli literals in the circuit and tableau tests",
	"repro/internal/pauli.Pauli.Mul":              "stabilizer products in the tableau and core tests",
	"repro/internal/pauli.Pauli.Equal":            "Pauli comparisons in the pauli and circuit tests",
	"repro/internal/tableau.Tableau.Z":            "Pauli Z faults and recoveries of the sim tests' tableau reference engine",
	"repro/internal/code.C4":                      "small fixture code of the prep and verify tests",
	"repro/internal/code.C6":                      "small fixture code of the prep and verify tests",
	"repro/internal/code.CSS.Dual":                "dual-code fixtures of the core and verify tests",
	"repro/internal/circuit.Circuit.AppendH":      "Hadamard circuits of the tableau tests",
	"repro/internal/cnf.Builder.AtMostKTotalizer": "the root cardinality-encoding ablation benchmark",
	"repro/internal/cnf.Builder.AtLeastK":         "the root cardinality-encoding ablation benchmark",
	"repro/internal/telemetry.Lint":               "validates live /metrics payloads in the server and telemetry tests",
	"repro/internal/sat.Solver.Solve":             "decides formulas in the sat, cnf and root benchmark tests; production calls SolveContext",
	"repro/internal/sat.Solver.SetBudget":         "conflict budgets of the sat tests; kept until UNSAT answers are checked",
	"repro/internal/sat.Solver.NumClauses":        "clause counts of the sat tests; kept until UNSAT answers are checked",
	"repro/internal/sat.ParseDIMACS":              "loads the sat testdata instances",
	"repro/internal/sat.Solver.WriteDIMACS":       "DIMACS round trips of the sat tests",
	"repro/internal/docs.ParseInvocations":        "holds the documented command lines to each command's flag set in the cmd tests",
	"repro/internal/code.Catalog":                 "iterates every built catalog code in the tests of most packages",
	"repro/internal/sat.DIMACSError.Unwrap":       "errors.Is and errors.As call it through the unwrap interface",
	"repro/internal/decoder.Lookup.Decode":        "the lookup-table judge of the decoder tests and the root shot-loop baseline",
}

// TestInternalExportsHaveCallers fails when an exported top-level function
// or method of an internal package has no reference from a non-test file:
// API that only tests call belongs in a _test.go file next to them, or in
// testOnlyExports with its reason. References are resolved with go/types,
// so a method counts only when a selector's receiver is its own type, or an
// interface the type implements whose method of that name is called (fmt
// counts as calling fmt.Stringer's String).
func TestInternalExportsHaveCallers(t *testing.T) {
	pkgs := checkRepo(t)
	decls := map[string]*types.Func{}
	pos := map[string]token.Position{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.path, "repro/internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.IsExported() && receiverExported(fd) {
					fn := p.info.Defs[fd.Name].(*types.Func)
					decls[funcKey(fn)] = fn
					pos[funcKey(fn)] = p.fset.Position(fd.Pos())
				}
			}
		}
	}
	refs, ifaces := references(pkgs)
	// fmt calls String through fmt.Stringer whenever it formats a value.
	fmtPkg, err := importer.ForCompiler(token.NewFileSet(), "gc", nil).Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	stringer := fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface)
	ifaces = append(ifaces, ifaceCall{stringer, "String"})
	keys := make([]string, 0, len(decls))
	for key := range decls {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		called := refs[key] || calledThroughInterface(decls[key], ifaces)
		_, allowed := testOnlyExports[key]
		switch {
		case !called && !allowed:
			t.Errorf("%s: exported %s has no caller outside tests", pos[key], key)
		case called && allowed:
			t.Errorf("%s: %s has a caller outside tests; drop it from testOnlyExports", pos[key], key)
		}
	}
	for key := range testOnlyExports {
		if _, ok := decls[key]; !ok {
			t.Errorf("testOnlyExports names %s, which is not declared", key)
		}
	}
}

// repoPackage is one type-checked package of the walk.
type repoPackage struct {
	path  string // import path
	fset  *token.FileSet
	files []*ast.File
	types *types.Package
	info  *types.Info
	err   error
}

// repoImporter type-checks the walked packages on demand, each once, and
// imports every other path (the standard library) from export data.
type repoImporter struct {
	fset *token.FileSet
	pkgs map[string]*repoPackage
	std  types.Importer
}

// Import implements types.Importer.
func (r *repoImporter) Import(p string) (*types.Package, error) {
	if rp, ok := r.pkgs[p]; ok {
		return r.check(rp)
	}
	return r.std.Import(p)
}

// check type-checks rp after the packages it imports.
func (r *repoImporter) check(rp *repoPackage) (*types.Package, error) {
	if rp.types != nil || rp.err != nil {
		return rp.types, rp.err
	}
	rp.info = &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: r}
	rp.types, rp.err = conf.Check(rp.path, r.fset, rp.files, rp.info)
	return rp.types, rp.err
}

// checkRepo parses and type-checks every non-test Go file under repoRoot,
// skipping testdata and hidden or underscore directories as the go tool
// does. bench/ is the module repro/bench, so its import paths follow the
// same directory rule as the root module's.
func checkRepo(t *testing.T) []*repoPackage {
	t.Helper()
	r := &repoImporter{fset: token.NewFileSet(), pkgs: map[string]*repoPackage{}}
	r.std = importer.ForCompiler(r.fset, "gc", nil)
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
		f, err := parser.ParseFile(r.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(repoRoot, filepath.Dir(p))
		if err != nil {
			return err
		}
		ip := path.Join("repro", filepath.ToSlash(rel))
		rp := r.pkgs[ip]
		if rp == nil {
			rp = &repoPackage{path: ip, fset: r.fset}
			r.pkgs[ip] = rp
		}
		rp.files = append(rp.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(r.pkgs))
	for p := range r.pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	pkgs := make([]*repoPackage, 0, len(paths))
	for _, p := range paths {
		if _, err := r.check(r.pkgs[p]); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
		pkgs = append(pkgs, r.pkgs[p])
	}
	return pkgs
}

// ifaceCall is a call of method name through interface iface.
type ifaceCall struct {
	iface *types.Interface
	name  string
}

// references returns the keys ("pkg.Func", "pkg.Type.Method") of the
// functions and methods the files refer to, except from inside their own
// bodies, and the methods they call through an interface.
func references(pkgs []*repoPackage) (map[string]bool, []ifaceCall) {
	refs := map[string]bool{}
	var ifaces []ifaceCall
	for _, p := range pkgs {
		for _, f := range p.files {
			for _, d := range f.Decls {
				var self types.Object
				if fd, ok := d.(*ast.FuncDecl); ok {
					self = p.info.Defs[fd.Name]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := p.info.Uses[id].(*types.Func)
					if !ok || fn.Origin() == self {
						return true
					}
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						ifaces = append(ifaces, ifaceCall{recv.Type().Underlying().(*types.Interface), fn.Name()})
					} else {
						refs[funcKey(fn)] = true
					}
					return true
				})
			}
		}
	}
	return refs, ifaces
}

// calledThroughInterface reports whether method fn is reached by a call
// through an interface its receiver type implements.
func calledThroughInterface(fn *types.Func, ifaces []ifaceCall) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, c := range ifaces {
		if c.name == fn.Name() && (types.Implements(t, c.iface) || types.Implements(types.NewPointer(t), c.iface)) {
			return true
		}
	}
	return false
}

// funcKey returns "pkg.Func" for a function and "pkg.Type.Method" for a
// method of a named type.
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}
