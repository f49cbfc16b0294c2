package docs

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ciWorkflow is the CI workflow whose named test steps the guard checks.
const ciWorkflow = repoRoot + "/.github/workflows/ci.yml"

// TestCIRunPatternsMatchTests fails when an alternative of a `go test -run`
// pattern in the CI workflow matches no Test, Fuzz, Benchmark or Example
// function of the packages that command tests. A renamed or deleted test
// would otherwise drop silently out of the CI step that names it.
func TestCIRunPatternsMatchTests(t *testing.T) {
	data, err := os.ReadFile(ciWorkflow)
	if err != nil {
		t.Fatal(err)
	}
	funcs := testFuncs(t)
	commands := 0
	for i, line := range strings.Split(string(data), "\n") {
		args := shellFields(line)
		pattern, pkgs, ok := runPattern(args)
		if !ok {
			continue
		}
		commands++
		if pattern == "^$" { // runs no tests on purpose, beside -bench or -fuzz
			continue
		}
		// -run matches top-level names against the part before the first
		// slash; the rest selects subtests.
		top, _, _ := strings.Cut(pattern, "/")
		for _, alt := range alternatives(top) {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("%s:%d: alternative %q of -run %q: %v", ciWorkflow, i+1, alt, pattern, err)
				continue
			}
			if !matchesAny(re, funcs, pkgs) {
				t.Errorf("%s:%d: alternative %q of -run %q matches no test function in %v", ciWorkflow, i+1, alt, pattern, pkgs)
			}
		}
	}
	if commands == 0 {
		t.Fatalf("%s: no go test -run command found", ciWorkflow)
	}
}

// testFuncs maps each package directory (relative to repoRoot, "." for the
// root) to the Test, Fuzz, Benchmark and Example functions of its test
// files.
func testFuncs(t *testing.T) map[string][]string {
	t.Helper()
	prefix := regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)`)
	fset := token.NewFileSet()
	funcs := map[string][]string{}
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
		if !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(repoRoot, filepath.Dir(p))
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && prefix.MatchString(fd.Name.Name) {
				funcs[filepath.ToSlash(dir)] = append(funcs[filepath.ToSlash(dir)], fd.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// runPattern returns the -run pattern of a `go test` command and the
// package directories it tests ("." when it names none).
func runPattern(args []string) (pattern string, pkgs []string, ok bool) {
	test := false
	for i, a := range args {
		switch {
		case i > 0 && args[i-1] == "go" && a == "test":
			test = true
		case test && a == "-run" && i+1 < len(args):
			pattern, ok = args[i+1], true
		case test && (a == "." || strings.HasPrefix(a, "./")):
			pkgs = append(pkgs, a)
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	return pattern, pkgs, ok
}

// alternatives splits a regular expression at its top-level '|'s.
func alternatives(pattern string) []string {
	var alts []string
	depth, start := 0, 0
	for i := 0; i < len(pattern); i++ {
		switch pattern[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				alts = append(alts, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(alts, pattern[start:])
}

// matchesAny reports whether re matches a test function of one of the
// package patterns ("./x/", "./x/..." or ".").
func matchesAny(re *regexp.Regexp, funcs map[string][]string, pkgs []string) bool {
	for _, pkg := range pkgs {
		dir, recursive := strings.CutSuffix(pkg, "...")
		dir = filepath.ToSlash(filepath.Clean(strings.TrimSuffix(dir, "/")))
		if dir == "" {
			dir = "."
		}
		for d, names := range funcs {
			if d != dir && !(recursive && (dir == "." || strings.HasPrefix(d, dir+"/"))) {
				continue
			}
			for _, name := range names {
				if re.MatchString(name) {
					return true
				}
			}
		}
	}
	return false
}
