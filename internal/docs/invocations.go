package docs

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// invocation is one documented command line of a command.
type invocation struct {
	where string   // file:line
	args  []string // the words after the command's name
}

// invocationDocs are the files whose command lines ParseInvocations reads,
// relative to the repository root, besides the skill notes that
// skillNotes matches.
var invocationDocs = []string{"README.md", "docs/operations.md", ".github/workflows/ci.yml"}

// skillNotes matches the repository's notes on building and running it.
const skillNotes = ".*/skills/*/SKILL.md"

// ParseInvocations hands parse every command line of the command
// cmd/<name> that the repository documents and reports each one it
// refuses on t: `go run ./cmd/<name> …` anywhere in the docs, a built
// `/tmp/<name> …` in the CI workflow, and a bare `<name> …` that starts a
// line of a fenced code block, in README.md, docs/operations.md, the skill
// notes and the CI workflow. root is the repository root. A line holding
// backticks is read only inside them, and a command line ends at a shell
// comment or operator. parse gets the words after the command's name, so a
// command's tests can hold every documented invocation to its flag set.
func ParseInvocations(t testing.TB, root, name string, parse func(args []string) error) {
	t.Helper()
	invs, err := invocations(root, name)
	if err != nil {
		t.Fatal(err)
	}
	if len(invs) == 0 {
		t.Fatalf("no documented invocation of %s", name)
	}
	for _, inv := range invs {
		if err := parse(inv.args); err != nil {
			t.Errorf("%s: %s %s: %v", inv.where, name, strings.Join(inv.args, " "), err)
		}
	}
}

// invocations returns every documented command line of cmd/<name>.
func invocations(root, name string) ([]invocation, error) {
	files, err := filepath.Glob(filepath.Join(root, skillNotes))
	if err != nil {
		return nil, err
	}
	for _, doc := range invocationDocs {
		files = append(files, filepath.Join(root, doc))
	}
	var out []invocation
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			spans := []string{line}
			if strings.Contains(line, "`") {
				spans = nil
				for j, s := range strings.Split(line, "`") {
					if j%2 == 1 {
						spans = append(spans, s)
					}
				}
			}
			for _, span := range spans {
				words := shellFields(span)
				for w, word := range words {
					run := w >= 2 && words[w-2] == "go" && words[w-1] == "run" && word == "./cmd/"+name
					built := word == "/tmp/"+name && (w == 0 || words[w-1] != "-o")
					bare := fenced && w == 0 && word == name
					if run || built || bare {
						out = append(out, invocation{
							where: fmt.Sprintf("%s:%d", file, i+1),
							args:  commandArgs(words[w+1:]),
						})
					}
				}
			}
		}
	}
	return out, nil
}

// commandArgs cuts words at the first shell comment or operator.
func commandArgs(words []string) []string {
	for i, w := range words {
		if w != "" && strings.ContainsRune("#|&;<>", rune(w[0])) || strings.HasPrefix(w, "2>") {
			return words[:i]
		}
	}
	return words
}

// shellFields splits a line into words the way the shell would for the
// commands the docs and the CI workflow use: on blanks, with single- and
// double-quoted spans kept whole and their quotes removed.
func shellFields(line string) []string {
	var fields []string
	var cur strings.Builder
	var quote rune
	inWord := false
	for _, r := range line {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			cur.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				fields = append(fields, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		fields = append(fields, cur.String())
	}
	return fields
}
