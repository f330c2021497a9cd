package profess

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	// docCommand matches a documented command line: bare, bin/… or
	// go run ./cmd/… form, with the CLI's name in group 1.
	docCommand = regexp.MustCompile(`^(?:bin/|go run \./cmd/)?(professim|professbench|professtrace)(?:\s|$)`)
	// shellOperator matches a word that ends the CLI's own arguments: a
	// pipe, a list operator or a redirection.
	shellOperator = regexp.MustCompile(`^(?:[|&;<>]|[0-9]+[<>])`)
)

// TestDocCommandFlags fails when a command line in a fenced code block of
// README.md or EXPERIMENTS.md passes professim, professbench or
// professtrace a flag that the CLI's cmd/<name>/main.go does not define:
// such a command exits with "flag provided but not defined" for every
// reader who copies it. Continuation lines (a trailing \) join their
// command, lines starting with # are skipped, and a line stops at " #"
// (a trailing comment) or at the first shell operator or redirection.
func TestDocCommandFlags(t *testing.T) {
	defined := map[string]map[string]bool{}
	for _, name := range []string{"professim", "professbench", "professtrace"} {
		defined[name] = cliFlags(t, filepath.Join("cmd", name, "main.go"))
	}
	checked := 0
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		type word struct {
			text string
			line int
		}
		var (
			cmd        []word
			fenced     bool
			continuing bool
		)
		for i, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if strings.HasPrefix(line, "```") {
				fenced, continuing, cmd = !fenced, false, nil
				continue
			}
			if !fenced || (!continuing && strings.HasPrefix(line, "#")) {
				continue
			}
			line, _, _ = strings.Cut(line, " #")
			line, continuing = strings.CutSuffix(strings.TrimSpace(line), `\`)
			for _, w := range strings.Fields(line) {
				cmd = append(cmd, word{w, i + 1})
			}
			if continuing {
				continue
			}
			var joined []string
			for _, w := range cmd {
				joined = append(joined, w.text)
			}
			m := docCommand.FindStringSubmatch(strings.Join(joined, " "))
			words := cmd
			cmd = nil
			if m == nil {
				continue
			}
			checked++
			for _, w := range words[len(strings.Fields(m[0])):] {
				if shellOperator.MatchString(w.text) {
					break
				}
				if !strings.HasPrefix(w.text, "-") || w.text == "-" {
					continue
				}
				flag, _, _ := strings.Cut(strings.TrimLeft(w.text, "-"), "=")
				if !defined[m[1]][flag] {
					t.Errorf("%s:%d: %s has no flag -%s", doc, w.line, m[1], flag)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no professim, professbench or professtrace command found in a fenced block")
	}
}

// cliFlags returns the names a CLI's main.go defines with
// flag.X("name", default, usage) calls. Three arguments with a string
// literal first is the shape of every flag definer in the flag package
// (String, Int64, Bool, Func, …); Lookup and Set take fewer.
func cliFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 3 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		lit, ok := call.Args[0].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		names[name] = true
		return true
	})
	if len(names) == 0 {
		t.Fatalf("%s defines no flags", path)
	}
	return names
}
