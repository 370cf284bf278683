package main

import (
	"flag"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strings"
	"testing"
)

// flagToken matches a flag name on a command line: a dash and a
// lowercase name after a space, so a negative value (-1) is no flag.
var flagToken = regexp.MustCompile(`(?:^|\s)-([a-z][a-z0-9-]*)`)

// serveLines returns each `vliterag serve` command line of a doc, its
// backslash continuations joined and a trailing # comment cut.
func serveLines(text string) []string {
	var out []string
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		_, cmd, ok := strings.Cut(lines[i], "vliterag serve")
		if !ok {
			continue
		}
		for strings.HasSuffix(strings.TrimSpace(cmd), `\`) && i+1 < len(lines) {
			i++
			cmd = strings.TrimSuffix(strings.TrimSpace(cmd), `\`) + " " + lines[i]
		}
		cmd, _, _ = strings.Cut(cmd, "#")
		out = append(out, cmd)
	}
	return out
}

// TestDocsNameServeFlags: every -flag on a `vliterag serve` line of
// README.md, this command's package comment and the verify skill's notes
// is a flag of the serve flag set, so a renamed or deleted flag cannot
// outlive its docs.
func TestDocsNameServeFlags(t *testing.T) {
	fs, _ := serveFlagSet(flag.ContinueOnError)
	pkg, err := parser.ParseFile(token.NewFileSet(), "main.go", nil, parser.ParseComments|parser.PackageClauseOnly)
	if err != nil {
		t.Fatal(err)
	}
	docs := map[string]string{"main.go package comment": pkg.Doc.Text()}
	for _, path := range []string{"../../README.md", "../../.claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		docs[path] = string(text)
	}
	for doc, text := range docs {
		checked := 0
		for _, cmd := range serveLines(text) {
			for _, m := range flagToken.FindAllStringSubmatch(cmd, -1) {
				checked++
				if fs.Lookup(m[1]) == nil {
					t.Errorf("%s: `vliterag serve%s` names -%s, which is no serve flag", doc, cmd, m[1])
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no serve flag found; the pattern has drifted", doc)
		}
	}
}
