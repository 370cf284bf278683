package vectorliterag_test

import (
	"encoding/json"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docIdent matches a backticked `pkg.Name` or `pkg.Type.Member`.
// Benchmark metric names share the dotted shape but are snake_case, so
// a span with an underscore is not an identifier; docMetric matches
// those.
var docIdent = regexp.MustCompile("`([a-z][a-z0-9]*)\\.([A-Za-z][A-Za-z0-9]*)(?:\\.([A-Za-z][A-Za-z0-9]*))?`")

// docMetric matches a backticked `pkg.metric_name` (or
// `pkg.layer.metric_name`): lowercase dotted segments after a package
// name, with an underscore after the first dot.
var docMetric = regexp.MustCompile("`([a-z][a-z0-9]*(?:\\.[a-z][a-z0-9_]*)+)`")

// docFile matches a backticked Go file reference, `name.go` or
// `dir/name.go`, optionally with a `:line` suffix.
var docFile = regexp.MustCompile("`([\\w./-]+\\.go)(?::[0-9]+)?`")

// docMake matches a backticked `make <target>`.
var docMake = regexp.MustCompile("`make ([\\w.-]+)`")

// docExample matches an Example function's name as a doc cites it,
// `Example`, `ExampleName` or `ExampleName_suffix`, in prose or in a
// `go test -run` line; the plural "Examples" is not a name.
var docExample = regexp.MustCompile(`\bExample(?:[A-Z][A-Za-z0-9]*)?(?:_[a-z][A-Za-z0-9]*)?\b`)

// makeRule matches a rule line of the Makefile and captures its
// target; a variable assignment (`X := y`) is not a rule.
var makeRule = regexp.MustCompile(`(?m)^([\w.-]+):(?:[^=]|$)`)

// TestDocIdentifiersResolve: every Go identifier README.md and
// ARCHITECTURE.md name as `pkg.Name` or `pkg.Type.Member` resolves, and
// so does every benchmark metric they name as `pkg.metric_name`: it is
// an end-to-end or per-layer metric BENCHMARK.json declares.
// When pkg is a package of this module, Name is declared in its source:
// a top-level name or, as shorthand, a method of one of the package's
// types; Member is a field or method declared on Type. Otherwise pkg
// must be a standard-library package, so a doc naming a package that
// no longer exists fails. Every backticked `name.go` names a file in
// the repository, every backticked `make <target>` a rule of the
// Makefile, and every Example name an Example function of the root
// package's tests.
func TestDocIdentifiersResolve(t *testing.T) {
	decls := moduleDecls(t)
	examples := exampleFuncs(t)
	files := repoFiles(t)
	targets := makeTargets(t)
	metrics := benchmarkMetrics(t)
	std := map[string]bool{}
	isStd := func(pkg string) bool {
		if _, ok := std[pkg]; !ok {
			p, err := build.Default.Import(pkg, "", build.FindOnly)
			std[pkg] = err == nil && p.Goroot
		}
		return std[pkg]
	}
	checked := 0
	for _, doc := range []string{"README.md", "ARCHITECTURE.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range docFile.FindAllStringSubmatch(line, -1) {
				checked++
				if !files[m[1]] {
					t.Errorf("%s:%d: %s names no file in the repository", doc, i+1, m[0])
				}
			}
			for _, m := range docMetric.FindAllStringSubmatch(line, -1) {
				if _, rest, _ := strings.Cut(m[1], "."); !strings.Contains(rest, "_") {
					continue // an identifier or a file name, not a metric
				}
				checked++
				if !metrics[m[1]] {
					t.Errorf("%s:%d: %s is no metric BENCHMARK.json declares", doc, i+1, m[0])
				}
			}
			for _, name := range docExample.FindAllString(line, -1) {
				checked++
				if !examples[name] {
					t.Errorf("%s:%d: %s is no Example function of the root package", doc, i+1, name)
				}
			}
			for _, m := range docMake.FindAllStringSubmatch(line, -1) {
				checked++
				if !targets[m[1]] {
					t.Errorf("%s:%d: %s names no Makefile target", doc, i+1, m[0])
				}
			}
			for _, m := range docIdent.FindAllStringSubmatch(line, -1) {
				if (m[2] == "go" && m[3] == "") || m[0] == "`pkg.Name`" || m[0] == "`pkg.Type.Member`" {
					continue // a file reference, or the pattern naming itself
				}
				checked++
				if pkg, ok := decls[m[1]]; ok {
					if !pkg.resolves(m[2], m[3]) {
						t.Errorf("%s:%d: %s is not declared in package %s", doc, i+1, m[0], m[1])
					}
				} else if !isStd(m[1]) {
					t.Errorf("%s:%d: %s names %s, neither a package of this module nor of the standard library", doc, i+1, m[0], m[1])
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no identifiers found in the docs; the pattern has drifted")
	}
}

// TestDocExampleNames: the doc check reads an Example name off a
// `go test -run` line, anchored or not, and a misspelt name resolves to
// no Example function.
func TestDocExampleNames(t *testing.T) {
	examples := exampleFuncs(t)
	for line, want := range map[string]string{
		"go test -run ExampleServeLive -v .":        "ExampleServeLive",
		"go test -run 'ExampleServeCluster$' -v .":  "ExampleServeCluster",
		"and `ExampleServeTenants_brownout`.":       "ExampleServeTenants_brownout",
		"go test -run ExampleServeLiv -v .":         "ExampleServeLiv",
		"the package's Examples tour the full API.": "",
	} {
		got := strings.Join(docExample.FindAllString(line, -1), " ")
		if got != want {
			t.Errorf("%q: read %q, want %q", line, got, want)
		}
	}
	if examples["ExampleServeLiv"] {
		t.Error("the misspelt ExampleServeLiv resolves to an Example function")
	}
}

// exampleFuncs returns the Example functions the root package's test
// files declare.
func exampleFuncs(t *testing.T) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Example") {
				out[fn.Name.Name] = true
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("no Example functions in the root package's tests")
	}
	return out
}

// benchmarkMetrics returns the end-to-end and per-layer metric names
// BENCHMARK.json declares.
func benchmarkMetrics(t *testing.T) map[string]bool {
	t.Helper()
	text, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(text, &decl); err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		out[m.Name] = true
	}
	return out
}

// makeTargets returns the targets the Makefile defines rules for.
func makeTargets(t *testing.T) map[string]bool {
	t.Helper()
	text, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, m := range makeRule.FindAllStringSubmatch(string(text), -1) {
		out[m[1]] = true
	}
	return out
}

// repoFiles returns every Go file of the repository under its
// slash-separated path and under each path suffix (so `name.go` and
// `pkg/name.go` both resolve), dot-directories excluded.
func repoFiles(t *testing.T) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			parts := strings.Split(filepath.ToSlash(path), "/")
			for i := range parts {
				out[strings.Join(parts[i:], "/")] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// pkgDecls is one package's declared names: top-level identifiers,
// every method name, and for each type its fields and methods.
type pkgDecls struct {
	top     map[string]bool
	methods map[string]bool
	members map[string]map[string]bool
}

func (p *pkgDecls) resolves(name, member string) bool {
	if member == "" {
		return p.top[name] || p.methods[name]
	}
	return p.members[name][member]
}

func (p *pkgDecls) addMember(typ, member string) {
	if p.members[typ] == nil {
		p.members[typ] = map[string]bool{}
	}
	p.members[typ][member] = true
}

// moduleDecls parses every non-main package of the module (test files,
// testdata and dot-directories excluded), keyed by package name.
func moduleDecls(t *testing.T) map[string]*pkgDecls {
	t.Helper()
	out := map[string]*pkgDecls{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if f.Name.Name == "main" {
			return nil
		}
		p := out[f.Name.Name]
		if p == nil {
			p = &pkgDecls{top: map[string]bool{}, methods: map[string]bool{}, members: map[string]map[string]bool{}}
			out[f.Name.Name] = p
		}
		collectDecls(p, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func collectDecls(p *pkgDecls, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				p.top[d.Name.Name] = true
			} else {
				p.methods[d.Name.Name] = true
				p.addMember(receiverName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						p.top[n.Name] = true
					}
				case *ast.TypeSpec:
					p.top[s.Name.Name] = true
					var fields *ast.FieldList
					switch ty := s.Type.(type) {
					case *ast.StructType:
						fields = ty.Fields
					case *ast.InterfaceType:
						fields = ty.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						for _, n := range fl.Names {
							p.addMember(s.Name.Name, n.Name)
						}
					}
				}
			}
		}
	}
}

// receiverName returns the type a method receiver names, through a
// pointer.
func receiverName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
