// Command census reports exported names of internal/ packages that no
// code reached from a main, an init or the root package's API refers
// to, exported fields of exported *Options/*Config structs that no
// reached code outside their package assigns or names in a literal, and
// unexported fields of internal/ structs that code only assigns or
// names in a literal, never reads. Tests do not count; a method is also
// reached through its type when an interface declares its name. Run it
// from the module root (`make census`); it fails on findings
// allowlist.txt does not give a reason for, and on stale allowlist
// entries.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	allow, err := os.ReadFile("tools/census/allowlist.txt")
	if err != nil {
		fmt.Println("census:", err)
		os.Exit(1)
	}
	os.Exit(run(".", string(allow), os.Stdout))
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// decl is one top-level declaration: what it declares, uses and sets.
type decl struct{ objs, uses, sets []types.Object }

// scan records a declaration; a generic method's instance is its origin.
func scan(info *types.Info, node ast.Node) *decl {
	d := &decl{}
	use := func(id *ast.Ident) types.Object {
		if fn, ok := info.Uses[id].(*types.Func); ok {
			return fn.Origin()
		}
		return info.Uses[id]
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if o := use(n); o != nil {
				d.uses = append(d.uses, o)
			}
		case *ast.KeyValueExpr: // a struct literal's key is its field
			if id, ok := n.Key.(*ast.Ident); ok {
				d.sets = append(d.sets, use(id))
			}
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				if sel, ok := e.(*ast.SelectorExpr); ok {
					d.sets = append(d.sets, use(sel.Sel))
				}
			}
		}
		return true
	})
	return d
}

// recv is the type a method is declared on, or nil.
func recv(o types.Object) *types.TypeName {
	if fn, ok := o.(*types.Func); ok && fn.Signature().Recv() != nil {
		t := fn.Signature().Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		return t.(*types.Named).Origin().Obj()
	}
	return nil
}

func census(root string) (map[string]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	_, module, _ := strings.Cut(string(mod), "module ")
	module = strings.TrimSpace(strings.SplitN(module, "\n", 2)[0])

	// Module packages are checked here into one Info; the rest by source.
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "source", nil)
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}}
	pkgs, files := map[string]*types.Package{}, map[*types.Package][]*ast.File{}
	var load importerFunc
	load = func(path string) (*types.Package, error) {
		if path != module && !strings.HasPrefix(path, module+"/") {
			return std.Import(path)
		} else if p, ok := pkgs[path]; ok {
			return p, nil
		}
		dir := filepath.Join(root, strings.TrimPrefix(path, module))
		bp, err := build.ImportDir(dir, 0)
		if err != nil {
			return nil, err
		}
		var fs []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			fs = append(fs, f)
		}
		p, err := (&types.Config{Importer: load}).Check(path, fset, fs, info)
		if err == nil {
			pkgs[path], files[p] = p, fs
		}
		return p, err
	}
	err = filepath.Walk(root, func(path string, fi os.FileInfo, err error) error {
		if err != nil || !fi.IsDir() {
			return err
		}
		if path != root && (strings.HasPrefix(fi.Name(), ".") || fi.Name() == "testdata") {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(root, path)
		if _, err = load(strings.TrimSuffix(module+"/"+filepath.ToSlash(rel), "/.")); errors.As(err, new(*build.NoGoError)) {
			return nil // no non-test Go files here
		}
		return err
	})
	if err != nil {
		return nil, err
	}

	// A field's reads are its uses less its sets.
	reads := map[*types.Var]int{}
	count := func(objs []types.Object, n int) {
		for _, o := range objs {
			if v, ok := o.(*types.Var); ok && v.IsField() {
				reads[v.Origin()] += n
			}
		}
	}

	// Roots: main, init, blank declarations and the root package's API.
	declOf, methods := map[types.Object]*decl{}, map[types.Object][]types.Object{}
	var queue []types.Object
	for p, fs := range files {
		library := p.Name() != "main" && !strings.Contains(p.Path()+"/", "/internal/")
		for _, f := range fs {
			for _, fd := range f.Decls {
				d := scan(info, fd)
				count(d.uses, 1)
				count(d.sets, -1)
				var ids []*ast.Ident
				switch fd := fd.(type) {
				case *ast.FuncDecl:
					ids = []*ast.Ident{fd.Name}
					if n := fd.Name.Name; fd.Recv == nil && (n == "init" || n == "main" && p.Name() == "main") {
						queue = append(queue, info.Defs[fd.Name])
					}
				case *ast.GenDecl:
					for _, spec := range fd.Specs {
						if s, ok := spec.(*ast.ValueSpec); ok {
							ids = append(ids, s.Names...)
						} else if s, ok := spec.(*ast.TypeSpec); ok {
							ids = append(ids, s.Name)
						}
					}
				}
				for _, id := range ids {
					o := info.Defs[id]
					d.objs, declOf[o] = append(d.objs, o), d
					if tn := recv(o); tn != nil {
						methods[tn] = append(methods[tn], o)
					}
					if id.Name == "_" || library && o.Exported() {
						queue = append(queue, o)
					}
				}
			}
		}
	}

	// A call through an interface reaches every method of its name.
	iface := map[string]bool{"Error": true}
	for p := range files {
		for _, q := range append(p.Imports(), p) {
			for _, name := range q.Scope().Names() {
				if it, ok := q.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
					for i := range it.NumMethods() {
						iface[it.Method(i).Name()] = true
					}
				}
			}
		}
	}

	reached, setOutside := map[types.Object]bool{}, map[types.Object]bool{}
	for len(queue) > 0 {
		o := queue[len(queue)-1]
		if queue = queue[:len(queue)-1]; reached[o] {
			continue
		}
		reached[o] = true
		if d := declOf[o]; d != nil {
			queue = append(append(queue, d.uses...), d.objs...)
			for _, f := range d.sets {
				setOutside[f] = setOutside[f] || f != nil && f.Pkg() != o.Pkg()
			}
		}
		for _, m := range methods[o] {
			if iface[m.Name()] {
				queue = append(queue, m)
			}
		}
	}

	findings := map[string]string{}
	for o := range declOf {
		name := strings.TrimPrefix(strings.TrimPrefix(o.Pkg().Path(), module+"/internal/"), module+"/") + "."
		if tn := recv(o); tn != nil && !reached[tn] {
			continue // the type itself is the finding
		} else if tn != nil {
			name += tn.Name() + "."
		}
		name += o.Name()
		internal := strings.Contains(o.Pkg().Path()+"/", "/internal/")
		if o.Exported() && !reached[o] && internal {
			findings[name] = "unreached"
		}
		tn, _ := o.(*types.TypeName)
		st, ok := o.Type().Underlying().(*types.Struct)
		if !ok || tn == nil || tn.IsAlias() {
			continue
		}
		options := strings.HasSuffix(o.Name(), "Options") || strings.HasSuffix(o.Name(), "Config")
		for i := range st.NumFields() {
			f := st.Field(i)
			if options && o.Exported() && reached[o] && f.Exported() && !setOutside[f] {
				findings[name+"."+f.Name()] = "unset"
			}
			if internal && !f.Exported() && !f.Embedded() && f.Name() != "_" && reads[f] <= 0 {
				findings[name+"."+f.Name()] = "write-only"
			}
		}
	}
	return findings, nil
}

// run prints every finding the allowlist does not excuse and every
// malformed or stale entry, and returns 1 if it printed anything. An
// entry ending in ".*" excuses every finding under that prefix.
func run(root, allow string, w io.Writer) int {
	findings, err := census(root)
	if err != nil {
		fmt.Fprintln(w, "census:", err)
		return 1
	}
	var bad []string
	n := len(findings)
	for _, line := range strings.Split(allow, "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		prefix, wild := strings.CutSuffix(name, ".*")
		excused := 0
		for f := range findings {
			if f == name || wild && strings.HasPrefix(f, prefix+".") {
				delete(findings, f)
				excused++
			}
		}
		if strings.TrimSpace(reason) == "" {
			bad = append(bad, "allowlist entry without a reason: "+name)
		} else if excused == 0 {
			bad = append(bad, "stale allowlist entry: "+name)
		}
	}
	for name, kind := range findings {
		bad = append(bad, kind+" "+name)
	}
	if sort.Strings(bad); len(bad) > 0 {
		fmt.Fprintf(w, "%s\ncensus: %d problem(s): delete the code, move it to export_test.go, or allowlist it with a reason\n", strings.Join(bad, "\n"), len(bad))
		return 1
	}
	fmt.Fprintf(w, "census: clean (%d allowlisted)\n", n)
	return 0
}
