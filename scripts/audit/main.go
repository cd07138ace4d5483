// Command audit type-checks the non-test code of the root module and of
// bench/ with go/types (the standard library from its export data) and
// fails on a package-level declaration under internal/ — func, method,
// const, var or type, exported or not — that no non-test file uses, and on
// a non-test import against the import table: only tests import the
// reference replay interpreter, and every import points down DESIGN.md §1's
// layer diagram. A declaration is used when types.Info.Uses of a non-test
// file reaches it or its generic origin; a method also when its type
// implements an interface that has it (error, an exported interface of an
// imported package, or one module code writes), or when the facade aliases
// its type and it is exported. Run it from the repository root: go run
// ./scripts/audit (make audit).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// rules is what the audit holds a module tree to.
type rules struct {
	facade string // the public package; facade/internal/... is audited
	oracle string // only tests may import it, and it is not audited
	// layers is the layer diagram as data, top line first: an import path,
	// or p/... for p and every package below it. Every package has a line,
	// and each non-test import points to a later line.
	layers []string
	allow  map[string]string // unused declarations that stay, with the reason
}

// chimera holds the repository to DESIGN.md §1, one line per line; bench/
// imports internal/ through a replace directive, by the same paths.
var chimera = rules{
	facade: "chimera",
	oracle: "chimera/internal/refinterp",
	layers: []string{"chimera/cmd/...", "chimera/examples/...", "chimera/scripts/...", "chimera/bench/...", "chimera",
		"chimera/internal/router", "chimera/internal/controller", "chimera/internal/serve", "chimera/internal/httpd",
		"chimera/internal/experiments", "chimera/internal/fleet", "chimera/internal/perfmodel", "chimera/internal/engine",
		"chimera/internal/sim", "chimera/internal/pipeline", "chimera/internal/trace", "chimera/internal/refinterp",
		"chimera/internal/schedule", "chimera/internal/model", "chimera/internal/optim", "chimera/internal/nn",
		"chimera/internal/tensor", "chimera/internal/collective", "chimera/internal/comm", "chimera/internal/compress",
		"chimera/internal/data", "chimera/internal/obs"},
	allow: map[string]string{
		"(*fleet.ApplyError).Unwrap": "errors.As and errors.Is reach it through an unexported interface",
	},
}

func main() {
	findings, err := audit([]string{".", "bench"}, chimera)
	if err != nil {
		fmt.Fprintln(os.Stderr, "audit:", err)
		os.Exit(2)
	}
	if len(findings) > 0 {
		fmt.Println("audit: unused under internal/, or against the import table:\n  " + strings.Join(findings, "\n  "))
		os.Exit(1)
	}
}

// pkg is one package as `go list -json` describes it.
type pkg struct {
	ImportPath, Dir, Export string
	GoFiles, Imports        []string
	Standard                bool
	Error                   *struct{ Err string }
}

// audit checks the trees rooted at dirs against r and returns its findings,
// sorted; an error means they could not be listed or type-checked.
func audit(dirs []string, r rules) ([]string, error) {
	var pkgs []pkg
	for _, dir := range dirs {
		cmd := exec.Command("go", "list", "-e", "-deps", "-export", "-json", "./...")
		cmd.Dir, cmd.Stderr = dir, os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
			pkgs = append(pkgs, pkg{})
			if err := dec.Decode(&pkgs[len(pkgs)-1]); err != nil {
				return nil, err
			}
		}
	}
	// The import table reads the listing alone, so an import that closes a
	// cycle is still named; the type-check needs a tree that builds.
	var findings []string
	exports, builds := map[string]string{}, true
	for _, p := range pkgs {
		if _, seen := exports[p.ImportPath]; !seen && !p.Standard {
			findings = append(findings, r.imports(p)...)
			if p.Error != nil {
				findings, builds = append(findings, p.ImportPath+": "+p.Error.Err), false
			}
		}
		exports[p.ImportPath] = p.Export
	}
	if !builds {
		sort.Strings(findings)
		return findings, nil
	}

	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	checked := map[string]*types.Package{}
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{},
		Instances: map[*ast.Ident]types.Instance{}}
	var module []*types.Package
	for _, p := range pkgs {
		if _, seen := checked[p.ImportPath]; seen || p.Standard {
			continue
		}
		files := make([]*ast.File, len(p.GoFiles))
		for i, name := range p.GoFiles {
			var err error
			if files[i], err = parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
		}
		tp, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			return nil, err
		}
		checked[p.ImportPath] = tp
		module = append(module, tp)
	}

	used := map[types.Object]bool{}
	for _, obj := range info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		used[obj] = true
	}
	facade := checked[r.facade].Scope()
	for _, name := range facade.Names() {
		if tn, ok := facade.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
			if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
				ms := types.NewMethodSet(types.NewPointer(named.Origin()))
				for i := range ms.Len() {
					if m := ms.At(i).Obj(); m.Exported() {
						used[m.(*types.Func).Origin()] = true
					}
				}
			}
		}
	}
	ifaces := interfaces(info, module)
	instances := map[*types.Named][]*types.Named{} // a generic type implements through these
	for _, in := range info.Instances {
		if t, ok := in.Type.(*types.Named); ok {
			instances[t.Origin()] = append(instances[t.Origin()], t)
		}
	}

	unused := map[string]bool{}
	report := func(obj types.Object, name string) {
		if unused[name] = !used[obj]; unused[name] && r.allow[name] == "" {
			findings = append(findings, fmt.Sprintf("%s: %s", fset.Position(obj.Pos()), name))
		}
	}
	for _, p := range module {
		if !strings.HasPrefix(p.Path(), r.facade+"/internal/") || p.Path() == r.oracle {
			continue
		}
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			report(obj, p.Name()+"."+name)
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				named := tn.Type().(*types.Named)
				for i := range named.NumMethods() {
					if m := named.Method(i); !reached(named, instances[named], m, ifaces) {
						recv := types.TypeString(m.Type().(*types.Signature).Recv().Type(), (*types.Package).Name)
						recv, _, _ = strings.Cut(recv, "[")
						report(m, "("+recv+")."+m.Name())
					}
				}
			}
		}
	}
	for name := range r.allow {
		if !unused[name] {
			findings = append(findings, "allowlist names no unused declaration: "+name)
		}
	}
	sort.Strings(findings)
	return findings, nil
}

// imports returns p's breaches of the import table.
func (r rules) imports(p pkg) []string {
	row := r.row(p.ImportPath)
	if row < 0 {
		return []string{p.ImportPath + " has no line in the layer table"}
	}
	var out []string
	for _, imp := range p.Imports {
		if to := r.row(imp); imp == r.oracle {
			out = append(out, fmt.Sprintf("%s imports %s, which only tests may import", p.ImportPath, imp))
		} else if to >= 0 && to <= row {
			out = append(out, fmt.Sprintf("%s imports %s, which is not below it in the layer table", p.ImportPath, imp))
		}
	}
	return out
}

// row is path's line in the layer table, or -1 if it has none.
func (r rules) row(path string) int {
	for i, l := range r.layers {
		if dir, ok := strings.CutSuffix(l, "/..."); path == l || ok && (path == dir || strings.HasPrefix(path, dir+"/")) {
			return i
		}
	}
	return -1
}

// interfaces returns, by method name, error, every interface type module
// code writes, and every exported interface of a package it imports.
func interfaces(info *types.Info, module []*types.Package) map[string][]*types.Interface {
	set := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
			set[it] = true
		}
	}
	for _, p := range module {
		for _, imp := range p.Imports() {
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						set[it] = true
					}
				}
			}
		}
	}
	byName := map[string][]*types.Interface{}
	for it := range set {
		for i := range it.NumMethods() {
			byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
		}
	}
	return byName
}

// reached reports whether t or *t implements an interface that has m; a
// generic t does when one of its instances does.
func reached(t *types.Named, instances []*types.Named, m *types.Func, ifaces map[string][]*types.Interface) bool {
	if t.TypeParams().Len() == 0 {
		instances = []*types.Named{t}
	}
	for _, it := range ifaces[m.Name()] {
		for _, t := range instances {
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
	}
	return false
}

// importerFunc lets a function serve as a types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
