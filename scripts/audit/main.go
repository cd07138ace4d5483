// Command audit fails when an exported function or method declared in a
// non-test file under internal/ is used by no non-test file of the root
// module or of bench/: such a declaration is either dead or kept alive only
// by its tests, and internal/ has no callers outside these two trees.
//
// The scan is by name, with go/parser and go/ast alone. A function counts as
// used where a non-test file names it: pkg.F from a file that imports its
// package, or F from a file of its own package. A method counts as used
// where any non-test file selects its name (x.M, T.M) or an interface
// declares it; methods that only a standard-library interface reaches (an
// errors.As or errors.Is chain, say) go on the allowlist below, each with
// its reason.
//
// Usage: go run ./scripts/audit   (from the repository root; make lint runs
// it as make audit)
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// modulePath is the root module's path (go.mod); bench/ is compiled
// against it through a replace directive, so both trees import internal/
// by the same paths.
const modulePath = "chimera"

// oracle is exempt: make lint lets only tests import the reference replay
// interpreter, so every export of it is for tests by design.
const oracle = modulePath + "/internal/refinterp"

// allowlist holds exported methods that no file names, keyed as the audit
// reports them, each with the reason it stays.
var allowlist = map[string]string{
	"(*fleet.ApplyError).Unwrap": "errors.As and errors.Is reach it: callers match the wrapped fleet error through it",
}

// file is one parsed non-test Go file.
type file struct {
	dir string // import path of its package
	ast *ast.File
}

// decl is one exported declaration under internal/.
type decl struct {
	name string // as reported: pkg.F or (*pkg.T).M
	dir  string // import path of its package
	fn   string
	recv bool
	pos  token.Position
}

func main() {
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
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
		files = append(files, file{importPath(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "audit:", err)
		os.Exit(2)
	}

	var decls []decl
	for _, f := range files {
		if !strings.HasPrefix(f.dir, modulePath+"/internal/") || f.dir == oracle {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			dcl := decl{name: f.ast.Name.Name + "." + fd.Name.Name, dir: f.dir, fn: fd.Name.Name,
				pos: fset.Position(fd.Pos())}
			if fd.Recv != nil {
				dcl.recv = true
				dcl.name = "(" + recvName(f.ast.Name.Name, fd.Recv.List[0].Type) + ")." + fd.Name.Name
			}
			decls = append(decls, dcl)
		}
	}

	// funcUses holds "import path.F" for every function a file names;
	// methodUses every selected or interface-declared name.
	funcUses, methodUses := map[string]bool{}, map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name → import path
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = path
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// The declared name is not a use; its body is walked.
				if n.Recv != nil {
					ast.Inspect(n.Recv, inspectIdents(f.dir, funcUses))
				}
				ast.Inspect(n.Type, inspectIdents(f.dir, funcUses))
				if n.Body != nil {
					ast.Inspect(n.Body, func(m ast.Node) bool { return visit(m, f.dir, imports, funcUses, methodUses) })
				}
				return false
			}
			return visit(n, f.dir, imports, funcUses, methodUses)
		})
	}

	var unused []string
	for _, d := range decls {
		used := funcUses[d.dir+"."+d.fn]
		if d.recv {
			used = methodUses[d.fn]
		}
		if _, ok := allowlist[d.name]; ok || used {
			continue
		}
		unused = append(unused, fmt.Sprintf("%s: %s", d.pos, d.name))
	}
	for name := range allowlist {
		if !declared(decls, name) {
			unused = append(unused, "allowlist names no declaration: "+name)
		}
	}
	if len(unused) > 0 {
		sort.Strings(unused)
		fmt.Println("audit: exported under internal/ but used by no non-test file of the module or of bench/:")
		for _, u := range unused {
			fmt.Println("  " + u)
		}
		os.Exit(1)
	}
}

// visit records the uses one node makes and reports whether to descend.
func visit(n ast.Node, dir string, imports map[string]string, funcUses, methodUses map[string]bool) bool {
	switch n := n.(type) {
	case *ast.SelectorExpr:
		methodUses[n.Sel.Name] = true
		if x, ok := n.X.(*ast.Ident); ok {
			if path, ok := imports[x.Name]; ok {
				funcUses[path+"."+n.Sel.Name] = true
			}
		}
		// Sel names a field or a member of X, not a function of dir.
		ast.Inspect(n.X, func(m ast.Node) bool { return visit(m, dir, imports, funcUses, methodUses) })
		return false
	case *ast.InterfaceType:
		for _, m := range n.Methods.List {
			for _, name := range m.Names {
				methodUses[name.Name] = true
			}
		}
	case *ast.Ident:
		funcUses[dir+"."+n.Name] = true
	}
	return true
}

// inspectIdents records every identifier under a node as a use in dir.
func inspectIdents(dir string, funcUses map[string]bool) func(ast.Node) bool {
	return func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			funcUses[dir+"."+id.Name] = true
		}
		return true
	}
}

// importPath is the import path of the package in dir, relative to the
// repository root; bench/ is its own module, chimera/bench.
func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(dir)
}

// recvName renders a receiver type as the report names it: *pkg.T or pkg.T,
// type parameters dropped.
func recvName(pkg string, t ast.Expr) string {
	star := ""
	if s, ok := t.(*ast.StarExpr); ok {
		star, t = "*", s.X
	}
	switch x := t.(type) {
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	return star + pkg + "." + t.(*ast.Ident).Name
}

func declared(decls []decl, name string) bool {
	for _, d := range decls {
		if d.name == name {
			return true
		}
	}
	return false
}
