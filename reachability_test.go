package monitorless_test

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportedNoCallerAllowlist names the exported internal/ package-level
// declarations that may stay without a non-test caller, each with the
// reason. At most three: an entry that gains a caller or stops existing
// fails the test.
var exportedNoCallerAllowlist = map[string]string{
	"kneedle.Concave":   "zero value and documented default of Curvature: callers select it by leaving the field unset",
	"apps.SockshopLoad": "the Locust-style Sockshop load fixture shared by the apps and dataset tests",
}

// methodNoCallerAllowlist is the same list for exported methods, keyed
// pkg.Type.Method. At most five.
var methodNoCallerAllowlist = map[string]string{
	"forest.Forest.DropQuant":           "the float-walk reference the core, serving and experiments tests compare the packed walk against; a cross-package test hook cannot live in export_test.go",
	"forest.QuantForest.SetParallelism": "the worker-count hook through which the experiments and serving tests pin the packed walk's worker invariance on their models; production fixes the count at Compile from forest.Config.Parallelism, and a cross-package test hook cannot live in export_test.go",
}

const modulePath = "monitorless"

// TestExportedNamesHaveCallers keeps every exported package-level func,
// type, var and const under internal/, and every exported method declared
// there, reachable from non-test code: the internal packages themselves,
// cmd/, examples/, scripts/, the root package and the bench/ module.
//
// Every non-test package is type-checked (go/types; monitorless/... imports
// resolve to this tree, the standard library to its export data). A name is
// used when a non-test identifier outside its own declaration resolves to
// it; a method's receiver counts as part of its type's declaration. A method
// is also used when its receiver type implements a loaded interface that
// declares it, so calls through an interface (a pipeline Step, a gob hook,
// a Stringer) count.
func TestExportedNamesHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string][]*ast.File{} // import path -> non-test files
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		ip := modulePath
		if path != "." {
			ip += "/" + filepath.ToSlash(path)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files[ip] = append(files[ip], f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	orphans, err := scanOrphans(fset, files, func(path string) bool {
		return strings.HasPrefix(path, modulePath+"/internal/")
	})
	if err != nil {
		t.Fatal(err)
	}
	checkAllowlist(t, "package-level", exportedNoCallerAllowlist, 3, orphans.names, orphans.usedNames)
	checkAllowlist(t, "method", methodNoCallerAllowlist, 5, orphans.methods, orphans.usedMethods)
}

// TestReachabilityScanSelf plants an orphan method beside one that only
// satisfies an interface and checks the scanner reports exactly the first.
func TestReachabilityScanSelf(t *testing.T) {
	const lib = `package lib

import "fmt"

type Namer interface{ Name() string }

type Step struct{}

func (Step) Name() string   { return "step" }
func (Step) String() string { return "s" }
func (Step) Orphan() int    { return 1 }
func (Step) Used() int      { return 2 }

func (s Step) Self(n int) int {
	if n == 0 {
		return 0
	}
	return s.Self(n - 1)
}

func Print(s Step) { fmt.Println(s.Used()) }
`
	const app = `package main

import "monitorless/internal/lib"

func main() {
	var ns []lib.Namer
	ns = append(ns, lib.Step{})
	_ = ns
	lib.Print(lib.Step{})
}
`
	fset := token.NewFileSet()
	files := map[string][]*ast.File{}
	for path, src := range map[string]string{"monitorless/internal/lib": lib, "monitorless/cmd/app": app} {
		f, err := parser.ParseFile(fset, path+"/x.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files[path] = []*ast.File{f}
	}
	got, err := scanOrphans(fset, files, func(path string) bool { return strings.HasPrefix(path, "monitorless/internal/") })
	if err != nil {
		t.Fatal(err)
	}
	var methods []string
	for m := range got.methods {
		methods = append(methods, m)
	}
	sort.Strings(methods)
	if want := "lib.Step.Orphan lib.Step.Self"; strings.Join(methods, " ") != want {
		t.Errorf("orphan methods %q, want %q", methods, want)
	}
	if len(got.names) != 0 {
		t.Errorf("orphan package-level names %v, want none", got.names)
	}
}

// scanResult holds the orphans of a scan, label -> position, and every
// declared label that was found used.
type scanResult struct {
	names, methods         map[string]token.Position
	usedNames, usedMethods map[string]bool
}

// scanOrphans type-checks every package in files and reports the exported
// package-level names and methods declared in packages that declared(path)
// selects that nothing in files uses.
func scanOrphans(fset *token.FileSet, files map[string][]*ast.File, declared func(path string) bool) (*scanResult, error) {
	std := importer.Default()
	checked := map[string]*types.Package{}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	var imp importerFunc
	var check func(path string) (*types.Package, error)
	check = func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			if p == nil {
				return nil, fmt.Errorf("import cycle through %s", path)
			}
			return p, nil
		}
		checked[path] = nil
		conf := types.Config{Importer: imp}
		p, err := conf.Check(path, fset, files[path], info)
		if err != nil {
			return nil, err
		}
		checked[path] = p
		return p, nil
	}
	imp = func(path string) (*types.Package, error) {
		if path == modulePath || strings.HasPrefix(path, modulePath+"/") {
			if _, ok := files[path]; !ok {
				return nil, fmt.Errorf("no non-test Go files for %s", path)
			}
			return check(path)
		}
		return std.Import(path)
	}
	paths := make([]string, 0, len(files))
	for path := range files {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := check(path); err != nil {
			return nil, err
		}
	}

	// Each declared object's own declaration, and receiver type names, do
	// not count as uses of it.
	own := map[types.Object][2]token.Pos{}
	naming := map[*ast.Ident]bool{}
	for _, path := range paths {
		for _, f := range files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					own[info.Defs[d.Name]] = [2]token.Pos{d.Pos(), d.End()}
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								naming[id] = true
							}
							return true
						})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							own[info.Defs[s.Name]] = [2]token.Pos{s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, id := range s.Names {
								own[info.Defs[id]] = [2]token.Pos{s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if naming[id] {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if r, ok := own[obj]; ok && id.Pos() >= r[0] && id.Pos() < r[1] {
			continue
		}
		used[obj] = true
	}

	// Interfaces: named ones in every loaded package and the universe's
	// error, plus any interface type an expression has.
	var ifaces []*types.Interface
	seenPkg := map[*types.Package]bool{}
	var addScope func(p *types.Package)
	addScope = func(p *types.Package) {
		if seenPkg[p] {
			return
		}
		seenPkg[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			addScope(q)
		}
	}
	for _, path := range paths {
		addScope(checked[path])
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces = append(ifaces, it)
		}
	}
	satisfies := func(named *types.Named, m *types.Func) bool {
		for _, it := range ifaces {
			if !hasMethod(it, m.Name()) {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
		}
		return false
	}

	res := &scanResult{
		names: map[string]token.Position{}, methods: map[string]token.Position{},
		usedNames: map[string]bool{}, usedMethods: map[string]bool{},
	}
	for _, path := range paths {
		if !declared(path) {
			continue
		}
		p := checked[path]
		for _, name := range p.Scope().Names() {
			obj := p.Scope().Lookup(name)
			label := p.Name() + "." + name
			if obj.Exported() {
				if used[obj] {
					res.usedNames[label] = true
				} else {
					res.names[label] = fset.Position(obj.Pos())
				}
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !m.Exported() {
					continue
				}
				label := label + "." + m.Name()
				if used[m] || satisfies(named, m) {
					res.usedMethods[label] = true
				} else {
					res.methods[label] = fset.Position(m.Pos())
				}
			}
		}
	}
	return res, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// checkAllowlist fails on every orphan not allowlisted, every allowlisted
// label that is used or no longer declared, and an allowlist over max.
func checkAllowlist(t *testing.T, kind string, allow map[string]string, max int, orphans map[string]token.Position, used map[string]bool) {
	t.Helper()
	if len(allow) > max {
		t.Errorf("%s allowlist has %d entries, want at most %d", kind, len(allow), max)
	}
	for label := range allow {
		if used[label] {
			t.Errorf("%s is allowlisted but has a non-test caller: drop it from the allowlist", label)
		} else if _, ok := orphans[label]; !ok {
			t.Errorf("%s is allowlisted but no longer declared under internal/", label)
		}
	}
	var list []string
	for label, pos := range orphans {
		if _, ok := allow[label]; !ok {
			list = append(list, label+"  "+pos.String())
		}
	}
	if len(list) > 0 {
		sort.Strings(list)
		t.Errorf("%d exported %s names under internal/ have no non-test reference; give each a caller or delete it:\n\t%s",
			len(list), kind, strings.Join(list, "\n\t"))
	}
}
