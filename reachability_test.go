package monitorless_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exportedNoCallerAllowlist names the exported internal/ declarations that
// may stay without a non-test caller, each with the reason. At most three:
// an entry that gains a caller or stops existing fails the test.
var exportedNoCallerAllowlist = map[string]string{
	"kneedle.Concave":   "zero value and documented default of Curvature: callers select it by leaving the field unset",
	"apps.SockshopLoad": "the Locust-style Sockshop load fixture shared by the apps and dataset tests",
}

// TestExportedNamesHaveCallers keeps every exported package-level func,
// type, var and const under internal/ reachable from non-test code: the
// internal packages themselves, cmd/, examples/, scripts/, the root package
// and the bench/ module. A reference is a bare identifier in the declaring
// package outside the declaration itself (a method's receiver counts as
// part of its type's declaration), or a pkg.Name selector through an
// import of the declaring package.
//
// The scan is syntactic (go/parser + go/ast, no type checking), so methods
// and struct fields are out of scope: gob hooks, heap.Interface methods
// and interface satisfaction are calls it cannot see.
func TestExportedNamesHaveCallers(t *testing.T) {
	const module = "monitorless/"
	type decl struct {
		label string // pkg.Name
		pos   token.Position
	}
	fset := token.NewFileSet()
	decls := map[string]decl{} // dir + "." + name
	used := map[string]bool{}  // dir + "." + name

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
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // local name -> directory
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(p, module) {
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = strings.TrimPrefix(p, module)
		}

		// naming holds identifiers that name something rather than refer
		// to it; own holds the names the declaration being walked declares.
		naming := map[*ast.Ident]bool{}
		var own map[string]bool
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok {
					if target, ok := imports[x.Name]; ok {
						used[target+"."+n.Sel.Name] = true
						return false
					}
				}
				ast.Inspect(n.X, visit)
				return false
			case *ast.Field:
				for _, id := range n.Names {
					naming[id] = true
				}
			case *ast.Ident:
				if !naming[n] && !own[n.Name] {
					used[dir+"."+n.Name] = true
				}
			}
			return true
		}
		declare := func(id *ast.Ident) {
			naming[id] = true
			own[id.Name] = true
			if strings.HasPrefix(dir, "internal/") && id.IsExported() {
				decls[dir+"."+id.Name] = decl{label: f.Name.Name + "." + id.Name, pos: fset.Position(id.Pos())}
			}
		}
		for _, dcl := range f.Decls {
			switch dcl := dcl.(type) {
			case *ast.FuncDecl:
				own = map[string]bool{}
				naming[dcl.Name] = true
				if dcl.Recv == nil {
					declare(dcl.Name)
				} else {
					for _, field := range dcl.Recv.List {
						ast.Inspect(field.Type, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								naming[id] = true
							}
							return true
						})
					}
				}
				ast.Inspect(dcl, visit)
			case *ast.GenDecl:
				for _, spec := range dcl.Specs {
					own = map[string]bool{}
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						declare(spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							declare(id)
						}
					}
					ast.Inspect(spec, visit)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	if len(exportedNoCallerAllowlist) > 3 {
		t.Errorf("allowlist has %d entries, want at most 3", len(exportedNoCallerAllowlist))
	}
	allowed := map[string]bool{}
	var orphans []string
	for key, d := range decls {
		if _, ok := exportedNoCallerAllowlist[d.label]; ok {
			allowed[d.label] = true
			if used[key] {
				t.Errorf("%s is allowlisted but has a non-test caller: drop it from the allowlist", d.label)
			}
			continue
		}
		if !used[key] {
			orphans = append(orphans, d.label+"  "+d.pos.String())
		}
	}
	for label := range exportedNoCallerAllowlist {
		if !allowed[label] {
			t.Errorf("%s is allowlisted but no longer declared under internal/", label)
		}
	}
	if len(orphans) > 0 {
		sort.Strings(orphans)
		t.Errorf("%d exported names under internal/ have no non-test reference; give each a caller or delete it:\n\t%s",
			len(orphans), strings.Join(orphans, "\n\t"))
	}
}
