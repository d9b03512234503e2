package sor_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// TestProductionCodeIsReachable fails on every function, method or type in
// internal/ or the root package that no program reaches. The roots are
// each main and init, package-level var initializers, everything in bench/
// (its own module, tests included) and testdata/reach.allow, whose entries
// are code kept on purpose for tests or callers outside the repo. An entry
// that production code reaches, or that names nothing, fails the test too,
// so the list only shrinks.
func TestProductionCodeIsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	m := loadModule(t, ".", "bench")
	dead, stale := m.unreached(readAllowlist(t, "testdata/reach.allow"))
	for _, s := range stale {
		t.Errorf("testdata/reach.allow: %s", s)
	}
	for _, d := range dead {
		t.Errorf("%s: %s is reached by no program: delete it, or allowlist it in testdata/reach.allow", m.where[d], d)
	}
}

// TestReachabilityControls runs the same analysis on the module in
// testdata/reach, which holds one case of each kind the test must catch
// and of each it must leave alone.
func TestReachabilityControls(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks a fixture module")
	}
	m := loadModule(t, "testdata/reach", "tools")
	dead, stale := m.unreached(map[string]string{
		"fix/internal/a.KeptForTests":  "(a) kept, and what only it calls is kept too",
		"fix/internal/a.UsedByMain":    "(c) production code calls it",
		"fix/internal/a.NoSuchFunc":    "(c) the name is gone",
		"fix/internal/a.Widget.Render": "(b) the method is gone",
	})
	got := strings.Join(append(dead, stale...), "\n")
	want := strings.Join([]string{
		"fix/internal/a.DeadFunc",
		"fix/internal/a.NewOrphan",
		"fix/internal/a.Orphan",
		"fix/internal/a.Orphan.Size",
		"fix/internal/a.Unasserted",
		"fix/internal/a.Unasserted.String",
		"fix/internal/a.WithLoud",
		"fix/internal/a.loudness",
		`"fix/internal/a.NoSuchFunc" names no declaration`,
		`"fix/internal/a.UsedByMain" is reached by production code; drop the entry`,
		`"fix/internal/a.Widget.Render" names no declaration`,
	}, "\n")
	if got != want {
		t.Errorf("findings:\n%s\nwant:\n%s", got, want)
	}
}

// readAllowlist reads "name (a|b|c) reason" lines; # starts a comment.
func readAllowlist(t *testing.T, path string) map[string]string {
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	allow := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if !strings.HasPrefix(reason, "(a) ") && !strings.HasPrefix(reason, "(b) ") && !strings.HasPrefix(reason, "(c) ") {
			t.Errorf("%s:%d: %s: the reason must start with (a), (b) or (c)", path, n, name)
		}
		if _, dup := allow[name]; dup {
			t.Errorf("%s:%d: %s listed twice", path, n, name)
		}
		allow[name] = reason
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return allow
}

// stdDynamic are methods the standard library calls through interfaces it
// declares inside function bodies, which export data does not carry.
var stdDynamic = map[string]bool{"Is": true, "As": true, "Unwrap": true}

type modPkg struct {
	path   string
	caller bool // a caller directory: every declaration is a root
	files  []*ast.File
	pkg    *types.Package
	info   *types.Info
}

type module struct {
	path  string
	fset  *token.FileSet
	pkgs  map[string]*modPkg
	order []*modPkg // type-checked, imports first
	std   types.Importer
	where map[string]string // declaration key → file:line
}

// loadModule parses and type-checks every non-test package of the module
// rooted at root (testdata/ excluded), plus each caller directory with its
// test files, importing the standard library from the export data one
// `go list -export` call locates.
func loadModule(t *testing.T, root string, callers ...string) *module {
	gomod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	m := &module{fset: token.NewFileSet(), pkgs: map[string]*modPkg{}, where: map[string]string{}}
	for _, line := range strings.Split(string(gomod), "\n") {
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			m.path = strings.TrimSpace(rest)
		}
	}
	isCaller := map[string]bool{}
	for _, c := range callers {
		isCaller[c] = true
	}
	std := map[string]bool{}
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		rel = filepath.ToSlash(rel)
		if rel != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		p := &modPkg{path: m.path, caller: isCaller[rel]}
		if rel != "." {
			p.path += "/" + rel
		}
		names, imports := bp.GoFiles, bp.Imports
		if p.caller {
			names = append(names, bp.TestGoFiles...)
			imports = append(imports, bp.TestImports...)
		}
		for _, name := range names {
			f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		for _, imp := range imports {
			if imp != m.path && !strings.HasPrefix(imp, m.path+"/") {
				std[imp] = true
			}
		}
		m.pkgs[p.path] = p
		if p.caller {
			return filepath.SkipDir
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exports := stdExports(t, std)
	m.std = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	})
	paths := make([]string, 0, len(m.pkgs))
	for path := range m.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// stdExports maps each standard library import path to its export data.
func stdExports(t *testing.T, std map[string]bool) map[string]string {
	args := []string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
	for p := range std {
		args = append(args, p)
	}
	out, err := exec.Command(filepath.Join(runtime.GOROOT(), "bin", "go"), args...).Output()
	if err != nil {
		t.Fatalf("go list -export: %v", err)
	}
	exports := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		if path, file, ok := strings.Cut(line, " "); ok {
			exports[path] = file
		}
	}
	return exports
}

// Import type-checks a module package on first use, after its imports.
func (m *module) Import(path string) (*types.Package, error) {
	p, ok := m.pkgs[path]
	if !ok {
		return m.std.Import(path)
	}
	if p.info == nil {
		p.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		pkg, err := (&types.Config{Importer: m}).Check(path, m.fset, p.files, p.info)
		if err != nil {
			return nil, err
		}
		p.pkg = pkg
		m.order = append(m.order, p)
	}
	return p.pkg, nil
}

// decl is one package-level declaration and the package that resolves
// the identifiers in it.
type decl struct {
	p    *modPkg
	node ast.Node
}

// unreached returns the functions, methods and types of internal/ and the
// root package that nothing reaches from the roots, then the allowlist
// entries that name nothing or that production code reaches.
func (m *module) unreached(allow map[string]string) (dead, stale []string) {
	decls := map[types.Object]decl{}
	byName := map[string]types.Object{}
	var roots []decl
	var named []*types.TypeName
	add := func(p *modPkg, obj types.Object, n ast.Node) {
		decls[obj] = decl{p, n}
		key := m.key(obj)
		byName[key] = obj
		m.where[key] = m.fset.Position(n.Pos()).String()
	}
	for _, p := range m.order {
		for _, f := range p.files {
			for _, d := range f.Decls {
				if p.caller {
					roots = append(roots, decl{p, d})
					continue
				}
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.pkg.Name() == "main") {
						roots = append(roots, decl{p, d})
						continue
					}
					add(p, p.info.Defs[d.Name], d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name].(*types.TypeName)
							add(p, obj, s)
							named = append(named, obj)
						case *ast.ValueSpec:
							if d.Tok == token.CONST {
								for _, id := range s.Names {
									decls[p.info.Defs[id]] = decl{p, s}
								}
							} else if !isAssertion(p, s) {
								roots = append(roots, decl{p, s})
							}
						}
					}
				}
			}
		}
	}

	// The interfaces a value may be converted to: every named interface of
	// the standard library packages the module loads, then each module
	// interface and interface literal as the code that holds it is reached.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seenStd := map[*types.Package]bool{}
	var addStd func(*types.Package)
	addStd = func(pkg *types.Package) {
		if seenStd[pkg] || m.pkgs[pkg.Path()] != nil {
			return
		}
		seenStd[pkg] = true
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			addStd(imp)
		}
	}
	for _, p := range m.order {
		for _, imp := range p.pkg.Imports() {
			addStd(imp)
		}
	}

	reached := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		if _, ok := decls[obj]; ok && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	scan := func(d decl) {
		ast.Inspect(d.node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if obj := d.p.info.Uses[n]; obj != nil {
					mark(obj)
				}
			case *ast.InterfaceType:
				if it, ok := d.p.info.Types[n].Type.(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
			return true
		})
	}
	// A method is reached by a call on its type, or by a conversion to an
	// interface that the type implements with it.
	done := map[[2]any]bool{}
	dispatch := func() {
		for _, tn := range named {
			nt, ok := types.Unalias(tn.Type()).(*types.Named)
			if !reached[tn] || !ok || types.IsInterface(nt) {
				continue
			}
			ptr := types.NewPointer(nt)
			for i := 0; i < nt.NumMethods(); i++ {
				if f := nt.Method(i); stdDynamic[f.Name()] {
					mark(f)
				}
			}
			for _, it := range ifaces {
				if done[[2]any{tn, it}] {
					continue
				}
				done[[2]any{tn, it}] = true
				if nt.TypeParams().Len() == 0 && !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					f := it.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(ptr, false, f.Pkg(), f.Name()); obj != nil {
						mark(obj)
					}
				}
			}
		}
	}
	closure := func() {
		for len(work) > 0 {
			for len(work) > 0 {
				obj := work[len(work)-1]
				work = work[:len(work)-1]
				scan(decls[obj])
			}
			dispatch()
		}
	}

	for _, d := range roots {
		scan(d)
	}
	closure()
	for name := range allow {
		switch obj := byName[name]; {
		case obj == nil:
			stale = append(stale, fmt.Sprintf("%q names no declaration", name))
		case reached[obj]:
			stale = append(stale, fmt.Sprintf("%q is reached by production code; drop the entry", name))
		default:
			mark(obj)
		}
	}
	closure()

	for obj := range decls {
		path := obj.Pkg().Path()
		if reached[obj] || obj.Name() == "_" || (path != m.path && !strings.HasPrefix(path, m.path+"/internal/")) {
			continue
		}
		switch obj.(type) {
		case *types.Func, *types.TypeName:
			dead = append(dead, m.key(obj))
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale
}

// key names a declaration "pkgpath.Name", or "pkgpath.Type.Method".
func (m *module) key(obj types.Object) string {
	name := obj.Name()
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			name = rt.(*types.Named).Obj().Name() + "." + name
		}
	}
	return obj.Pkg().Path() + "." + name
}

// isAssertion reports whether s is a compile-time check such as
// `var _ Iface = T{}`: blank names and no function call, so it runs
// nothing and reaches nothing.
func isAssertion(p *modPkg, s *ast.ValueSpec) bool {
	for _, id := range s.Names {
		if id.Name != "_" {
			return false
		}
	}
	calls := false
	for _, v := range s.Values {
		ast.Inspect(v, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && !p.info.Types[c.Fun].IsType() {
				calls = true
			}
			return !calls
		})
	}
	return !calls
}
