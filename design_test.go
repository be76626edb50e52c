package feddrl

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

var (
	// designSectionRe reads a DESIGN.md heading's section number.
	designSectionRe = regexp.MustCompile(`^## §(\d+) `)
	// designNumberRe and designQuoteRe find citations by section number
	// and by quoted heading text.
	designNumberRe = regexp.MustCompile(`DESIGN\.md §(\d+)`)
	designQuoteRe  = regexp.MustCompile(`DESIGN\.md "([^"]+)"`)
	// commentJoinRe joins a citation that wraps onto the next line of a
	// Markdown paragraph or a // comment.
	commentJoinRe = regexp.MustCompile(`\s*\n\s*(?://\s?)?`)
)

// TestDesignCitationsResolve checks that every citation of a DESIGN.md
// section, by number or by quoted heading text, in the repository's .go
// and .md files names a heading that DESIGN.md has. ROADMAP.md and
// CHANGES.md are skipped: they are plans and history, and may name
// sections that are not written yet or have since moved.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	var headings []string
	for _, line := range strings.Split(string(design), "\n") {
		if m := designSectionRe.FindStringSubmatch(line); m != nil {
			sections[m[1]] = true
			headings = append(headings, strings.ToLower(line))
		}
	}
	cited := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		switch path {
		case "ROADMAP.md", "CHANGES.md":
			return nil
		}
		if ext := filepath.Ext(path); ext != ".go" && ext != ".md" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		text := commentJoinRe.ReplaceAllString(string(data), " ")
		for _, m := range designNumberRe.FindAllStringSubmatch(text, -1) {
			cited++
			if !sections[m[1]] {
				t.Errorf("%s cites DESIGN.md §%s, which has no heading", path, m[1])
			}
		}
		for _, m := range designQuoteRe.FindAllStringSubmatch(text, -1) {
			cited++
			found := false
			for _, h := range headings {
				found = found || strings.Contains(h, strings.ToLower(m[1]))
			}
			if !found {
				t.Errorf("%s cites DESIGN.md %q, which matches no heading", path, m[1])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if cited == 0 {
		t.Fatal("found no DESIGN.md citations to check")
	}
	t.Logf("%d DESIGN.md citations resolve", cited)
}

// TestVerifyRunPatternsResolve checks that every |-separated name in a
// -run pattern of scripts/verify.sh or the Makefile is a Test or Fuzz
// func in a _test.go file of the package that line tests. `go test
// -run` passes silently when a name matches nothing, so without this a
// deleted test would stay named in a gate that no longer runs it.
// Names must be plain identifiers; only the Makefile's '^$$' (run no
// test, fuzz instead) is exempt.
func TestVerifyRunPatternsResolve(t *testing.T) {
	runRe := regexp.MustCompile(`-run (?:'([^']*)'|(\S+))`)
	funcRe := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w+)\(`)
	names := 0
	for _, file := range []string{"scripts/verify.sh", "Makefile"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := runRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			pattern := m[1] + m[2]
			if pattern == "^$$" {
				continue
			}
			defined := map[string]bool{}
			var pkgs []string
			for _, f := range strings.Fields(line) {
				if f != "." && !strings.HasPrefix(f, "./") {
					continue
				}
				pkgs = append(pkgs, f)
				dir := strings.TrimSuffix(f, "/...")
				err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
					if err != nil {
						return err
					}
					if d.IsDir() {
						if path != dir && (dir == f || strings.HasPrefix(d.Name(), ".")) {
							return filepath.SkipDir
						}
						return nil
					}
					if !strings.HasSuffix(path, "_test.go") {
						return nil
					}
					src, err := os.ReadFile(path)
					for _, fm := range funcRe.FindAllStringSubmatch(string(src), -1) {
						defined[fm[1]] = true
					}
					return err
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			if len(pkgs) == 0 {
				t.Errorf("%s:%d: -run %q names no package", file, i+1, pattern)
			}
			for _, name := range strings.Split(pattern, "|") {
				names++
				if !defined[name] {
					t.Errorf("%s:%d: -run names %s, which no _test.go file in %s defines", file, i+1, name, strings.Join(pkgs, " "))
				}
			}
		}
	}
	if names == 0 {
		t.Fatal("found no -run patterns in scripts/verify.sh or the Makefile")
	}
	t.Logf("%d -run names checked", names)
}

// unreachableAllowed names the internal/ declarations that
// TestNoUnreachableDeclarations tolerates, each with its reason. An entry
// that a run reaches again, or that no longer exists, fails the test.
var unreachableAllowed = map[string]string{
	"tensor.MatMulAT32Into": "f32 GEMM entry point only its tests call; it goes with the f32 GEMM, whose bit-identity suites are retired in two steps (ROADMAP item 3)",
	"tensor.MatMulBT32Into": "f32 GEMM entry point only its tests call; it goes with the f32 GEMM, whose bit-identity suites are retired in two steps (ROADMAP item 3)",
}

// TestNoUnreachableDeclarations type-checks every package of the module
// and of perfbench, and fails on any top-level declaration in a non-test
// internal/ file that no run reaches. A declaration is reachable when
//  1. a non-test file outside internal/ uses it (the facade, cmd/*,
//     examples/*, perfbench/);
//  2. an init function or a blank _ var uses it;
//  3. a _test.go file of another package uses it (test support shared
//     across packages cannot live in a _test.go file);
//  4. a reachable declaration uses it; or
//  5. it is a method of a reachable type, and an interface type in the
//     module or in a package it imports declares a method of that name.
//
// Build tags are evaluated for the host; scans for amd64, arm64 and
// riscv64 find the same declarations.
func TestNoUnreachableDeclarations(t *testing.T) {
	dead, err := unreachableDeclarations()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range dead {
		seen[d.name] = true
		if _, ok := unreachableAllowed[d.name]; !ok {
			t.Errorf("%s:%d: %s is unreachable: delete it, or move it to a _test.go file if only its own package's tests use it",
				d.pos.Filename, d.pos.Line, d.name)
		}
	}
	for name := range unreachableAllowed {
		if !seen[name] {
			t.Errorf("allowlisted %s is reachable or gone: remove it from unreachableAllowed", name)
		}
	}
}

// declNode is one top-level declaration of a non-test internal/ file.
type declNode struct {
	name string // pkg.Name, or pkg.Type.Method
	pos  token.Position
	recv types.Object   // a method's receiver base type
	uses []types.Object // what its syntax refers to
}

// reachScan type-checks the packages under the working directory from
// source, and the standard library from export data.
type reachScan struct {
	fset  *token.FileSet
	std   types.ImporterFrom
	dirs  map[string]string         // import path -> directory
	pkgs  map[string]*types.Package // nil while being checked
	units []checkedUnit
}

// checkedUnit is one type-checked package: its directory, files and
// their type information.
type checkedUnit struct {
	dir   string
	files []*ast.File
	info  *types.Info
}

// unreachableDeclarations returns the internal/ declarations the rules
// of TestNoUnreachableDeclarations do not reach, in file order.
func unreachableDeclarations() ([]declNode, error) {
	s := &reachScan{
		fset: token.NewFileSet(),
		std:  importer.Default().(types.ImporterFrom),
		dirs: map[string]string{},
		pkgs: map[string]*types.Package{},
	}
	var xtests []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		// perfbench is a module of its own, named feddrl/perfbench.
		ip := "feddrl"
		if path != "." {
			ip += "/" + filepath.ToSlash(path)
		}
		s.dirs[ip] = path
		if len(bp.XTestGoFiles) > 0 {
			xtests = append(xtests, ip)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for ip := range s.dirs {
		if _, err := s.check(ip, false); err != nil {
			return nil, err
		}
	}
	for _, ip := range xtests {
		if _, err := s.check(ip, true); err != nil {
			return nil, err
		}
	}
	return s.unreachable(), nil
}

func (s *reachScan) Import(path string) (*types.Package, error) {
	return s.ImportFrom(path, "", 0)
}

func (s *reachScan) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if _, ok := s.dirs[path]; ok {
		return s.check(path, false)
	}
	return s.std.ImportFrom(path, dir, mode)
}

// check type-checks the package at import path ip together with its
// in-package test files, or, if xtest, its external test package. A
// package's in-package tests cannot import a package that imports it, so
// checking them along with it never cycles.
func (s *reachScan) check(ip string, xtest bool) (*types.Package, error) {
	if !xtest {
		if p, ok := s.pkgs[ip]; ok {
			if p == nil {
				return nil, fmt.Errorf("import cycle through %s", ip)
			}
			return p, nil
		}
		s.pkgs[ip] = nil
	}
	dir := s.dirs[ip]
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	names := append(bp.GoFiles, bp.TestGoFiles...)
	if xtest {
		names, ip = bp.XTestGoFiles, ip+"_test"
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	p, err := (&types.Config{Importer: s}).Check(ip, s.fset, files, info)
	if err != nil {
		return nil, err
	}
	if !xtest {
		s.pkgs[ip] = p
	}
	s.units = append(s.units, checkedUnit{dir: dir, files: files, info: info})
	return p, nil
}

// usesIn lists the objects the identifiers under n refer to, a method or
// field of an instantiated generic type mapped back to its declaration.
func usesIn(info *types.Info, n ast.Node) []types.Object {
	var out []types.Object
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			switch o := info.Uses[id].(type) {
			case *types.Func:
				out = append(out, o.Origin())
			case *types.Var:
				out = append(out, o.Origin())
			case types.Object:
				out = append(out, o)
			}
		}
		return true
	})
	return out
}

// unreachable builds the declaration graph, walks it from the roots and
// returns the nodes left unreached, in file order.
func (s *reachScan) unreachable() []declNode {
	nodes := map[types.Object]*declNode{}
	var roots []types.Object
	for _, u := range s.units {
		for _, f := range u.files {
			file := filepath.ToSlash(s.fset.Position(f.Package).Filename)
			isTest := strings.HasSuffix(file, "_test.go")
			if isTest || !strings.HasPrefix(file, "internal/") {
				for _, o := range usesIn(u.info, f) {
					if !isTest || o.Pkg() == nil || s.dirs[o.Pkg().Path()] != u.dir {
						roots = append(roots, o)
					}
				}
				continue
			}
			add := func(id *ast.Ident, name string, recv types.Object, uses []types.Object) {
				if id.Name == "_" || recv == nil && id.Name == "init" {
					roots = append(roots, uses...)
					return
				}
				nodes[u.info.Defs[id]] = &declNode{name: f.Name.Name + "." + name, pos: s.fset.Position(id.Pos()), recv: recv, uses: uses}
			}
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name, d.Name.Name, nil, usesIn(u.info, d))
						break
					}
					rt := u.info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
					if p, ok := rt.(*types.Pointer); ok {
						rt = p.Elem()
					}
					recv := rt.(*types.Named).Origin().Obj()
					add(d.Name, recv.Name()+"."+d.Name.Name, recv, usesIn(u.info, d))
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch sp := spec.(type) {
						case *ast.TypeSpec:
							add(sp.Name, sp.Name.Name, nil, usesIn(u.info, sp))
						case *ast.ValueSpec:
							uses := usesIn(u.info, sp)
							for _, id := range sp.Names {
								add(id, id.Name, nil, uses)
							}
						}
					}
				}
			}
		}
	}
	ifaces := s.interfaceMethods()
	methods := map[types.Object][]types.Object{}
	for o, n := range nodes {
		if n.recv != nil && ifaces[o.Name()] {
			methods[n.recv] = append(methods[n.recv], o)
		}
	}
	reached := map[*declNode]bool{}
	for len(roots) > 0 {
		o := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if n := nodes[o]; n != nil && !reached[n] {
			reached[n] = true
			roots = append(append(roots, n.uses...), methods[o]...)
		}
	}
	var dead []declNode
	for _, n := range nodes {
		if !reached[n] {
			dead = append(dead, *n)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Line < b.Line
	})
	return dead
}

// interfaceMethods returns the names of the methods that interface
// types declare: any interface in the module's non-test files, any
// package-level one in the packages the module imports, and error.
func (s *reachScan) interfaceMethods() map[string]bool {
	names := map[string]bool{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				names[it.Method(i).Name()] = true
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, u := range s.units {
		for _, f := range u.files {
			if strings.HasSuffix(s.fset.Position(f.Package).Filename, "_test.go") {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					add(u.info.Types[it].Type)
				}
				return true
			})
		}
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if _, own := s.dirs[p.Path()]; !own {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					add(tn.Type())
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range s.pkgs {
		walk(p)
	}
	return names
}
