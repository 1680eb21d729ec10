// Checkdead fails when an exported identifier under internal/ has no
// caller outside tests. It checks every exported package-level func,
// type, var and const, and every exported method, declared in a non-test
// file of a package under <module>/internal/. A reference from any
// non-test file of the module, or of a module nested in its tree (such
// as perfbench), counts as a caller; so does implementing a method of
// any interface the type satisfies. Identifiers used only inside their
// own package are not flagged: unexporting them would remove no code.
//
// Test oracles and cross-package test helpers stay only when
// scripts/checkdead/allow.txt lists them, one per line:
//
//	<pkg>.<Name>  oracle|helper: <pkg>.<TestName or FuzzName>
//
// where the named test's file must mention the identifier. An entry that
// is no longer dead, or no longer exists, fails the check too. Run it
// from the repository root:
//
//	go run ./scripts/checkdead
//
// It prints one "file:line: pkg.Name has no non-test caller" line per
// finding and exits 1 when there is any. It is wired into
// scripts/checkdocs.sh (and therefore `make docscheck` / `make check`).
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	findings, err := check(".", filepath.Join("scripts", "checkdead", "allow.txt"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "checkdead: %v\n", err)
		os.Exit(2)
	}
	for _, f := range findings {
		fmt.Println(f)
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}

// listedPkg is the subset of `go list -json` output the check reads.
type listedPkg struct {
	ImportPath   string
	Name         string
	Dir          string
	Export       string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Main bool }
	Error        *struct{ Err string }
}

// candidate is one exported identifier in scope: its object, its
// declaration's extent (uses inside it, such as recursion, do not count)
// and its display name.
type candidate struct {
	obj      types.Object
	pos, end token.Pos
	name     string
}

// check type-checks every module in the tree under root and returns the
// findings: dead identifiers not on the allowlist at allowPath, then
// allowlist entries that are stale or name no test that uses them.
func check(root, allowPath string) ([]string, error) {
	mods, err := moduleDirs(root)
	if err != nil {
		return nil, err
	}
	var all []*listedPkg
	for _, dir := range mods {
		pkgs, err := goList(dir)
		if err != nil {
			return nil, err
		}
		all = append(all, pkgs...)
	}

	fset := token.NewFileSet()
	exports := map[string]string{}
	for _, p := range all {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	imp := &sourceImporter{src: map[string]*types.Package{}, gc: gc}

	// Type-check every module package from source, in the dependency
	// order go list prints, so one universe of objects spans all modules;
	// standard-library packages come from export data.
	var (
		infos []*types.Info
		files [][]*ast.File
		cands []*candidate
		byObj = map[types.Object]*candidate{}
		std   []string
	)
	for _, p := range all {
		if p.Standard {
			std = append(std, p.ImportPath)
			continue
		}
		if imp.src[p.ImportPath] != nil {
			continue // a nested module lists the root module's packages again
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		var parsed []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return nil, err
			}
			parsed = append(parsed, f)
		}
		info := &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		tp, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, parsed, info)
		if err != nil {
			return nil, err
		}
		imp.src[p.ImportPath] = tp
		infos, files = append(infos, info), append(files, parsed)
		if p.Module != nil && p.Module.Main && inScope(p, mods[0]) {
			for _, c := range candidates(tp, parsed, info) {
				cands = append(cands, c)
				byObj[c.obj] = c
			}
		}
	}
	used := map[types.Object]bool{}
	for _, info := range infos {
		for id, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin() // a method of an instantiated generic type
			}
			if c := byObj[obj]; c != nil && (id.Pos() < c.pos || id.Pos() >= c.end) {
				used[obj] = true
			}
		}
	}
	ifaces, err := interfaces(imp, std, infos, files)
	if err != nil {
		return nil, err
	}
	for _, tp := range imp.src {
		markImplemented(tp, ifaces, used)
	}

	dead := map[string]*candidate{}
	for _, c := range cands {
		if !used[c.obj] {
			dead[c.name] = c
		}
	}
	allowFindings, err := applyAllowlist(allowPath, dead, all)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, c := range cands {
		if dead[c.name] == c {
			pos := fset.Position(c.pos)
			rel, err := filepath.Rel(mods[0], pos.Filename)
			if err != nil {
				rel = pos.Filename
			}
			out = append(out, fmt.Sprintf("%s:%d: %s has no non-test caller", rel, pos.Line, c.name))
		}
	}
	sort.Strings(out)
	return append(out, allowFindings...), nil
}

// sourceImporter serves the packages already checked from source and
// falls back to export data for the standard library.
type sourceImporter struct {
	src map[string]*types.Package
	gc  types.Importer
}

func (i *sourceImporter) Import(path string) (*types.Package, error) {
	if p := i.src[path]; p != nil {
		return p, nil
	}
	return i.gc.Import(path)
}

// moduleDirs returns the absolute directory of the module at root
// followed by every module nested under it, skipping testdata and
// hidden directories.
func moduleDirs(root string) ([]string, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(filepath.Join(abs, "go.mod")); err != nil {
		return nil, fmt.Errorf("%s is not a module root: %v", root, err)
	}
	dirs := []string{abs}
	err = filepath.WalkDir(abs, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() || path == abs {
			return nil
		}
		if name := d.Name(); name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// goList lists the module at dir and all its dependencies, with export
// data for each.
func goList(dir string) ([]*listedPkg, error) {
	cmd := exec.Command("go", "list", "-e", "-export", "-deps", "-json", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPkg
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPkg)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, fmt.Errorf("go list in %s: %v", dir, err)
		}
		pkgs = append(pkgs, p)
	}
}

// inScope reports whether p lies under the internal/ directory of the
// root module at rootDir.
func inScope(p *listedPkg, rootDir string) bool {
	internal := filepath.Join(rootDir, "internal")
	return p.Dir == internal || strings.HasPrefix(p.Dir, internal+string(filepath.Separator))
}

// candidates returns the exported package-level identifiers and exported
// methods declared in the files of package tp.
func candidates(tp *types.Package, files []*ast.File, info *types.Info) []*candidate {
	var out []*candidate
	add := func(id *ast.Ident, n ast.Node) {
		if obj := info.Defs[id]; obj != nil && id.IsExported() {
			out = append(out, &candidate{obj: obj, pos: n.Pos(), end: n.End(), name: displayName(tp, obj)})
		}
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				add(d.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add(s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s)
						}
					}
				}
			}
		}
	}
	return out
}

// displayName renders obj as pkg.Name, pkg.T.Name for a method with a
// value receiver, or pkg.(*T).Name for one with a pointer receiver.
func displayName(tp *types.Package, obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok {
		return tp.Name() + "." + obj.Name()
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return tp.Name() + "." + obj.Name()
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		return fmt.Sprintf("%s.(*%s).%s", tp.Name(), ptr.Elem().(*types.Named).Obj().Name(), obj.Name())
	}
	return fmt.Sprintf("%s.%s.%s", tp.Name(), t.(*types.Named).Obj().Name(), obj.Name())
}

// interfaces returns every interface with methods that the checked
// packages can see, indexed by method name: the named interfaces of the
// standard-library dependencies and every interface type written in a
// module file.
func interfaces(imp *sourceImporter, std []string, infos []*types.Info, files [][]*ast.File) (map[string][]*types.Interface, error) {
	byName := map[string][]*types.Interface{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || it.NumMethods() == 0 {
			return
		}
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, path := range std {
		if path == "unsafe" {
			continue
		}
		tp, err := imp.Import(path)
		if err != nil {
			return nil, err
		}
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok && !isGeneric(tn.Type()) {
				add(tn.Type())
			}
		}
	}
	for i, info := range infos {
		for _, f := range files[i] {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if tv, ok := info.Types[it]; ok {
						add(tv.Type)
					}
				}
				return true
			})
		}
	}
	return byName, nil
}

// markImplemented marks as used every method through which a named type
// of tp, or a pointer to it, satisfies one of ifaces.
func markImplemented(tp *types.Package, ifaces map[string][]*types.Interface, used map[types.Object]bool) {
	for _, name := range tp.Scope().Names() {
		tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() || isGeneric(tn.Type()) {
			continue
		}
		if _, ok := tn.Type().Underlying().(*types.Interface); ok {
			continue
		}
		for _, t := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
			ms := types.NewMethodSet(t)
			seen := map[*types.Interface]bool{}
			for i := 0; i < ms.Len(); i++ {
				for _, it := range ifaces[ms.At(i).Obj().Name()] {
					if seen[it] || !types.Implements(t, it) {
						continue
					}
					seen[it] = true
					for j := 0; j < it.NumMethods(); j++ {
						m := it.Method(j)
						if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
							used[sel.Obj()] = true
						}
					}
				}
			}
		}
	}
}

func isGeneric(t types.Type) bool {
	n, ok := t.(*types.Named)
	return ok && n.TypeParams().Len() > 0
}

// allowLine is the shape of one allowlist entry.
var allowLine = regexp.MustCompile(`^(\S+)\s+(oracle|helper): (\w+)\.((?:Test|Fuzz)\w+)$`)

// applyAllowlist removes the allowlisted entries from dead and returns a
// finding for every entry that is malformed, not dead (stale) or whose
// named test does not mention the identifier.
func applyAllowlist(allowPath string, dead map[string]*candidate, pkgs []*listedPkg) ([]string, error) {
	f, err := os.Open(allowPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		at := fmt.Sprintf("%s:%d: ", allowPath, line)
		m := allowLine.FindStringSubmatch(text)
		if m == nil {
			out = append(out, at+"want '<pkg>.<Name>  oracle|helper: <pkg>.<TestName>'")
			continue
		}
		name, testPkg, test := m[1], m[3], m[4]
		if dead[name] == nil {
			out = append(out, at+name+" is allowlisted but has a non-test caller or does not exist")
			continue
		}
		ident := name[strings.LastIndex(name, ".")+1:]
		ok, err := testMentions(pkgs, testPkg, test, ident)
		if err != nil {
			return nil, err
		}
		if !ok {
			out = append(out, fmt.Sprintf("%s%s: no %s.%s in a test file that mentions %s", at, name, testPkg, test, ident))
		}
		delete(dead, name)
	}
	return out, sc.Err()
}

// testMentions reports whether some test file of a main-module package
// named pkg declares func test and mentions ident.
func testMentions(pkgs []*listedPkg, pkg, test, ident string) (bool, error) {
	for _, p := range pkgs {
		if p.Name != pkg || p.Module == nil || !p.Module.Main {
			continue
		}
		for _, name := range append(append([]string(nil), p.TestGoFiles...), p.XTestGoFiles...) {
			f, err := parser.ParseFile(token.NewFileSet(), filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				return false, err
			}
			declares, mentions := false, false
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					declares = declares || (n.Recv == nil && n.Name.Name == test)
				case *ast.Ident:
					mentions = mentions || n.Name == ident
				}
				return true
			})
			if declares && mentions {
				return true, nil
			}
		}
	}
	return false, nil
}
