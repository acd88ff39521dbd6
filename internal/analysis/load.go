package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader discovers, parses, and type-checks every package under a module
// root using only the standard library: local imports are resolved by
// type-checking the imported directory (memoized, in dependency order)
// and everything else goes through go/types' source importer.
//
// Files are selected by go/build for a pinned linux/amd64 target with
// cgo off. Only non-test files are loaded: the analyzers guard what
// ships, and _test.go files are skipped like any file for another
// platform.
type Loader struct {
	// Root is the module root directory (the one holding go.mod).
	Root string

	modPath string // the module directive of Root's go.mod
	fset    *token.FileSet
	std     types.ImporterFrom
	pkgs    map[string]*Package // import path -> loaded package
	loading map[string]bool     // cycle guard
	prog    *Program
}

// Load walks the root, type-checks every package, and returns the
// program. Any parse or type error fails the load: the linter runs on
// trees that build.
func (l *Loader) Load() (*Program, error) {
	if l.Root == "" {
		l.Root = "."
	}
	abs, err := filepath.Abs(l.Root)
	if err != nil {
		return nil, err
	}
	l.Root = abs
	if l.modPath, err = modulePath(filepath.Join(l.Root, "go.mod")); err != nil {
		return nil, err
	}
	l.fset = token.NewFileSet()
	l.std = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	l.pkgs = map[string]*Package{}
	l.loading = map[string]bool{}
	l.prog = &Program{Fset: l.fset}

	dirs, err := l.packageDirs()
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		if _, err := l.loadLocal(l.importPath(dir)); err != nil {
			return nil, err
		}
	}
	sort.Slice(l.prog.Packages, func(i, j int) bool {
		return l.prog.Packages[i].Path < l.prog.Packages[j].Path
	})
	return l.prog, nil
}

// modulePath reads the module directive of a go.mod file.
func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("analysis: reading module path: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// packageDirs lists every directory under Root holding Go files the
// loader would actually include, skipping hidden directories, testdata
// trees, and nested modules (any directory below Root with its own
// go.mod), as `go list ./...` does. Discovery and loading share
// includeFile, so a directory is listed if and only if loadLocal would
// find files in it — the two stages cannot disagree about build tags or
// _test.go files.
func (l *Loader) packageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.Root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if path != l.Root {
			base := filepath.Base(path)
			if strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") || base == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if e.IsDir() {
				continue
			}
			ok, err := includeFile(path, e.Name())
			if err != nil {
				return err
			}
			if ok {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	return dirs, err
}

// buildCtx pins the lint target platform, so an analyzer run on a
// developer laptop and the CI lint job see the same file set: go/build
// evaluates filename suffixes and build constraints as the go tool does
// for linux/amd64 with cgo off, whatever the host.
var buildCtx = func() build.Context {
	c := build.Default
	c.GOOS, c.GOARCH, c.CgoEnabled = "linux", "amd64", false
	return c
}()

// includeFile is the single file-selection predicate shared by discovery
// and loading: the .go files go/build would build for the target
// platform, minus _test.go. A file go/build cannot read or whose
// constraint is malformed fails the load.
func includeFile(dir, name string) (bool, error) {
	if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false, nil
	}
	return buildCtx.MatchFile(dir, name)
}

// importPath maps a directory under Root to its import path.
func (l *Loader) importPath(dir string) string {
	rel, err := filepath.Rel(l.Root, dir)
	if err != nil || rel == "." {
		return l.modPath
	}
	return l.modPath + "/" + filepath.ToSlash(rel)
}

// dirOf maps a local import path back to its directory.
func (l *Loader) dirOf(path string) string {
	if path == l.modPath {
		return l.Root
	}
	return filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
}

// isLocal reports whether path belongs to the loaded module.
func (l *Loader) isLocal(path string) bool {
	return path == l.modPath || strings.HasPrefix(path, l.modPath+"/")
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.Root, 0)
}

// ImportFrom implements types.ImporterFrom, routing local packages to the
// recursive loader and everything else to the source importer.
func (l *Loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if l.isLocal(path) {
		p, err := l.loadLocal(path)
		if err != nil {
			return nil, err
		}
		if p == nil {
			return nil, fmt.Errorf("analysis: no buildable Go files in %s", path)
		}
		return p.Types, nil
	}
	return l.std.ImportFrom(path, dir, mode)
}

// loadLocal parses and type-checks one module-local package, memoized.
func (l *Loader) loadLocal(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirOf(path)
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		ok, err := includeFile(dir, e.Name())
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	pkgName := ""
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		if pkgName == "" {
			pkgName = f.Name.Name
		}
		if f.Name.Name != pkgName {
			return nil, fmt.Errorf("analysis: %s: mixed packages %s and %s", dir, pkgName, f.Name.Name)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		// Every file was excluded (a dir holding only files for other
		// platforms): not an error, just nothing to analyze. Memoize
		// the miss.
		l.pkgs[path] = nil
		return nil, nil
	}

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Name: pkgName, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	l.prog.Packages = append(l.prog.Packages, p)
	return p, nil
}
