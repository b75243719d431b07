package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path      string // import path ("blobseer/internal/obs")
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// Loader parses and type-checks packages from source: module-local
// packages rooted at the repo's go.mod, everything else from
// GOROOT/src. It exists because the x/tools loading stack
// (go/packages) is not importable here — the module is deliberately
// dependency-free and the build environment has no module proxy — and
// `go vet`-style export data is not available when bslint runs
// standalone. Source-checking the stdlib closure once per process is
// the price; the cache makes every subsequent package cheap.
type Loader struct {
	Fset *token.FileSet

	ctxt       build.Context
	moduleRoot string
	modulePath string

	pkgs    map[string]*types.Package
	full    map[string]*Package
	loading map[string]bool
}

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	ctxt := build.Default
	// Pure-Go file selection: cgo variants would drag in import "C"
	// paths go/types cannot check from source. Every package in this
	// tree (and every stdlib package it imports) has a nocgo fallback.
	ctxt.CgoEnabled = false
	return &Loader{
		Fset:       token.NewFileSet(),
		ctxt:       ctxt,
		moduleRoot: root,
		modulePath: modPath,
		pkgs:       make(map[string]*types.Package),
		full:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// ModuleRoot returns the directory holding the module's go.mod.
func (l *Loader) ModuleRoot() string { return l.moduleRoot }

// ModulePath returns the module's import-path prefix.
func (l *Loader) ModulePath() string { return l.modulePath }

// findModule walks up from dir to the enclosing go.mod and parses the
// module path from its first `module` directive.
func findModule(dir string) (root, modPath string, err error) {
	dir, err = filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := dir; ; d = filepath.Dir(d) {
		data, rerr := os.ReadFile(filepath.Join(d, "go.mod"))
		if rerr == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module directive", d)
		}
		if filepath.Dir(d) == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
	}
}

// dirFor resolves an import path to a source directory.
func (l *Loader) dirFor(path string) (string, error) {
	if path == l.modulePath {
		return l.moduleRoot, nil
	}
	if rest, ok := strings.CutPrefix(path, l.modulePath+"/"); ok {
		return filepath.Join(l.moduleRoot, filepath.FromSlash(rest)), nil
	}
	// Stdlib, including its vendored golang.org/x dependencies
	// (net -> vendor/golang.org/x/net/dns/dnsmessage and friends).
	for _, sub := range []string{"src", filepath.Join("src", "vendor")} {
		dir := filepath.Join(l.ctxt.GOROOT, sub, filepath.FromSlash(path))
		if st, err := os.Stat(dir); err == nil && st.IsDir() {
			return dir, nil
		}
	}
	return "", fmt.Errorf("analysis: cannot resolve import %q (not in module %s or GOROOT)", path, l.modulePath)
}

// Import implements types.Importer for dependency resolution during
// type checking. Module-local dependencies are loaded in full (they
// may also be analysis targets, and a package must have exactly one
// types identity per loader); external dependencies are checked
// without retaining ASTs or type-use info.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %q", path)
	}
	dir, err := l.dirFor(path)
	if err != nil {
		return nil, err
	}
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	pkg, _, _, err := l.check(path, dir, false)
	return pkg, err
}

// LoadDir parses and type-checks the package in dir under the given
// import path, retaining its syntax and types.Info for analysis.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if pkg, ok := l.full[path]; ok {
		return pkg, nil
	}
	tpkg, files, info, err := l.check(path, dir, true)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		Path:      path,
		Dir:       dir,
		Fset:      l.Fset,
		Files:     files,
		Types:     tpkg,
		TypesInfo: info,
	}
	l.full[path] = pkg
	return pkg, nil
}

// check does the load: build-tag-filtered file list, parse, type check
// with this loader as the importer.
func (l *Loader) check(path, dir string, keep bool) (*types.Package, []*ast.File, *types.Info, error) {
	l.loading[path] = true
	defer delete(l.loading, path)

	bp, err := l.ctxt.ImportDir(dir, 0)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("analysis: %s: %w", path, err)
	}
	files := make([]*ast.File, 0, len(bp.GoFiles))
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("analysis: parse %s: %w", name, err)
		}
		files = append(files, f)
	}

	var info *types.Info
	if keep {
		info = &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
	}
	conf := types.Config{
		Importer: l,
		// The loader checks real GOROOT sources; anything the compiler
		// accepts must check, including constructs gated on internal
		// consistency (e.g. unsafe tricks in runtime deps).
		Sizes: types.SizesFor(l.ctxt.Compiler, l.ctxt.GOARCH),
	}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("analysis: typecheck %s: %w", path, err)
	}
	l.pkgs[path] = tpkg
	return tpkg, files, info, nil
}

// Load expands patterns into module packages and loads each. Patterns
// are the familiar `./...` (whole module), `./x/y` (one directory),
// or bare module-relative import paths.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs, err := l.expand(patterns)
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.moduleRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.modulePath
		if rel != "." {
			path = l.modulePath + "/" + filepath.ToSlash(rel)
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// expand turns patterns into the sorted set of package directories.
func (l *Loader) expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(dir string) {
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := l.walk(l.moduleRoot, add); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			base := strings.TrimSuffix(pat, "/...")
			dir, err := l.patternDir(base)
			if err != nil {
				return nil, err
			}
			if err := l.walk(dir, add); err != nil {
				return nil, err
			}
		default:
			dir, err := l.patternDir(pat)
			if err != nil {
				return nil, err
			}
			if !l.buildable(dir) {
				return nil, fmt.Errorf("analysis: no buildable Go files in %s", dir)
			}
			add(dir)
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

// patternDir maps one non-wildcard pattern to a directory.
func (l *Loader) patternDir(pat string) (string, error) {
	if strings.HasPrefix(pat, "./") || pat == "." {
		return filepath.Join(l.moduleRoot, filepath.FromSlash(strings.TrimPrefix(pat, "./"))), nil
	}
	return l.dirFor(pat)
}

// walk collects every buildable package directory under root,
// skipping testdata, hidden, and underscore-prefixed directories and,
// like the go tool's "./...", nested modules (benchmark/ has a go.mod
// of its own: its packages are not this module's).
func (l *Loader) walk(root string, add func(string)) error {
	return filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil && p != l.moduleRoot {
			return filepath.SkipDir
		}
		if l.buildable(p) {
			add(p)
		}
		return nil
	})
}

func (l *Loader) buildable(dir string) bool {
	bp, err := l.ctxt.ImportDir(dir, 0)
	return err == nil && len(bp.GoFiles) > 0
}
