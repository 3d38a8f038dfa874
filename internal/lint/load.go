package lint

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
	"strings"
)

// listPackage is the subset of `go list -json` output the loader needs.
type listPackage struct {
	Dir          string
	ImportPath   string
	Export       string
	Standard     bool
	DepOnly      bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Error        *struct{ Err string }
}

// Load lists, parses, and type-checks the packages matched by patterns
// (e.g. "./...") relative to dir. Dependencies are imported from
// compiler export data; a non-standard one outside the patterns is also
// parsed, for its directives alone, so a subset run indexes the same
// //lofat:zeroalloc annotations as ./... does.
func Load(dir string, patterns ...string) (*Suite, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	exports := make(map[string]string) // import path -> export data file
	var targets []*listPackage
	suite := &Suite{Analyzers: DefaultAnalyzers()}
	for _, lp := range pkgs {
		if lp.Error != nil {
			return nil, fmt.Errorf("go list: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if lp.Export != "" {
			exports[lp.ImportPath] = lp.Export
		}
		switch {
		case !lp.DepOnly:
			targets = append(targets, lp)
		case !lp.Standard:
			files, err := parseFiles(fset, lp.Dir, lp.GoFiles)
			if err != nil {
				return nil, err
			}
			suite.deps = append(suite.deps, &Package{Path: lp.ImportPath, Directives: ParseDirectives(fset, files)})
		}
	}

	imp := newExportImporter(fset, exports)
	for _, lp := range targets {
		p, err := loadPackage(fset, imp, lp)
		if err != nil {
			return nil, err
		}
		suite.Packages = append(suite.Packages, p)
	}
	return suite, nil
}

// parseFiles parses the named files of dir, comments included.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %v", path, err)
		}
		files = append(files, f)
	}
	return files, nil
}

// goList shells out to the go tool. -export makes the toolchain write
// export data for every listed package (including dependencies via
// -deps), which the type-checker then imports instead of re-parsing
// the world.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=Dir,ImportPath,Export,Standard,DepOnly,GoFiles,TestGoFiles,XTestGoFiles,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	// GOWORK=off keeps a stray parent workspace file from dragging in
	// unrelated modules (the driver test loads synthetic mini-modules
	// from temp dirs).
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, stderr.String())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		lp := new(listPackage)
		if err := dec.Decode(lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// newExportImporter returns a types.Importer reading gc export data
// from the files go list reported. "unsafe" has no export file and is
// special-cased to the built-in package.
func newExportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return &exportImporter{gc: importer.ForCompiler(fset, "gc", lookup)}
}

type exportImporter struct {
	gc types.Importer
}

func (e *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return e.gc.Import(path)
}

func loadPackage(fset *token.FileSet, imp types.Importer, lp *listPackage) (*Package, error) {
	files, err := parseFiles(fset, lp.Dir, lp.GoFiles)
	if err != nil {
		return nil, err
	}
	testFiles, err := parseFiles(fset, lp.Dir, append(append([]string(nil), lp.TestGoFiles...), lp.XTestGoFiles...))
	if err != nil {
		return nil, err
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: imp,
		// Keep going past errors: a half-typed package still yields
		// useful diagnostics, and fixtures may reference the analyzer
		// under test without caring about full type soundness.
		Error: func(error) {},
	}
	tpkg, _ := conf.Check(lp.ImportPath, fset, files, info)

	// Directives are scanned over compiled and test files alike (alloc
	// drift tests live in _test.go but the annotations they index live
	// in compiled files; ignores may appear in either).
	all := make([]*ast.File, 0, len(files)+len(testFiles))
	all = append(all, files...)
	all = append(all, testFiles...)

	return &Package{
		Path:       lp.ImportPath,
		Dir:        lp.Dir,
		Fset:       fset,
		Files:      files,
		TestFiles:  testFiles,
		Types:      tpkg,
		Info:       info,
		Directives: ParseDirectives(fset, all),
	}, nil
}

// LoadDirAST parses every .go file directly inside dir (no go list, no
// type-checking) and returns the fileset, compiled files, and test
// files. This is the lightweight path used by fixture tests and the
// annotation drift test, which only need directive scanning.
func LoadDirAST(dir string) (*token.FileSet, []*ast.File, []*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	fset := token.NewFileSet()
	var files, testFiles []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		if strings.HasSuffix(name, "_test.go") {
			testFiles = append(testFiles, f)
		} else {
			files = append(files, f)
		}
	}
	return fset, files, testFiles, nil
}
