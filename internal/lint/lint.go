// Package lint is a stdlib-only static-analysis engine enforcing the
// LO-FAT code contracts: zero-allocation measurement loops (zeroalloc),
// deadline-wrapped transport I/O (rawconn), nil-safe observability
// handles (obsnil), canonical round-trip-tested persistence codecs
// (walcodec), and mutex-guarded shared state (locked).
//
// The engine loads packages by shelling out to `go list -export -deps
// -json`, parses sources with go/parser, and type-checks with go/types
// against the compiler's export data — no module downloads, no
// third-party dependencies. Diagnostics can be suppressed per line with
// `//lofat:ignore <analyzer> <reason>` comments; every suppression is
// surfaced in machine-readable output so exceptions stay auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Suppression is one audited exception: an //lofat:ignore comment or a
// sanctioning function directive (rawconn, locked). Matched counts the
// diagnostics it absorbed; an ignore with Matched == 0 is itself
// reported as a diagnostic so stale suppressions cannot accumulate.
type Suppression struct {
	// Kind is "ignore", "rawconn", or "locked".
	Kind     string `json:"kind"`
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	// Target is the sanctioned function (directive suppressions only).
	Target string `json:"target,omitempty"`
	Reason string `json:"reason"`
	// Matched is how many diagnostics the suppression absorbed.
	Matched int `json:"matched"`
}

// Package is one loaded, type-checked package plus its parsed test
// files (test files are parsed but not type-checked: analyzers only
// need their ASTs, e.g. walcodec checking a decoder is exercised).
type Package struct {
	Path       string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File // compiled (non-test) files
	TestFiles  []*ast.File // _test.go files, AST only
	Types      *types.Package
	Info       *types.Info
	Directives *Directives

	suite *Suite
}

// Position resolves a node position in this package.
func (p *Package) Position(pos token.Pos) token.Position {
	return p.Fset.Position(pos)
}

// Diag formats a diagnostic anchored at pos.
func (p *Package) Diag(analyzer string, pos token.Pos, format string, args ...any) Diagnostic {
	position := p.Position(pos)
	return Diagnostic{
		Analyzer: analyzer,
		File:     position.Filename,
		Line:     position.Line,
		Col:      position.Column,
		Message:  fmt.Sprintf(format, args...),
	}
}

// Suite is a set of loaded packages plus the analyzers to run over
// them.
type Suite struct {
	Packages  []*Package
	Analyzers []*Analyzer

	// deps are the non-standard packages the targets import but the
	// patterns did not match, loaded for their Path and Directives only.
	deps []*Package

	// zeroalloc holds the FuncKey of every annotated function, keyed by
	// package path (targets and deps), so the zeroalloc analyzer can allow
	// calls into other annotated functions across package boundaries.
	zeroalloc map[string]map[string]bool
}

// Analyzer is one named check over a single package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Package) []Diagnostic
}

// DefaultAnalyzers returns the full LO-FAT analyzer suite.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		ZeroAllocAnalyzer(),
		RawConnAnalyzer(),
		ObsNilAnalyzer(),
		WalCodecAnalyzer(),
		LockedAnalyzer(),
	}
}

var analyzerNames = map[string]bool{
	"zeroalloc": true,
	"rawconn":   true,
	"obsnil":    true,
	"walcodec":  true,
	"locked":    true,
	"directive": true,
}

func knownAnalyzer(name string) bool { return analyzerNames[name] }

// index builds the cross-package directive indexes analyzers consult.
func (s *Suite) index() {
	s.zeroalloc = make(map[string]map[string]bool)
	for _, p := range append(s.deps, s.Packages...) {
		set := make(map[string]bool)
		for _, key := range p.Directives.ZeroAllocFuncs() {
			set[key] = true
		}
		s.zeroalloc[p.Path] = set
	}
	for _, p := range s.Packages {
		p.suite = s
	}
}

// Result is one full suite run: the surviving diagnostics and every
// suppression that was in effect, both sorted by file position.
type Result struct {
	Diagnostics  []Diagnostic  `json:"diagnostics"`
	Suppressions []Suppression `json:"suppressions"`
}

// Run executes every analyzer over every package, applies
// //lofat:ignore suppressions, reports malformed directives and unused
// ignores, and returns the sorted result.
func (s *Suite) Run() Result {
	s.index()

	var res Result
	for _, p := range s.Packages {
		var diags []Diagnostic
		diags = append(diags, p.Directives.Malformed...)
		for _, a := range s.Analyzers {
			diags = append(diags, a.Run(p)...)
		}

		// Apply line-based ignores: an ignore on line L suppresses
		// matching diagnostics on L (end-of-line comment) and L+1
		// (comment on its own line above). Multi-line expressions are
		// covered by placing the ignore on the first line.
		ignores := make([]*Suppression, len(p.Directives.Ignores))
		for i, ig := range p.Directives.Ignores {
			ignores[i] = &Suppression{
				Kind:     "ignore",
				Analyzer: ig.Analyzer,
				File:     ig.File,
				Line:     ig.Line,
				Reason:   ig.Reason,
			}
		}
		for _, d := range diags {
			sup := matchIgnore(ignores, d)
			if sup != nil {
				sup.Matched++
				continue
			}
			res.Diagnostics = append(res.Diagnostics, d)
		}
		for _, sup := range ignores {
			if sup.Matched == 0 {
				res.Diagnostics = append(res.Diagnostics, Diagnostic{
					Analyzer: "ignore",
					File:     sup.File,
					Line:     sup.Line,
					Col:      1,
					Message:  fmt.Sprintf("//lofat:ignore %s suppresses no diagnostic; delete it", sup.Analyzer),
				})
				continue
			}
			res.Suppressions = append(res.Suppressions, *sup)
		}

		// Sanctioning function directives are standing suppressions:
		// surface them so -json output audits every exception.
		for _, dirs := range p.Directives.Funcs {
			for _, fd := range dirs {
				if fd.Kind != DirRawConn && fd.Kind != DirLocked {
					continue
				}
				res.Suppressions = append(res.Suppressions, Suppression{
					Kind:     fd.Kind,
					Analyzer: fd.Kind,
					File:     fd.Pos.Filename,
					Line:     fd.Pos.Line,
					Target:   fd.Func,
					Reason:   fd.Reason,
					Matched:  1,
				})
			}
		}
	}

	sortDiagnostics(res.Diagnostics)
	sort.Slice(res.Suppressions, func(i, j int) bool {
		a, b := res.Suppressions[i], res.Suppressions[j]
		if a.File != b.File {
			return a.File < b.File
		}
		return a.Line < b.Line
	})
	return res
}

func matchIgnore(ignores []*Suppression, d Diagnostic) *Suppression {
	for _, ig := range ignores {
		if ig.File != d.File || ig.Analyzer != d.Analyzer {
			continue
		}
		if ig.Line == d.Line || ig.Line == d.Line-1 {
			return ig
		}
	}
	return nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

func sortStrings(s []string) { sort.Strings(s) }

// typeOf is a nil-tolerant shorthand for Info.TypeOf.
func (p *Package) typeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}
