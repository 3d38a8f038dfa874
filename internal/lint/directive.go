package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// Directive names. Each is written as a comment of the form
// "//lofat:<name> [args...]" — no space after "//", mirroring the
// "//go:" convention so gofmt leaves them alone.
const (
	// DirZeroAlloc marks a function as part of a zero-allocation hot
	// path: the zeroalloc analyzer rejects allocation-inducing
	// constructs inside it, and the runtime drift test (satellite of the
	// static contract) requires a testing.AllocsPerRun proof in the
	// package's tests.
	DirZeroAlloc = "zeroalloc"
	// DirRawConn marks a function as part of the sanctioned raw
	// connection layer: the deadline wrappers and frame codec that are
	// allowed to call Read/Write on a deadline-capable connection
	// directly. A reason string is required; every use is listed as a
	// suppression in machine-readable output.
	DirRawConn = "rawconn"
	// DirLocked documents that a function's CALLER holds the named
	// mutex: the locked analyzer treats guarded-field accesses inside it
	// as properly protected.
	DirLocked = "locked"
	// DirNilSafe marks a type as a nil-safe handle: the obsnil analyzer
	// requires every exported pointer-receiver method to begin with a
	// nil-receiver guard.
	DirNilSafe = "nilsafe"
	// DirGuardedBy marks a struct field as protected by the named mutex
	// (a sibling field, or — for records owned by a locked container —
	// the symbolic name of the owning lock).
	DirGuardedBy = "guardedby"
	// DirIgnore suppresses one analyzer's diagnostics on the same line
	// or the line below. A reason string is required; all ignores are
	// listed as suppressions in machine-readable output, and ignores
	// that suppress nothing are themselves reported.
	DirIgnore = "ignore"
)

const directivePrefix = "//lofat:"

// Ignore is one parsed //lofat:ignore comment.
type Ignore struct {
	Analyzer string
	Reason   string
	File     string
	Line     int
}

// FuncDirective is a parsed function-level directive (zeroalloc,
// rawconn, locked).
type FuncDirective struct {
	Kind string
	// Arg is the mutex name for locked, empty otherwise.
	Arg string
	// Reason is the trailing free text (required for rawconn).
	Reason string
	// Func is the directive target in Recv.Name or Name form.
	Func string
	Pos  token.Position
}

// Directives holds every parsed //lofat: directive of one package.
type Directives struct {
	// Funcs maps annotated function declarations to their directives
	// (a function may carry several, e.g. zeroalloc + locked).
	Funcs map[*ast.FuncDecl][]*FuncDirective
	// NilSafe holds type declarations marked //lofat:nilsafe.
	NilSafe map[*ast.TypeSpec]bool
	// GuardedBy maps annotated struct fields to their mutex name.
	GuardedBy map[*ast.Field]string
	// Ignores are the per-line suppression comments, in file order.
	Ignores []*Ignore
	// Malformed collects directive syntax errors as diagnostics (they
	// are reported under the "directive" analyzer name).
	Malformed []Diagnostic
}

// FuncKey renders a function declaration as its directive-index key:
// "Recv.Name" for methods (pointer stars stripped), "Name" otherwise.
func FuncKey(fn *ast.FuncDecl) string {
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		if name := recvTypeName(fn.Recv.List[0].Type); name != "" {
			return name + "." + fn.Name.Name
		}
	}
	return fn.Name.Name
}

// recvTypeName unwraps a receiver type expression to its base type
// name ("*Monitor" and "Monitor" both yield "Monitor").
func recvTypeName(expr ast.Expr) string {
	for {
		switch t := expr.(type) {
		case *ast.StarExpr:
			expr = t.X
		case *ast.IndexExpr: // generic receiver
			expr = t.X
		case *ast.IndexListExpr:
			expr = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}

// parseDirectiveComment splits one comment into (name, rest). ok is
// false for comments that are not lofat directives at all.
func parseDirectiveComment(text string) (name, rest string, ok bool) {
	if !strings.HasPrefix(text, directivePrefix) {
		return "", "", false
	}
	body := strings.TrimPrefix(text, directivePrefix)
	name, rest, _ = strings.Cut(body, " ")
	return strings.TrimSpace(name), strings.TrimSpace(rest), true
}

// ParseDirectives scans the files of one package for //lofat:
// directives. fset must be the set the files were parsed with (with
// comments).
func ParseDirectives(fset *token.FileSet, files []*ast.File) *Directives {
	d := &Directives{
		Funcs:     make(map[*ast.FuncDecl][]*FuncDirective),
		NilSafe:   make(map[*ast.TypeSpec]bool),
		GuardedBy: make(map[*ast.Field]string),
	}
	for _, f := range files {
		d.parseFile(fset, f)
	}
	return d
}

func (d *Directives) bad(pos token.Position, format string, args ...any) {
	d.Malformed = append(d.Malformed, Diagnostic{
		Analyzer: "directive",
		File:     pos.Filename,
		Line:     pos.Line,
		Col:      pos.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (d *Directives) parseFile(fset *token.FileSet, f *ast.File) {
	// Ignores can appear in any comment group, attached or floating.
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			name, rest, ok := parseDirectiveComment(c.Text)
			if !ok || name != DirIgnore {
				continue
			}
			pos := fset.Position(c.Pos())
			analyzer, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			if analyzer == "" || reason == "" {
				d.bad(pos, "malformed //lofat:ignore: want \"//lofat:ignore <analyzer> <reason>\"")
				continue
			}
			if !knownAnalyzer(analyzer) {
				d.bad(pos, "//lofat:ignore names unknown analyzer %q", analyzer)
				continue
			}
			d.Ignores = append(d.Ignores, &Ignore{
				Analyzer: analyzer,
				Reason:   reason,
				File:     pos.Filename,
				Line:     pos.Line,
			})
		}
	}

	// Function- and type-level directives live in doc comments.
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			d.parseFuncDoc(fset, decl)
		case *ast.GenDecl:
			d.parseGenDecl(fset, decl)
		}
	}
}

func (d *Directives) parseFuncDoc(fset *token.FileSet, fn *ast.FuncDecl) {
	if fn.Doc == nil {
		return
	}
	for _, c := range fn.Doc.List {
		name, rest, ok := parseDirectiveComment(c.Text)
		if !ok || name == DirIgnore {
			continue
		}
		pos := fset.Position(c.Pos())
		fd := &FuncDirective{Kind: name, Func: FuncKey(fn), Pos: pos}
		switch name {
		case DirZeroAlloc:
			fd.Reason = rest
		case DirRawConn:
			if rest == "" {
				d.bad(pos, "//lofat:rawconn requires a reason string")
				continue
			}
			fd.Reason = rest
		case DirLocked:
			mutex, reason, _ := strings.Cut(rest, " ")
			if mutex == "" {
				d.bad(pos, "//lofat:locked requires a mutex name")
				continue
			}
			fd.Arg, fd.Reason = mutex, strings.TrimSpace(reason)
		default:
			d.bad(pos, "unknown or misplaced directive //lofat:%s on function %s", name, FuncKey(fn))
			continue
		}
		d.Funcs[fn] = append(d.Funcs[fn], fd)
	}
}

func (d *Directives) parseGenDecl(fset *token.FileSet, decl *ast.GenDecl) {
	for _, spec := range decl.Specs {
		ts, ok := spec.(*ast.TypeSpec)
		if !ok {
			continue
		}
		// The directive may sit on the TypeSpec or, for single-spec
		// declarations, on the GenDecl.
		for _, doc := range []*ast.CommentGroup{decl.Doc, ts.Doc} {
			if doc == nil {
				continue
			}
			for _, c := range doc.List {
				name, _, ok := parseDirectiveComment(c.Text)
				if !ok || name == DirIgnore {
					continue
				}
				pos := fset.Position(c.Pos())
				if name != DirNilSafe {
					d.bad(pos, "unknown or misplaced directive //lofat:%s on type %s", name, ts.Name.Name)
					continue
				}
				d.NilSafe[ts] = true
			}
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			continue
		}
		for _, field := range st.Fields.List {
			for _, doc := range []*ast.CommentGroup{field.Doc, field.Comment} {
				if doc == nil {
					continue
				}
				for _, c := range doc.List {
					name, rest, ok := parseDirectiveComment(c.Text)
					if !ok || name == DirIgnore {
						continue
					}
					pos := fset.Position(c.Pos())
					if name != DirGuardedBy {
						d.bad(pos, "unknown or misplaced directive //lofat:%s on a struct field", name)
						continue
					}
					mutex, _, _ := strings.Cut(rest, " ")
					if mutex == "" {
						d.bad(pos, "//lofat:guardedby requires a mutex name")
						continue
					}
					d.GuardedBy[field] = mutex
				}
			}
		}
	}
}

// ZeroAllocFuncs returns the FuncKey of every function in the package
// marked //lofat:zeroalloc, sorted by name: the suite's cross-package
// index, and what the drift test couples to AllocsPerRun proofs.
func (d *Directives) ZeroAllocFuncs() []string {
	var out []string
	for fn, dirs := range d.Funcs {
		for _, fd := range dirs {
			if fd.Kind == DirZeroAlloc {
				out = append(out, FuncKey(fn))
			}
		}
	}
	sortStrings(out)
	return out
}
