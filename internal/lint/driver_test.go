package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// want expectations are "// want \"substr\"" comments in fixture
// files: each quoted string expects one diagnostic on that line whose
// message contains the substring.
type wantComment struct {
	file   string // base name
	line   int
	substr string
	hit    bool
}

var wantRE = regexp.MustCompile(`want ((?:"[^"]*"\s*)+)`)
var quotedRE = regexp.MustCompile(`"([^"]*)"`)

func parseWants(t *testing.T, dir string) []*wantComment {
	t.Helper()
	fset, files, testFiles, err := LoadDirAST(dir)
	if err != nil {
		t.Fatalf("parsing fixtures in %s: %v", dir, err)
	}
	var wants []*wantComment
	for _, f := range append(files, testFiles...) {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range quotedRE.FindAllStringSubmatch(m[1], -1) {
					wants = append(wants, &wantComment{
						file:   filepath.Base(pos.Filename),
						line:   pos.Line,
						substr: q[1],
					})
				}
			}
		}
	}
	return wants
}

// TestFixtures loads every mini-module under testdata/ through the
// real driver (go list + export-data type-checking) and requires the
// suite's diagnostics to match the fixtures' want comments exactly:
// every want satisfied, no diagnostic unaccounted for.
func TestFixtures(t *testing.T) {
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		t.Run(e.Name(), func(t *testing.T) {
			dir := filepath.Join("testdata", e.Name())
			suite, err := Load(dir, "./...")
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			res := suite.Run()
			wants := parseWants(t, dir)
			for _, d := range res.Diagnostics {
				if w := matchWant(wants, d); w != nil {
					w.hit = true
					continue
				}
				t.Errorf("unexpected diagnostic: %s", d)
			}
			for _, w := range wants {
				if !w.hit {
					t.Errorf("%s:%d: want %q: no such diagnostic", w.file, w.line, w.substr)
				}
			}
		})
	}
}

func matchWant(wants []*wantComment, d Diagnostic) *wantComment {
	for _, w := range wants {
		if !w.hit && w.file == filepath.Base(d.File) && w.line == d.Line && strings.Contains(d.Message, w.substr) {
			return w
		}
	}
	return nil
}

// TestFixtureSuppressions checks the audit half of the contract on the
// ignore fixture: matched ignores surface as suppressions with their
// reasons and match counts, and the sanctioning directives of the
// rawconn and locked fixtures are listed too.
func TestFixtureSuppressions(t *testing.T) {
	load := func(name string) Result {
		t.Helper()
		suite, err := Load(filepath.Join("testdata", name), "./...")
		if err != nil {
			t.Fatalf("Load %s: %v", name, err)
		}
		return suite.Run()
	}

	res := load("ignore")
	var matched int
	for _, sup := range res.Suppressions {
		if sup.Kind != "ignore" {
			t.Errorf("unexpected suppression kind %q", sup.Kind)
		}
		if sup.Matched < 1 {
			t.Errorf("suppression at %s:%d survived with Matched == 0", sup.File, sup.Line)
		}
		if sup.Reason == "" {
			t.Errorf("suppression at %s:%d has no reason", sup.File, sup.Line)
		}
		matched += sup.Matched
	}
	if matched != 2 {
		t.Errorf("ignore fixture: %d diagnostics absorbed, want 2", matched)
	}

	for name, kind := range map[string]string{"rawconn": "rawconn", "locked": "locked"} {
		found := false
		for _, sup := range load(name).Suppressions {
			if sup.Kind == kind && sup.Target != "" && sup.Reason != "" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s fixture: no audited %s sanction in suppressions", name, kind)
		}
	}
}

// TestSyntheticModule drives the loader end to end over a module
// written into a temp dir at test time, proving the driver needs
// nothing from the repo tree: go list, export-data imports, directive
// parsing, and a firing analyzer all work against a from-scratch
// module.
func TestSyntheticModule(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module synthetic.example/vet\n\ngo 1.24\n")
	write("main.go", `package vet

import "net"

//lofat:zeroalloc
func Hot(n int) []int {
	return make([]int, n)
}

func Leak(c net.Conn, b []byte) {
	c.Read(b)
}
`)
	suite, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	res := suite.Run()
	var got []string
	for _, d := range res.Diagnostics {
		got = append(got, fmt.Sprintf("%s@%d", d.Analyzer, d.Line))
	}
	want := []string{"zeroalloc@7", "rawconn@11"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("diagnostics %v, want %v", got, want)
	}
}

// TestSubsetPatternIndexesDeps loads a synthetic two-package module with
// a pattern naming only the package that calls into the other. The
// callee's //lofat:zeroalloc annotations must still be indexed, so the
// subset run reports exactly what a ./... run reports for that package:
// the unannotated call is a diagnostic and the ignore on the other one
// is used, not stale.
func TestSubsetPatternIndexesDeps(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module synthetic.example/subset\n\ngo 1.24\n")
	write("dep/dep.go", `package dep

//lofat:zeroalloc
func Fast() int { return 1 }

func Slow() []int { return make([]int, 1) }
`)
	write("hot/hot.go", `package hot

import "synthetic.example/subset/dep"

//lofat:zeroalloc
func Hot() int {
	//lofat:ignore zeroalloc a deliberate call into an unannotated function
	dep.Slow()
	return dep.Fast()
}

//lofat:zeroalloc
func Cold() []int {
	return dep.Slow()
}
`)
	run := func(pattern string) (diags, sups []string) {
		t.Helper()
		suite, err := Load(dir, pattern)
		if err != nil {
			t.Fatalf("Load %s: %v", pattern, err)
		}
		res := suite.Run()
		for _, d := range res.Diagnostics {
			if filepath.Base(filepath.Dir(d.File)) == "hot" {
				diags = append(diags, fmt.Sprintf("%s@%d", d.Analyzer, d.Line))
			}
		}
		for _, s := range res.Suppressions {
			if filepath.Base(filepath.Dir(s.File)) == "hot" {
				sups = append(sups, fmt.Sprintf("%s@%d", s.Analyzer, s.Line))
			}
		}
		return diags, sups
	}
	wantDiags, wantSups := "zeroalloc@14", "zeroalloc@7"
	for _, pattern := range []string{"./...", "./hot"} {
		diags, sups := run(pattern)
		if strings.Join(diags, " ") != wantDiags || strings.Join(sups, " ") != wantSups {
			t.Errorf("%s: diagnostics %v, suppressions %v; want [%s], [%s]", pattern, diags, sups, wantDiags, wantSups)
		}
	}
}
